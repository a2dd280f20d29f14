(** The op table: the one interpreter of MOARD's compute requests.

    A compute request is a JSON object naming an [op] ([advf],
    [campaign], [report], [predict] or [advise]), a [benchmark] and the
    op's parameters. This module owns, once, what every op means: its
    field names and their types, the default of every absent field, the
    store key the answer lives under, and the response header. The
    daemon answers a request through {!answer} on a worker; the CLI's
    [query … --offline] passes the same request to {!answer} in-process.
    So an offline answer is the served answer, header included, up to
    [served]/[cached].

    Fields are typed: an absent field takes its default, and a field
    present with the wrong type is a [bad-request] that names the field,
    never a quiet default. Integer fields accept integral floats
    ([{!Jsonx.int}]). *)

type reply = Jsonx.t * string option
(** A response header and its optional payload. *)

exception Bad_request of string
(** A request that cannot be interpreted; answered as [bad-request]. *)

val field_str : Jsonx.t -> string -> string
(** A required string field. @raise Bad_request if absent or not a
    string. *)

val entry_of : Jsonx.t -> Moard_kernels.Registry.entry
(** The request's ["benchmark"]. @raise Bad_request if absent or
    unknown. *)

val names : string list
(** The compute ops, in table order. *)

type env = {
  store : Moard_store.Store.t option;
      (** where answers are cached; [None] computes every answer and
          reports it [served = "computed"] *)
  context : Moard_kernels.Registry.entry -> Moard_inject.Context.t;
      (** the golden-run context of a benchmark *)
  cancel : Moard_chaos.Cancel.t option;
      (** checked per site and per batch; a tripped token raises
          {!Moard_chaos.Cancel.Cancelled} before anything is stored *)
  should_stop : unit -> bool;
      (** the drain hook: a campaign stops at its next batch boundary *)
  journal_fx : Moard_chaos.Fx.t;  (** campaign journal I/O *)
}

val golden_contexts :
  unit ->
  (Moard_kernels.Registry.entry -> Moard_inject.Context.t) * (unit -> int)
(** A context provider that makes one golden run per benchmark, whoever
    asks first (single-flight under a lock, so it may be shared by
    worker domains), and a count of the contexts it has made. *)

val offline : ?store:Moard_store.Store.t -> unit -> env
(** The in-process environment: fresh {!golden_contexts}, no cancel
    token, no drain, real journal I/O. *)

val answer : env -> Jsonx.t -> reply
(** Answer one compute request. An ok header reads [status], [op],
    [key], [served], [cached], [benchmark], then the op's own fields
    ([object]; [complete]; [object] and [target]). A bad request, an
    unknown op, a refused prediction and a [report] with neither a
    stored report nor a journal are typed error headers. Other failures
    raise: {!Moard_chaos.Cancel.Cancelled}, and [Invalid_argument] or
    [Failure] from the analysis. *)
