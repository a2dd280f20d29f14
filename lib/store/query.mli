(** Cached MOARD queries: get-or-compute over the {!Store}.

    Each query takes an optional store: with one, a hit is served and a
    miss (or a corrupt entry) is computed and stored; without one, the
    payload is computed and reported [Computed]. Each returns the store
    key it answered under, derived once.

    Every payload here is a canonical byte-stable string (see
    {!Moard_report.Advf_report} and
    {!Moard_report.Campaign_report.stable_json}), and every compute path
    analyzes on a {e fresh context shard} — a pure function of (program,
    object, options) — so a recompute after corruption, a daemon worker
    and the offline CLI all produce the identical bytes. *)

type status =
  | Memory_hit   (** served from the LRU *)
  | Disk_hit     (** served from a verified disk record *)
  | Computed     (** cold: computed (and stored, given a store) *)
  | Recomputed   (** a corrupt entry was detected, recomputed and healed *)

val status_name : status -> string
val is_hit : status -> bool

val advf_payload :
  ?options:Moard_core.Model.options ->
  ?cancel:Moard_chaos.Cancel.t ->
  Moard_inject.Context.t ->
  object_name:string ->
  string
(** The canonical aDVF payload, computed directly (no store): a
    single-domain analysis on a fresh shard of the context. *)

val advf :
  Store.t option ->
  ?options:Moard_core.Model.options ->
  ?cancel:Moard_chaos.Cancel.t ->
  ctx:(unit -> Moard_inject.Context.t) ->
  program:Moard_ir.Program.t ->
  object_name:string ->
  unit ->
  Key.t * string * status
(** Get-or-compute an aDVF summary; returns its key, payload and status.
    [ctx] is only forced on a miss, so a warm query never touches the
    golden run. A tripped [cancel] raises
    {!Moard_chaos.Cancel.Cancelled} out of the compute path before
    anything is stored. *)

val campaign_payload : Moard_campaign.Engine.result -> string
(** The canonical campaign payload ({!Moard_report.Campaign_report}'s
    stable JSON — the perf section is never stored). *)

val interrupted : Moard_campaign.Engine.result -> bool
(** Some object stopped at the drain hook or the cancel token. *)

val campaign :
  Store.t option ->
  ?domains:int ->
  ?should_stop:(unit -> bool) ->
  ?cancel:Moard_chaos.Cancel.t ->
  ?fx:Moard_chaos.Fx.t ->
  ?journal_meta:(string * string) list ->
  ctx:(unit -> Moard_inject.Context.t) ->
  program:Moard_ir.Program.t ->
  plan:Moard_campaign.Plan.t ->
  unit ->
  Key.t * string * status * Moard_campaign.Engine.result option
(** Get-or-compute a campaign report. A miss runs the engine with a
    journal under {!Store.journal_dir}; if that journal already exists
    (an earlier run died or was drained mid-campaign) the engine resumes
    from it instead of starting over. A completed result is stored and
    its journal removed; an interrupted one (the [should_stop] drain
    hook or the [cancel] token fired) is returned un-stored with its
    journal left in place for the next attempt. Without a store the
    engine runs without a journal. The result is [None] exactly when the
    payload came from the store. [domains] is not part of the key: the
    payload bytes are identical for any value. [fx] routes the engine's
    journal I/O. *)

val predict_payload : Moard_predict.Predict.t -> string
(** The canonical prediction payload
    ({!Moard_report.Predict_report.stable_json}). *)

val predict :
  Store.t option ->
  ?model:Moard_bits.Errmodel.t ->
  ?seed:int ->
  ?confidence:float ->
  ?ci_width:float ->
  ?max_samples:int ->
  ?domains:int ->
  ?cancel:Moard_chaos.Cancel.t ->
  workload_at:(int -> Moard_inject.Workload.t) ->
  object_name:string ->
  sizes:int list ->
  target:int ->
  unit ->
  Key.t * string * status * Moard_predict.Predict.t option
(** Get-or-compute a cross-input-size prediction
    ({!Moard_predict.Predict.run}). [sizes] is canonicalized (sorted,
    deduplicated) before keying, and [workload_at] is forced once per
    canonical size; the same workloads give the key its training
    programs and, on a miss, are what the campaigns run — so a warm
    query builds workloads but never executes them. [domains] does not
    join the key (it changes no payload byte). The result is [None]
    exactly when the payload came from the store. Refusals
    ({!Moard_predict.Predict.Refused}) and cancellation propagate before
    anything is stored. Defaults match {!Moard_predict.Predict.run}. *)

val advise :
  Store.t option ->
  ?model:Moard_bits.Errmodel.t ->
  ?seed:int ->
  ?confidence:float ->
  ?ci_width:float ->
  ?max_samples:int ->
  ?domains:int ->
  ?cancel:Moard_chaos.Cancel.t ->
  workload:Moard_inject.Workload.t ->
  objects:string list ->
  unit ->
  Key.t * string * status
(** Get-or-compute a resilience-advisor report: the stable JSON
    ({!Moard_report.Advise_report.stable_json}) of
    {!Moard_advise.Advise.run}, in which [domains] changes no byte.
    [objects] = [[]] means the workload's target objects (resolved
    before keying, so the two spellings share one entry). The
    protected-variant campaigns run without journals — each is a fresh
    in-memory campaign; the advise payload as a whole is the cached
    unit. A tripped [cancel] raises out of the compute path before
    anything is stored. *)

val tape_payload : Moard_inject.Context.t -> string
(** The packed golden tape, marshalled. *)

val tape :
  Store.t ->
  ctx:(unit -> Moard_inject.Context.t) ->
  program:Moard_ir.Program.t ->
  entry:string ->
  unit ->
  Moard_trace.Tape.t * status
(** Get-or-compute a packed golden tape. A hit deserializes the stored
    tape without re-running the program. *)
