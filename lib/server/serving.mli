(** The serving core shared by {!Daemon} and the cluster proxy.

    Both servers speak {!Protocol} on a Unix socket and differ only in
    how they answer a compute op ({!Ops.names}): the daemon runs it
    through {!Ops.answer} on its pool, the proxy forwards it to a shard.
    Everything else is written once here:

    - {e the listener}: bind over a stale socket file, the accept loop,
      one thread per connection (select tick, recv, dispatch, send), a
      typed [bad-request] for framing errors, the served/error counts,
      the graceful drain on {!stop} and the SIGTERM/SIGINT loop;
    - {e the request envelope}: the [proto] check, [version], missing or
      unknown [op], the ["req_fnv"] integrity refusal on compute ops and
      on [warm], and single-flight on the canonical {!signature} —
      followers get the leader's bytes with [served = "coalesced"],
      [cached = true], and the leader always publishes, even when its
      compute raises;
    - {e the warm queue}: deduplicated on the item's signature, drained
      one item at a time by a thread only while the server says it is
      idle.

    The timing constants are the ones both servers had before they
    shared this code, and the served benchmarks measure them: a 0.25 s
    select tick per connection and 0.2 s on the listener (how fast a
    drain notices an idle connection), a 20 ms warm-queue poll, and a
    0.2 s signal-loop tick. *)

type reply = Jsonx.t * string option
(** A response header and its optional payload frame. *)

val signature : Jsonx.t -> string
(** The canonical signature: {!Jsonx.signature} without the transport
    fields ["proto"] and ["req_fnv"]. Equal signatures are the same
    work; it is also the input of the ["req_fnv"] checksum. *)

val is_ok : Jsonx.t -> bool
(** [status = "ok"]. *)

type 's t
(** A running server whose own state is ['s]. *)

type 's hooks = {
  version : (string * Jsonx.t) list;
      (** extra fields of the [version] response, after ["op"] *)
  stat : 's t -> Jsonx.t;  (** the [stat] response *)
  compute :
    's t ->
    fd:Unix.file_descr option ->
    deadline_s:float option ->
    lone:(unit -> bool) ->
    string ->
    Jsonx.t ->
    reply;
      (** Serve one compute op as the single-flight leader. [fd] is the
          requesting connection (none for a warm item), [deadline_s]
          overrides the server's request timeout, and [lone ()] holds
          while no follower is coalesced behind the leader. *)
  warm_item : Moard_kernels.Registry.entry -> string -> Jsonx.t -> Jsonx.t;
      (** What a valid [warm] request for (benchmark, object) queues. *)
  warm : 's t -> Jsonx.t -> bool;
      (** Process one queued item; [true] counts as warmed, [false] or
          an exception as a warm error. *)
  idle : 's -> bool;
      (** Whether the warm thread may take the next item now. Called
          under the core's lock. *)
}

val start :
  socket:string -> sock:Moard_chaos.Sock.t -> (unit -> 's) -> 's hooks -> 's t
(** Ignore SIGPIPE, bind [socket] (replacing a stale file), build the
    state, then spawn the accept and warm threads. [sock] carries the
    client connections' reads and writes.
    @raise Unix.Unix_error if the socket cannot be bound. *)

val stop : ?drain:(unit -> unit) -> 's t -> unit
(** Graceful and idempotent: stop accepting, wait for every connection
    to finish, join the warm thread, run [drain], then close and unlink
    the socket. *)

val run : 's t -> stop:('s t -> unit) -> unit
(** Block until SIGTERM or SIGINT (or {!stopping}), then call [stop]. *)

val await_signal : bool Atomic.t -> unit
(** Set the flag on SIGTERM or SIGINT; block until it is set. *)

val state : 's t -> 's
val stopping : 's t -> bool
val uptime_s : 's t -> float

val dispatch :
  's t -> ?fd:Unix.file_descr -> ?deadline_s:float -> Jsonx.t -> reply
(** Serve one request through the envelope. *)

val enqueue_warm : 's t -> Jsonx.t -> bool
(** Queue a warm item unless one with the same signature was ever
    queued; [true] if it is new. *)

type counters = {
  mutable served : int;  (** ok responses sent *)
  mutable errors : int;  (** error responses sent, framing errors included *)
  mutable coalesced : int;  (** requests served as single-flight followers *)
  mutable refused : int;  (** requests refused by the integrity check *)
  mutable warm_busy : bool;  (** the warm thread is processing an item *)
  mutable warmed : int;
  mutable warm_errors : int;
}

val counters : 's t -> counters
(** A snapshot, taken under the core's lock. *)

val warm_queued : 's t -> int
(** Warm items waiting. *)
