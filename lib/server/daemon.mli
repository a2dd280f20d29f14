(** [moardd]: the concurrent MOARD analysis daemon.

    Listens on a Unix socket speaking {!Protocol}, schedules compute
    requests onto a bounded {!Pool} of OCaml 5 domains, and serves
    results out of a content-addressed {!Moard_store} — so every query is
    computed at most once per store, and repeated queries are cache hits
    at memory speed. What a request means — its fields, defaults, store
    key and header — is {!Ops}'s: a worker answers it with
    {!Ops.answer}, exactly as [query --offline] does in-process.

    Concurrency shape: one golden-run {!Moard_inject.Context} per program,
    created once (single-flight) and shared; each worker analyzes on a
    fresh {!Moard_inject.Context.shard} of it, which is the purity
    contract that makes daemon-served payloads byte-identical to offline
    CLI output. Parallelism comes from concurrent requests across the
    pool, not from splitting one request.

    The request envelope — protocol check, the ["req_fnv"] integrity
    refusal, single-flight coalescing of identical compute requests,
    the idle-only warm queue — is {!Serving}'s. The daemon's own part:
    a compute request whose client connection dies while it waits (a
    hedged request whose other leg won, or a crashed caller) is
    cooperatively cancelled unless followers are coalesced behind it;
    and a ["warm"] queues the [advf] request itself, drained through
    the normal dispatch path strictly when the pool is idle, so live
    queries coalesce onto an in-progress warm compute.

    Overload and shutdown semantics: a full queue returns an explicit
    [overloaded] error (never a silent drop); a request exceeding the
    per-request timeout (measured on the monotonic clock — wall-time
    jumps can neither expire nor immortalize a request) gets a [timeout]
    error {e and its job is cooperatively cancelled}: the computation
    stops at its next per-site or per-batch cancellation point, freeing
    the worker — nothing partial is stored, and a campaign's committed
    batches stay journalled for resume. A job that dies for any other
    reason resolves its request with a typed [internal] error (the last
    one is surfaced in [stat]); an accepted request never waits out the
    timeout on a silent failure. SIGTERM/SIGINT (or {!stop}) drain
    gracefully — accepting stops, in-flight requests finish, a campaign
    mid-flight stops at its next batch boundary with every resolved batch
    already committed to its journal in the store directory, and the
    socket file is removed.

    Every fallible boundary — store I/O, journal I/O, socket reads and
    writes, job execution — runs through the {!Moard_chaos.Chaos.shims}
    in the config. Production uses {!Moard_chaos.Chaos.passthrough}; the
    chaos harness substitutes fault-injecting shims, which is how the
    semantics above are actually proven. *)

type config = {
  socket : string;       (** Unix socket path (unlinked on shutdown) *)
  store_dir : string;    (** result-store root *)
  workers : int;         (** worker domains *)
  queue : int;           (** pending-job bound (backpressure) *)
  timeout_s : float;     (** per-request timeout *)
  lru_entries : int;
  lru_bytes : int;
  shims : Moard_chaos.Chaos.shims;
      (** effects implementations for store/journal/socket/job I/O;
          {!Moard_chaos.Chaos.passthrough} in production *)
}

val default_config : config
(** socket ["moardd.sock"], store [".moard-store"], workers =
    [Domain.recommended_domain_count () - 1] (min 1), queue [64],
    timeout [300s], LRU [256] entries / [64 MiB], passthrough shims. *)

type t

val start : config -> t
(** Bind the socket (replacing a stale file), spawn the pool and the
    accept thread, return immediately.
    @raise Unix.Unix_error if the socket cannot be bound. *)

val stop : t -> unit
(** Graceful drain: stop accepting, let in-flight requests finish, drain
    the pool, close and unlink the socket, then run a full major GC so
    the daemon's state is reclaimed before the caller starts another.
    Blocks until done. Idempotent. *)

val store : t -> Moard_store.Store.t
(** The daemon's store handle (the test suite corrupts entries through
    it). *)

val pool : t -> Pool.t
(** The daemon's worker pool (the chaos harness and the test suite read
    its counters). *)

val run : config -> unit
(** {!start}, install SIGTERM/SIGINT handlers that trigger the graceful
    drain, and block until shutdown completes. *)
