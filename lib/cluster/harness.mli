(** The chaos campaign: MOARD's fault injector turned on its own
    serving stack.

    A target — an in-process daemon, or a {!Local} cluster of shard
    daemons behind a {!Proxy} — runs with fault-injecting shims drawn
    from one seeded {!Moard_chaos.Chaos} plan. The harness computes the
    fault-free baselines offline, drives a deterministic sequence of
    requests through the retrying client and checks the serving
    invariant:

    {e every response is either a typed protocol error (or a client-side
    transport failure) or byte-identical to the fault-free baseline;
    nothing hangs, and shutdown drains cleanly.}

    Requests are issued serially from a single client, so the fault
    schedule — and with it the whole report, schedule hash included —
    is a function of the seed and the parameters alone: same seed, same
    faults, same {!to_json} bytes. *)

type target
(** What the harness runs against: an in-process daemon or a {!Local}
    cluster. *)

val daemon : ?classes:string list -> ?store_dir:string -> unit -> target
(** An in-process daemon (1 worker, queue 16, 20 s request timeout)
    whose store, journal, socket and job layers all run through the
    plan's shims; the client waits 5 s. [classes] picks the fault
    classes (default all four: ["store"; "journal"; "protocol";
    "pool"]). The store is a fresh temporary directory unless
    [store_dir] is given, in which case it is kept (CI uploads it on
    failure). The daemon runs with an LRU of 0 entries so every warm
    lookup exercises the faulty disk path. Its report carries
    [classes] after [rate], and [store_quarantined],
    [store_put_failures] and [pool_failed] after [schedule_hash].
    @raise Invalid_argument on an unknown class. *)

val cluster : ?shards:int -> ?crash_downtime:int -> unit -> target
(** A {!Local} cluster of [shards] (default 2) one-worker daemons
    under cluster-level faults only: corrupted, torn and dropped
    inter-node frames ([Inter_send]/[Inter_recv], through
    {!Moard_chaos.Chaos.internode_sock}), shard crash-stops that heal
    [crash_downtime] (default 3) requests later, cold in memory but warm
    on disk ([Shard_crash]), and proxy–shard partitions lasting a drawn
    number of requests ([Shard_partition]). One crash trial and one
    partition trial run before each request, the rate applying to each;
    victims come from dedicated {!Moard_chaos.Rng} streams. Hedging and
    warming are off for the run; the client waits 15 s. Its report
    carries [shards] after [rate], and [crash_events], [restarts] and
    [partition_events] after [hung]. *)

type report = {
  seed : int;
  rounds : int;
  rate : float;
  shape : (string * Moard_server.Jsonx.t) list;  (** from the target *)
  requests : int;  (** total requests issued *)
  identical : int;  (** ok responses byte-identical to baseline *)
  ok_dynamic : int;  (** ok responses with no baseline (stat) *)
  partial : int;  (** honest complete=false campaign reports *)
  typed_errors : (string * int) list;  (** error code -> count *)
  transport_failures : int;
      (** requests that exhausted retries on transport errors *)
  diverged : int;  (** ok responses whose payload differs: violations *)
  hung : int;  (** requests that outlived the 60 s hang bound *)
  events : (string * int) list;  (** the session's topology events *)
  fault_stats : (string * int * int) list;
      (** scope, ops, injected, for the target's reported scopes *)
  schedule_hash : string;
  health : (string * int) list;  (** the session's damage counts *)
  survived : bool;  (** no divergence, no hangs, a clean stop *)
}

val to_json : report -> Moard_server.Jsonx.t
(** Deterministic rendering in a fixed field order — two runs with the
    same seed must serialize identically. *)

val run :
  ?rate:float ->
  ?benchmark:string ->
  seed:int ->
  rounds:int ->
  ci_width:float ->
  target ->
  report
(** Run a chaos campaign against [target]: fault rate [rate] (default
    0.08) per shimmed operation, benchmark [benchmark] (default ["MM"]),
    campaign stopping half-width [ci_width]. Each round asks one [advf]
    per registry object, one [campaign], one [report] and one [stat].
    @raise Invalid_argument on an unknown benchmark. *)
