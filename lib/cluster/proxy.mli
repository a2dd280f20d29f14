(** The cluster coordinator: a thin proxy speaking {!Moard_server.Protocol}
    on both sides.

    Clients talk to it exactly as they would to a single [moardd]; it
    routes each request onto a consistent-hash {!Ring} of shard daemons
    (R-way replicated owner chains), coalesces identical concurrent
    requests into one forward, hedges slow forwards onto the replica,
    fails over when a shard is dead or partitioned, and coordinates
    store warming.  Served payload bytes pass through untouched in both
    directions, which is what keeps the serving invariant — every
    response is a typed error or byte-identical to the offline CLI —
    checkable at cluster scale.

    Fault posture per mechanism:
    - {e routing}: deterministic (pure function of shard names), see {!Ring};
    - {e coalescing}: the single-flight of {!Moard_server.Serving},
      whose envelope the proxy shares with the daemon;
    - {e integrity}: forwarded requests carry a ["req_fnv"] checksum and
      response payloads a ["payload_fnv"]; a corrupted inter-node frame
      is refused/retried, never served;
    - {e hedging}: idempotent ops only; the second leg starts after an
      adaptive deadline (2× the p95 of recent forward latencies, floored
      at [hedge_floor_s]) or the fixed [hedge_after_s]; first response
      wins and the loser's connection is shut down, which trips the
      shard-side cooperative cancel;
    - {e failover}: when every launched leg has failed, the next replica
      in the owner chain is tried — for non-idempotent ops only if the
      failure was connect-level (no request escaped); all replicas down
      yields a typed [unavailable] error;
    - {e warming}: ["warm"] requests and the auto-warm hook queue
      precomputes, pushed to the owning shard only while no client
      forward is in flight; shards in turn compute them only while
      their pools are idle. *)

type shard = { name : string; socket : string }

type config = {
  socket : string;  (** the proxy's own listening socket *)
  shards : shard list;
  replication : int;  (** R: length of each key's owner chain (default 2) *)
  vnodes : int;  (** virtual nodes per shard on the ring *)
  hedge_after_s : float option;
      (** fixed hedge deadline; [None] = adaptive from observed latency *)
  hedge_floor_s : float;  (** adaptive deadline never drops below this *)
  rpc_timeout_s : float;  (** per-forward socket timeout *)
  attempts : int;  (** retry budget per forwarding leg *)
  base_delay_s : float;  (** backoff base, as in {!Moard_server.Client} *)
  max_delay_s : float;  (** backoff cap *)
  warm_auto : bool;
      (** on a freshly computed advf response, queue the benchmark's
          sibling registry objects for warming *)
  seed : int;  (** seeds the retry-jitter stream *)
  sock : Moard_chaos.Sock.t;
      (** inter-node socket shims; {!Moard_chaos.Chaos.internode_sock}
          under chaos, real syscalls in production *)
  partitioned : string -> bool;
      (** chaos hook: shard names currently unreachable from the proxy *)
}

val default_config : shards:shard list -> config
(** socket ["moard-cluster.sock"], R=2, 64 vnodes, adaptive hedging
    floored at 50 ms, 600 s forward timeout, 4 attempts with 50 ms→1 s
    backoff, auto-warm on, seed 0, real sockets, no partitions. *)

type t

val start : config -> t
(** Bind and serve; returns immediately.
    @raise Invalid_argument on an empty shard list or bad replication.
    @raise Unix.Unix_error if the socket cannot be bound. *)

val stop : t -> unit
(** Graceful drain, idempotent: stop accepting, finish in-flight
    connections, stop the warm pusher, unlink the socket. *)

val run : config -> unit
(** {!start}, install SIGTERM/SIGINT handlers, block until drained. *)

(**/**)

val routing_key : Moard_server.Jsonx.t -> string
(** Exposed for tests: the placement key of a request. *)
