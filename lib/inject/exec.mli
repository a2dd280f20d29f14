(** The one executor of fault injections on OCaml 5 domains. Drivers
    decide on the calling domain, in a deterministic order, which
    injections to run and hand them here as units. An injection is a
    pure function of its fault on the frozen golden state, so the
    results do not depend on the domain count. *)

val cap_domains : int -> int
(** A domain count clamped to [\[1, Domain.recommended_domain_count ()\]],
    for counts that come from outside (the command line, a request
    field): a pool wider than the host only time-slices the runs. *)

val run :
  ?cancel:Moard_chaos.Cancel.t -> domains:int -> Context.t ->
  (int -> Context.t -> 'a -> 'b) -> 'a array -> 'b array
(** [run ~domains ctx f units] maps [f w ctx' u] over [units] on
    [d = min domains (Array.length units)] workers (at least one) and
    returns the results in unit order; [w] is the worker that runs the
    unit and [ctx'] its context. Worker 0 is the calling domain on [ctx]
    itself, so one worker spawns nothing; every other worker is a
    spawned domain on its own {!Context.shard}. [cancel] is checked
    before every unit; an exception from any worker is re-raised once
    all have stopped. *)
