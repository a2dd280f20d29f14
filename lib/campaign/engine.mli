(** The statistical fault-injection campaign engine (paper §V's validation
    methodology, industrialized).

    Executes a {!Plan}: samples each object's stratified fault-site
    population without replacement in the plan's frozen order, resolves
    batches of injections across OCaml 5 domains over one shared golden
    run ({!Moard_inject.Exec}), deduplicates by error-equivalence
    class (cache hits count as resolved samples), journals every batch,
    and stops per object as soon as the combined Wilson interval around
    the masking estimate is narrower than the plan's target.

    Reproducibility: for a fixed [(seed, plan)], the sequence of samples,
    the journal contents and every count and estimate in the result are
    bit-identical for any [domains] value and across any kill/resume
    chain. Injections are pure functions of the fault; equivalence-class
    deduplication happens in the coordinator (not in per-shard caches), so
    partitioning cannot change which class member defines an outcome.
    Only [perf] (wall-clock) varies between runs. *)

val code_of_outcome : Moard_inject.Outcome.t -> int
(** Stable outcome encoding: 0 same, 1 acceptable, 2 incorrect,
    3 crashed — what the journal records. *)

val code_names : string array
val success_code : int -> bool
(** Masked (tolerated): same or acceptable. *)

type stop_reason =
  | Ci_target    (** combined interval reached the target half-width *)
  | Exhausted    (** every stratum fully sampled: the estimate is exact *)
  | Max_samples  (** plan's per-object sample cap *)
  | Interrupted  (** [max_batches] harness bound hit (testing only) *)

val stop_reason_name : stop_reason -> string

type stratum_result = {
  label : string;
  population : int;
  samples : int;
  successes : int;
  by_code : int array;
      (** sample counts per outcome code within the stratum (sums to
          [samples]); what the cross-size predictor fits its per-stratum
          masked/SDC/crash rates from. Not part of the stable JSON. *)
  lo : float;
  hi : float;
  exhausted : bool;
}

type object_result = {
  object_name : string;
  population : int;   (** fault-site population (sites × bits) *)
  sites : int;
  samples : int;      (** resolved samples (runs + cache hits) *)
  runs : int;         (** actual program executions *)
  cache_hits : int;   (** samples resolved by error equivalence *)
  by_code : int array;  (** sample counts per outcome code *)
  estimate : float;   (** stratified masking-rate estimate *)
  lo : float;
  hi : float;
  halfwidth : float;
  stopped : stop_reason;
  strata : stratum_result array;
}

type perf = {
  wall_seconds : float;
  inject_seconds : float;   (** time inside injection batches *)
  per_domain_runs : int array;
}

type result = {
  plan_hash : string;
  workload_name : string;
  model : Moard_bits.Errmodel.t;  (** the plan's error model *)
  seed : int;
  confidence : float;
  ci_width : float;
  domains : int;
  objects : object_result array;
  perf : perf;  (** the only non-deterministic part of a result *)
}

val run :
  ?domains:int ->
  ?batch:bool ->
  ?journal:string ->
  ?journal_meta:(string * string) list ->
  ?max_batches:int ->
  ?should_stop:(unit -> bool) ->
  ?cancel:Moard_chaos.Cancel.t ->
  ?fx:Moard_chaos.Fx.t ->
  Moard_inject.Context.t ->
  Plan.t ->
  result
(** Execute a campaign. [domains] (default 1) workers resolve each
    batch's distinct injections on {!Moard_inject.Exec.run}; the count is
    used as given (a caller taking it from outside clamps it with
    {!Moard_inject.Exec.cap_domains}). [batch] (default
    [true]) resolves each site's sampled bits through the batched masking
    kernel ({!Moard_inject.Resolve.site}), executing the workload only for
    the bits it cannot decide; outcome codes, journal contents and every
    count/estimate in the result are identical either way (the [runs] /
    [cache_hits] split counts distinct equivalence classes, not machine
    executions, so it too is unchanged). [journal] starts a fresh
    journal at the path (truncating); [journal_meta] adds extra header
    pairs (e.g. the registry benchmark name, so the CLI can resume without
    being told it again). [max_batches] is the bounded-step testing
    harness: stop after that many batches, leaving the journal mid-flight.
    [should_stop] is polled between batches (the daemon's graceful-drain
    hook): when it returns [true] the engine stops at the batch boundary —
    every resolved batch already committed to the journal — and marks the
    remaining objectives [Interrupted]. [cancel] is polled at the same
    boundary and behaves exactly like [should_stop] returning [true]: the
    committed prefix survives, the result says [Interrupted], the journal
    (if any) can resume — cooperative cancellation never tears campaign
    state. [fx] routes journal I/O (chaos injection); computation itself
    is unaffected. *)

val resume :
  ?domains:int ->
  ?batch:bool ->
  ?max_batches:int ->
  ?should_stop:(unit -> bool) ->
  ?cancel:Moard_chaos.Cancel.t ->
  ?fx:Moard_chaos.Fx.t ->
  journal:string ->
  Moard_inject.Context.t ->
  Plan.t ->
  result
(** Replay a journal and continue to completion. The final result is
    bit-identical to an uninterrupted {!run} of the same plan.
    @raise Journal.Rejected if the journal's schema version or plan hash
    does not match, or its records contradict the plan. *)
