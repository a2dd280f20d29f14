(** The MOARD model driver (paper Fig. 3).

    For each consumption of the target data object in the golden trace and
    each error pattern, the driver runs the three-stage inference:

    + operation-level analysis ({!Masking}),
    + bounded error-propagation replay ({!Propagation}, k operations),
    + deterministic fault injection ({!Moard_inject.Context}) for whatever
      the first two stages leave unresolved,

    then folds the verdicts into the aDVF accumulator. Verdicts and
    fault-injection outcomes are memoized by error equivalence (static
    instruction, operand values, site, pattern). *)

type options = {
  k : int;              (** propagation window; paper uses 50 *)
  shadow_cap : int;     (** contamination-set size that aborts the replay *)
  fi_budget : int;      (** max fault-injection executions; -1 = unlimited *)
  use_cache : bool;     (** error-equivalence memoization *)
  batch : bool;
      (** classify each site's whole error-model pattern set through the
          lane-parallel kernel ({!Moard_analysis.Masking.analyze_all}) and absorb the
          masked/crash sets by popcount, walking only changed/divergent
          lanes through propagation and fault injection. Reports are
          byte-identical to the scalar walk (the differential suite checks
          this); only wall-clock changes. *)
  model : Moard_bits.Errmodel.t;
      (** the error model whose pattern set is swept per involvement;
          default [Single_bit] *)
}

val default_options : options
(** k = 50, shadow_cap = 256, unlimited fault injection, cache on,
    batched kernel on, single-bit error model. *)

val analyze :
  ?options:options -> ?domains:int -> ?site_filter:(int -> bool) ->
  ?cancel:Moard_chaos.Cancel.t ->
  Moard_inject.Context.t -> object_name:string -> Advf.report
(** The calling domain walks the sites in scan order and decides every
    fault injection: the budget counts decided runs, and a memo owned by
    the call, keyed by {!Moard_inject.Context.ekey}, answers a whole
    equivalence class with one run. {!Moard_inject.Exec.run} runs the
    jobs on [domains] workers (default 1, used as given): on one, each
    job as soon as it is decided, on [ctx] itself; on several, in batches
    spanning sites. The walk never reads an outcome, so every report
    field is the same for any [domains]. [site_filter] keeps the
    sites whose enumeration index passes ({!Hart_split}'s partitions).
    [cancel] is checked before each site and each unit of injections: a
    tripped or expired token raises {!Moard_chaos.Cancel.Cancelled}, so a
    timed-out daemon request frees its worker instead of sweeping the
    remaining sites (no partial report escapes). *)

val analyze_targets :
  ?options:options -> Moard_inject.Context.t -> Advf.report list
(** One report per target data object declared by the workload. *)
