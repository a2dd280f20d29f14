(** The MOARD model driver (paper Fig. 3).

    For each consumption of the target data object in the golden trace and
    each error pattern, the driver runs the three-stage inference:

    + operation-level analysis ({!Masking}),
    + bounded error-propagation replay ({!Propagation}, k operations),
    + deterministic fault injection ({!Moard_inject.Context}) for whatever
      the first two stages leave unresolved,

    then folds the verdicts into the aDVF accumulator. Verdicts are
    memoized by error equivalence (static instruction, operand values,
    site, pattern), on top of the injector's own outcome cache. *)

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
  ?options:options -> ?site_filter:(int -> bool) ->
  ?cancel:Moard_chaos.Cancel.t ->
  Moard_inject.Context.t -> object_name:string -> Advf.report
(** [site_filter] keeps only the consumption sites whose index in the
    enumeration order passes — the partitioning hook of the parallel
    driver ({!Moard_parallel}); a report over a subset is merged with its
    peers via {!Advf.merge}. [cancel] is checked before each site:
    a tripped or expired token raises {!Moard_chaos.Cancel.Cancelled},
    so a timed-out daemon request frees its worker instead of sweeping
    the remaining sites (no partial report escapes — the exception is
    the only observable). *)

val analyze_targets :
  ?options:options -> Moard_inject.Context.t -> Advf.report list
(** One report per target data object declared by the workload. *)
