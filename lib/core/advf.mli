(** The aDVF metric (paper §III-B).

    For every consumption (involvement) of an element of the target data
    object, f(x_i) = (number of masked error patterns) / (number of error
    patterns); aDVF = sum of f over all involvements / involvement count.
    The accumulator also keeps the level and kind decompositions behind
    Figures 4 and 5 and the absolute masking-event counts behind
    evaluation conclusion 2.

    Weights accumulate as exact rationals — integer numerators over the
    error model's common denominator ({!Moard_bits.Errmodel.weight_den}) —
    so scalar and batched accumulation orders are bit-identical for every
    error model, and the single-bit totals reproduce the historical dyadic
    float stream exactly. *)

type t
(** Mutable accumulator. *)

type report = {
  object_name : string;
  involvements : int;       (** m: element references in the code segment *)
  masking_events : float;   (** total (fractional) error-masking events *)
  advf : float;             (** in [0, 1] *)
  by_level : float array;
      (** contribution of each {!Moard_analysis.Verdict.level} to aDVF
          (sums to aDVF) *)
  by_kind : float array;
      (** contribution of each {!Moard_analysis.Verdict.kind} at the
          operation and error propagation levels (Figure 5's
          decomposition) *)
  patterns_analyzed : int;
  op_resolved : int;        (** patterns settled by operation-level analysis *)
  prop_resolved : int;      (** settled by propagation replay *)
  fi_resolved : int;        (** settled by deterministic fault injection *)
  unresolved : int;         (** abandoned (fault-injection budget exhausted) *)
  fi_runs : int;
  fi_cache_hits : int;
  verdict_cache_hits : int;
}

type stage = Op | Prop | Fi | Cached | Gave_up

val create : ?model:Moard_bits.Errmodel.t -> string -> t
(** [model] (default [Single_bit]) fixes the weight denominator. *)

val add_involvement : t -> unit

val add_pattern :
  t -> lanes:int -> stage:stage -> Moard_analysis.Verdict.t -> unit
(** One pattern of an involvement with [lanes] patterns: weight
    [1 / lanes], added exactly.
    @raise Invalid_argument if [lanes] does not divide the accumulator
    model's denominator. *)

val add_pattern_set : t -> lanes:int -> stage:stage -> count:int ->
  Moard_analysis.Verdict.t -> unit
(** Absorb [count] patterns sharing one verdict and stage in O(1) — the
    popcount fast path of the batched kernel. Bit-identical to [count]
    calls of {!add_pattern} by construction (integer numerators).
    @raise Invalid_argument on a negative count or non-dividing [lanes]. *)

val absorb : t -> t -> unit
(** [absorb t other] folds [other]'s accumulated state into [t] — the
    online counterpart of {!merge}: verdict streams accumulated separately
    (e.g. per consumption-site shard) combine into exactly the sums a
    single accumulator fed the concatenated stream would hold, because
    every field is a plain sum. [other] is unchanged.
    @raise Invalid_argument if the object names or denominators differ. *)

val report :
  t -> fi_runs:int -> fi_cache_hits:int -> report

val merge : report list -> report
(** Combine reports over disjoint consumption-site subsets of the same
    data object into the whole-object report (involvement-weighted).
    @raise Invalid_argument on an empty list or mismatched object names. *)

val pp_report : Format.formatter -> report -> unit
