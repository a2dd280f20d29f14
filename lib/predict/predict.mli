(** Two-level cross-input-size aDVF extrapolation.

    Running a fault-injection campaign at a production input size is
    exactly what resilience studies cannot afford; what they can afford
    is campaigns at a few small sizes plus golden runs anywhere. The
    predictor exploits the structure the campaign engine already
    stratifies by: a stratum (static-instruction slot class × bit class)
    has outcome rates that are stable across input sizes, while input
    size only moves how many dynamic fault sites each stratum holds.

    Level 1 ({!Fit}) pools each stratum's injection outcomes across the
    training sizes into one binomial rate per outcome class, with a
    Wilson interval. Level 2 ({!Growth}) fits each stratum's
    count-vs-size curve from the training populations (golden-run
    enumeration — no injection at the target). The prediction at the
    target size is the population-weighted combination of the fitted
    rates under the extrapolated weights, with the conservative
    weighted-endpoint interval
    ({!Moard_stats.Confidence.combine_weighted}).

    Determinism: for fixed inputs and parameters the result (and hence
    the report payload) is byte-stable — training campaigns are
    bit-reproducible, strata combine in enumeration order, and only
    [fit_seconds] varies between runs. *)

type refusal =
  | Too_few_sizes of int
  | Empty_population
      (** the object has no fault sites at any training size *)
  | No_predicted_population of int
      (** every stratum's growth curve predicts 0 at the target *)
  | Unobserved_weight of float
      (** more than {!unobserved_cap} of the predicted population falls
          in strata with zero training samples — the level-1 assumption
          has nothing to stand on *)

exception Refused of refusal
(** An extrapolation the model declines to make. Distinct from
    [Invalid_argument] (caller errors): a refusal depends on what the
    training campaigns observed. *)

val refusal_message : refusal -> string
val unobserved_cap : float

val canonical_sizes : int list -> int list
(** Sort and deduplicate training sizes — the canonical form used in
    store keys and reports.
    @raise Refused [Too_few_sizes] if fewer than 2 distinct sizes remain.
    @raise Invalid_argument on a size [<= 0]. *)

type class_prediction = {
  rate : float;
  interval : Moard_stats.Confidence.interval;
}

type stratum_prediction = {
  label : string;
  counts : (int * int) list;  (** (training size, population) ascending *)
  samples : int;
  successes : int;
  predicted_count : float;  (** extrapolated population at the target *)
  growth : string;          (** {!Growth.kind_name} of the fitted curve *)
  exponent : float;
  weight : float;           (** predicted_count / total predicted *)
  masked : class_prediction;
  sdc : class_prediction;
  crashed : class_prediction;
}

type t = {
  object_name : string;
  workload_name : string;
  model : Moard_bits.Errmodel.t;
  seed : int;
  confidence : float;
  ci_width : float;
  max_samples : int;
  sizes : int list;                 (** training sizes, ascending *)
  target : int;
  populations : (int * int) list;   (** (size, fault-site population) *)
  predicted_population : float;
  samples : int;                    (** pooled over training campaigns *)
  runs : int;
  cache_hits : int;
  unobserved_weight : float;
  advf : float;                     (** predicted masking rate at target *)
  advf_ci : Moard_stats.Confidence.interval;
  sdc : float;
  sdc_ci : Moard_stats.Confidence.interval;
  crashed : float;
  crashed_ci : Moard_stats.Confidence.interval;
  strata : stratum_prediction array;
  fit_seconds : float;  (** perf only — never part of the stable payload *)
}

val run :
  ?model:Moard_bits.Errmodel.t ->
  ?seed:int ->
  ?confidence:float ->
  ?ci_width:float ->
  ?max_samples:int ->
  ?domains:int ->
  ?batch:bool ->
  ?cancel:Moard_chaos.Cancel.t ->
  workloads:(int * Moard_inject.Workload.t) list ->
  object_name:string ->
  target:int ->
  unit ->
  t
(** Train one campaign per [(size, workload)] pair and extrapolate to
    [target]. Defaults match {!Moard_campaign.Plan.make}: single-bit
    model, seed 42, confidence 0.95, ci_width 0.02, no sample cap;
    [domains] defaults to 1, [batch] (batched resolution) to [true]
    — neither changes a single byte of the result. A training size where
    the object has no fault sites counts as a zero-population
    observation, not an error. If a target size happens to equal a
    training size, its observed populations are used verbatim
    ({!Growth.predict}), so predicting at a training size reproduces the
    fitted estimate exactly.
    @raise Refused when the model declines (see {!refusal}).
    @raise Moard_chaos.Cancel.Cancelled if [cancel] tripped — a partial
    fit is never returned.
    @raise Invalid_argument on [target <= 0], duplicate training sizes,
    or fewer than two workloads. *)
