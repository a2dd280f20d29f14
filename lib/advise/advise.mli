(** The resilience advisor — closes the loop from measurement to
    protection (ROADMAP item 5; the paper's §VII ABFT case study).

    Three deterministic stages, all derived from one seeded design:

    + {b Rank}: a stratified campaign measures each target object's
      aDVF; objects are ordered by expected SDC contribution
      [(1 - aDVF) x size_bytes x access_rate], where the access rate is
      the object's read-consumption site density over the golden trace
      (sites / golden steps). The aDVF estimate here is the masking
      fraction, so [1 - aDVF] is the fraction of consumed corruptions
      that end in a wrong or crashed outcome.
    + {b Protect}: {!Moard_opt.Protect.candidates} generates every
      applicable protection plan (ABFT checksums, duplication with
      compare, address clamps, and the clamp+dwc combination); each is
      applied as an IR transform and checked behaviour-preserving on the
      fault-free run (bit-identical outputs, identical traps) before any
      measurement — a plan that fails the oracle fails the whole run.
    + {b Measure}: each protected variant runs the same seeded campaign
      (its plan carries the protection id as the {!Moard_campaign.Plan.t}
      variant tag, so journals and store keys never collide with the
      unprotected ones). Residual vulnerability, the reduction factor
      and the instruction-count overhead (protected / unprotected golden
      steps) form a Pareto front per object, with the unprotected
      program as the implicit [(vulnerability, 1.0)] point. *)

type plan_outcome = {
  plan : Moard_opt.Protect.plan;
  id : string;             (** {!Moard_opt.Protect.plan_id} *)
  advf : float;            (** residual masking fraction *)
  lo : float;
  hi : float;              (** its confidence interval *)
  vulnerability : float;   (** [1 - advf] *)
  reduction : float;       (** baseline vulnerability / max(residual, 1e-12) *)
  golden_steps : int;      (** protected golden-trace length *)
  overhead : float;        (** protected / unprotected golden steps *)
  samples : int;
  runs : int;
  pareto : bool;           (** on the (vulnerability, overhead) front *)
}

type object_advice = {
  object_name : string;
  bytes : int;
  sites : int;
  population : int;
  advf : float;
  lo : float;
  hi : float;
  vulnerability : float;
  access_rate : float;     (** sites / golden steps *)
  contribution : float;    (** vulnerability x bytes x access_rate *)
  recommended : string option;
      (** Pareto plan with the largest reduction (ties: lowest overhead);
          [None] when no plan beats the unprotected program *)
  plans : plan_outcome list;  (** candidate order of {!Moard_opt.Protect.candidates} *)
}

type t = {
  workload_name : string;
  model : Moard_bits.Errmodel.t;
  seed : int;
  confidence : float;
  ci_width : float;
  base_steps : int;        (** unprotected golden-trace length *)
  objects : object_advice list;  (** descending expected SDC contribution *)
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
  ?objects:string list ->
  Moard_inject.Workload.t ->
  t
(** Rank, protect and measure. [objects] defaults to the workload's
    target objects. Defaults mirror {!Moard_campaign.Plan.make}:
    single-bit model, seed 42, 95% confidence, 0.02 target half-width,
    no sample cap. Deterministic per (workload, parameters) — neither
    [domains] nor [batch] changes a byte of the result, since campaigns
    are domain-count invariant and the batched kernel is exact.
    [cancel] is polled at engine batch boundaries
    ({!Moard_chaos.Cancel.Cancelled} propagates; nothing is returned).
    @raise Invalid_argument if an object is unknown or has no fault sites
    @raise Failure if a generated plan fails the fault-free differential
    oracle (a transform bug — never expected) *)
