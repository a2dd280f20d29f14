(** A campaign plan: the frozen sampling design a campaign executes.

    Built once from a golden-run context, a plan fixes, per target object,
    the stratified fault-site population and — through one seeded
    Fisher-Yates shuffle per stratum ({!Moard_chaos.Rng}) — the complete
    without-replacement sampling order. Everything downstream (the engine,
    the journal, resume) is a deterministic function of [(seed, plan)],
    which is what makes campaigns bit-reproducible across domain counts
    and kill/resume boundaries. *)

type stratum = {
  label : string;
  population : int;
  members : int array;  (** encoded (site, bit), enumeration order *)
  order : int array;
      (** sampling order: sample [k] of the stratum is
          [members.(order.(k))] *)
}

type objective = {
  object_name : string;
  sites : Moard_trace.Consume.t array;
  population : int;
  strata : stratum array;
}

type t = {
  workload_name : string;
  variant : string;
      (** protection-plan tag of a transformed program variant (e.g.
          ["C:dwc"]); [""] = the unprotected program. Distinguishes
          journals and store keys of protected-variant campaigns. *)
  model : Moard_bits.Errmodel.t;  (** error model the members sample *)
  harts : int;  (** hart count of the workload's golden run *)
  seed : int;
  confidence : float;
  z : float;          (** z quantile matching [confidence] *)
  ci_width : float;   (** target half-width of the combined interval *)
  batch : int;        (** samples resolved between stopping checks *)
  max_samples : int;  (** per-object cap; -1 = none *)
  objectives : objective array;
}

val make :
  ?variant:string ->
  ?model:Moard_bits.Errmodel.t ->
  ?seed:int ->
  ?confidence:float ->
  ?ci_width:float ->
  ?batch:int ->
  ?max_samples:int ->
  Moard_inject.Context.t ->
  objects:string list ->
  t
(** Enumerate populations from the context's golden tape and freeze the
    sampling orders. Defaults: single-bit error model, seed 42,
    confidence 0.95, ci_width 0.02 (the paper's ±2% methodology),
    batch 64, no sample cap, empty variant tag.
    @raise Invalid_argument on an empty object list, an unknown object, an
    object with no fault sites, or an unsupported confidence level. *)

val sample_member : objective -> stratum:int -> index:int -> int * int
(** [(site_index, lane)] of the [index]-th sample of a stratum under the
    frozen order. *)

val allocate : budget:int -> int array -> int array
(** [allocate ~budget remaining]: split a sample budget over strata
    proportionally to their remaining (unsampled) populations, by largest
    remainder. The result sums to [min budget (sum remaining)] and never
    exceeds any stratum's remaining population. Deterministic. *)

val hash : t -> string
(** 64-bit FNV-1a over a canonical serialization of the plan (parameters,
    strata, members), as 16 hex digits. Stable across processes and OCaml
    versions; journals are bound to it. The error model contributes to
    the hash only when it is not [Single_bit], so journals written before
    error models existed still resolve; the hart count likewise
    contributes only when it is not 1 (a multi-hart program's text and
    site populations are hart-count independent, so the hash must carry
    the distinction explicitly). The variant tag contributes only when
    non-empty, for the same backward compatibility. *)
