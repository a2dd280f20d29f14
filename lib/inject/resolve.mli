(** Batched resolution of one consumption site: the injection outcome of
    every pattern of an error model, in one call.

    Composes the lane-parallel masking kernel
    ({!Moard_analysis.Masking.analyze_all}) with the vectorized
    replay-to-end ({!Moard_analysis.Vreplay}, fed the golden-memory
    timeline so corrupted addresses resolve without running) and falls
    back to real, cached injections ({!Context.inject_at}) for the lanes
    neither can decide (control divergence, unresolvable accesses). The
    result is outcome-identical to injecting every pattern individually —
    which the differential tests assert on the whole Table-I registry —
    while typically executing the workload for only a small fraction of
    the patterns. *)

val site :
  ?model:Moard_bits.Errmodel.t ->
  ?lanes:Moard_bits.Patternset.t ->
  Context.t -> Moard_trace.Consume.t ->
  Outcome.t array
(** Outcomes indexed by lane of [model] (default [Single_bit], where lane
    [i] is the single-bit pattern flipping bit [i]). Length is
    [Errmodel.lanes model width] of the site. [lanes] (default: the full
    set) restricts resolution to a subset — the campaign engine's sampled
    lanes — so no work (in particular no fallback injection) is spent on
    lanes outside it; entries outside [lanes] are meaningless. *)
