module Verdict = Moard_analysis.Verdict
module Errmodel = Moard_bits.Errmodel

type report = {
  object_name : string;
  involvements : int;
  masking_events : float;
  advf : float;
  by_level : float array;
  by_kind : float array;
  patterns_analyzed : int;
  op_resolved : int;
  prop_resolved : int;
  fi_resolved : int;
  unresolved : int;
  fi_runs : int;
  fi_cache_hits : int;
  verdict_cache_hits : int;
}

type stage = Op | Prop | Fi | Cached | Gave_up

(* Masking weights are accumulated as exact rationals: integer numerators
   over the model's fixed denominator [Errmodel.weight_den] (every
   per-involvement weight is 1/lanes and lanes divides the denominator).
   Integer sums are order-independent, so the batched kernel's bulk
   absorption and the scalar per-pattern stream produce bit-identical
   accumulators for every error model — not just the dyadic single-bit
   case. *)
type t = {
  object_name : string;
  den : int;
  mutable involvements : int;
  mutable events_num : int;
  level_num : int array;    (* per level, numerators of fractional masking *)
  kind_num : int array;     (* per kind at operation+propagation levels *)
  mutable patterns : int;
  mutable op_n : int;
  mutable prop_n : int;
  mutable fi_n : int;
  mutable cached_n : int;
  mutable gave_up : int;
}

let create ?(model = Errmodel.Single_bit) object_name =
  {
    object_name;
    den = Errmodel.weight_den model;
    involvements = 0;
    events_num = 0;
    level_num = Array.make 3 0;
    kind_num = Array.make 4 0;
    patterns = 0;
    op_n = 0;
    prop_n = 0;
    fi_n = 0;
    cached_n = 0;
    gave_up = 0;
  }

let add_involvement t = t.involvements <- t.involvements + 1

let count_stage t ~stage count =
  t.patterns <- t.patterns + count;
  match stage with
  | Op -> t.op_n <- t.op_n + count
  | Prop -> t.prop_n <- t.prop_n + count
  | Fi -> t.fi_n <- t.fi_n + count
  | Cached -> t.cached_n <- t.cached_n + count
  | Gave_up -> t.gave_up <- t.gave_up + count

let add_num t ~num verdict =
  match (verdict : Verdict.t) with
  | Verdict.Not_masked -> ()
  | Verdict.Masked (level, kind) ->
    t.events_num <- t.events_num + num;
    let li = Verdict.level_index level in
    t.level_num.(li) <- t.level_num.(li) + num;
    if level <> Verdict.Algorithm then begin
      let ki = Verdict.kind_index kind in
      t.kind_num.(ki) <- t.kind_num.(ki) + num
    end

let add_pattern t ~lanes ~stage verdict =
  if lanes <= 0 || t.den mod lanes <> 0 then
    invalid_arg "Advf.add_pattern: lanes does not divide the model denominator";
  count_stage t ~stage 1;
  add_num t ~num:(t.den / lanes) verdict

let add_pattern_set t ~lanes ~stage ~count verdict =
  if count < 0 then invalid_arg "Advf.add_pattern_set: count";
  if lanes <= 0 || t.den mod lanes <> 0 then
    invalid_arg
      "Advf.add_pattern_set: lanes does not divide the model denominator";
  if count > 0 then begin
    count_stage t ~stage count;
    add_num t ~num:(t.den / lanes * count) verdict
  end

let report t ~fi_runs ~fi_cache_hits =
  let m = float_of_int (max t.involvements 1) in
  let den = float_of_int t.den in
  (* For single-bit accumulation [num /. den] is an exact dyadic division,
     so the totals are bit-identical to the historical float stream. *)
  let events num = float_of_int num /. den in
  let total = events t.events_num in
  {
    object_name = t.object_name;
    involvements = t.involvements;
    masking_events = total;
    advf = total /. m;
    by_level = Array.init 3 (fun i -> events t.level_num.(i) /. m);
    by_kind = Array.init 4 (fun i -> events t.kind_num.(i) /. m);
    patterns_analyzed = t.patterns;
    op_resolved = t.op_n;
    prop_resolved = t.prop_n;
    fi_resolved = t.fi_n;
    unresolved = t.gave_up;
    fi_runs;
    fi_cache_hits;
    verdict_cache_hits = t.cached_n;
  }

let pp_report ppf (r : report) =
  Format.fprintf ppf
    "@[<v>%s: aDVF = %.4f (%d involvements, %.1f masking events)@,\
     levels: operation %.4f | propagation %.4f | algorithm %.4f@,\
     kinds (op+prop): overwrite %.4f | logic/cmp %.4f | overshadow %.4f | \
     other %.4f@,\
     resolution: op %d, propagation %d, fi %d, cached %d-hit, unresolved %d \
     (%d fi runs, %d fi cache hits)@]"
    r.object_name r.advf r.involvements r.masking_events r.by_level.(0)
    r.by_level.(1) r.by_level.(2) r.by_kind.(0) r.by_kind.(1) r.by_kind.(2)
    r.by_kind.(3) r.op_resolved r.prop_resolved r.fi_resolved
    r.verdict_cache_hits r.unresolved r.fi_runs r.fi_cache_hits

let merge (reports : report list) =
  match reports with
  | [] -> invalid_arg "Advf.merge: empty"
  | first :: _ ->
    List.iter
      (fun (r : report) ->
        if not (String.equal r.object_name first.object_name) then
          invalid_arg "Advf.merge: object names differ")
      reports;
    let sum (f : report -> int) =
      List.fold_left (fun acc r -> acc + f r) 0 reports
    in
    let sumf (f : report -> float) =
      List.fold_left (fun acc r -> acc +. f r) 0.0 reports
    in
    let m = sum (fun r -> r.involvements) in
    let fm = float_of_int (max m 1) in
    (* per-subset fractions are normalized by subset involvements; undo
       that weighting before renormalizing over the union *)
    let weighted proj =
      sumf (fun r -> proj r *. float_of_int r.involvements) /. fm
    in
    {
      object_name = first.object_name;
      involvements = m;
      masking_events = sumf (fun r -> r.masking_events);
      advf = weighted (fun r -> r.advf);
      by_level = Array.init 3 (fun t -> weighted (fun r -> r.by_level.(t)));
      by_kind = Array.init 4 (fun t -> weighted (fun r -> r.by_kind.(t)));
      patterns_analyzed = sum (fun r -> r.patterns_analyzed);
      op_resolved = sum (fun r -> r.op_resolved);
      prop_resolved = sum (fun r -> r.prop_resolved);
      fi_resolved = sum (fun r -> r.fi_resolved);
      unresolved = sum (fun r -> r.unresolved);
      fi_runs = sum (fun r -> r.fi_runs);
      fi_cache_hits = sum (fun r -> r.fi_cache_hits);
      verdict_cache_hits = sum (fun r -> r.verdict_cache_hits);
    }
