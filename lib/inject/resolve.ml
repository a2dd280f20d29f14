module Bitval = Moard_bits.Bitval
module Errmodel = Moard_bits.Errmodel
module Ps = Moard_bits.Patternset
module Tape = Moard_trace.Tape
module Consume = Moard_trace.Consume
module Masking = Moard_analysis.Masking
module Vreplay = Moard_analysis.Vreplay

let outputs_of ctx =
  List.map (Context.object_of ctx) (Context.workload ctx).Workload.outputs

let site ?(model = Errmodel.Single_bit) ?lanes ctx (s : Consume.t) =
  let e = Tape.get (Context.tape ctx) s.Consume.event_idx in
  let v = Masking.analyze_all ~model e s.Consume.kind in
  let n = v.Masking.lanes in
  let wanted =
    match lanes with None -> Ps.full_n ~n | Some b -> b
  in
  let out = Array.make n Outcome.Same in
  (* Lanes no analysis can decide, in resolution order. Injected last:
     once it is known how many lanes of this site need ground truth, two
     or more amortize one golden-state checkpoint at the site across
     every resumed run ({!Context.inject_at} [~resume]). *)
  let pending = ref [] in
  let inject_later b = pending := b :: !pending in
  (* Operation-masked: the injected run is the golden run. *)
  (* Certain traps: the consuming operation itself crashes the run. *)
  Ps.iter
    (fun b -> out.(b) <- Outcome.Crashed (Masking.trap_of_lane v b))
    (Ps.inter v.Masking.crash wanted);
  (* Control divergence at the site: ground truth only. *)
  Ps.iter inject_later (Ps.inter v.Masking.divergent wanted);
  (* Changed: replay all wanted lanes to the end of the tape in one walk. *)
  let changed = Ps.inter v.Masking.changed wanted in
  if not (Ps.is_empty changed) then begin
    let seeds =
      Ps.fold (fun b acc -> (b, Masking.changed_out v b) :: acc) changed []
    in
    let fates =
      Vreplay.run ~gmem:(Context.gmem ctx) ~tape:(Context.tape ctx)
        ~outputs:(outputs_of ctx) ~start:s.Consume.event_idx ~seeds ()
    in
    Ps.iter
      (fun b ->
        match fates.(b) with
        | Vreplay.Same -> out.(b) <- Outcome.Same
        | Vreplay.Trap trap -> out.(b) <- Outcome.Crashed trap
        | Vreplay.Outputs patches -> (
          match Context.classify_patched ctx patches with
          | Some o -> out.(b) <- o
          | None -> inject_later b)
        | Vreplay.Unknown -> inject_later b)
      changed
  end;
  let pending = List.rev !pending in
  let resume = match pending with _ :: _ :: _ -> true | _ -> false in
  List.iter
    (fun b ->
      out.(b) <-
        Context.inject_at ~resume ctx s
          (Errmodel.pattern_at model v.Masking.width b))
    pending;
  out
