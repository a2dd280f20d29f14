module Bitval = Moard_bits.Bitval
module Pattern = Moard_bits.Pattern
module Errmodel = Moard_bits.Errmodel
module Ps = Moard_bits.Patternset
module Event = Moard_trace.Event
module Consume = Moard_trace.Consume
module I = Moard_ir.Instr
module Semantics = Moard_vm.Semantics

type t =
  | Masked of Verdict.kind
  | Changed of { out : changed_out; overshadow : bool }
  | Crash_certain of Moard_vm.Trap.t
  | Divergent

and changed_out =
  | To_reg of { frame : int; reg : int; value : Moard_bits.Bitval.t }
  | To_mem of { addr : int; value : Moard_bits.Bitval.t; ty : Moard_ir.Types.t }

(* The scalar rule: [r] is what the operation produces with [corrupt] in
   slot [slot], [clean] what it produced in the golden run. Shared by the
   one-pattern entry point, the per-lane kernel and the scalar walk, so
   the three agree by construction. *)
let classify (e : Event.t) ~slot ~clean ~(corrupt : Bitval.t) r =
  match (r, clean) with
  | Reexec.Rtrap trap, _ -> Crash_certain trap
  | Reexec.Rctl taken', Reexec.Rctl taken ->
    if taken = taken' then Masked Verdict.Logic_cmp else Divergent
  | Reexec.Rreg v', Reexec.Rreg v ->
    if Bitval.equal v' v then Masked (Reexec.exact_mask_kind e.instr ~slot)
    else (
      match e.write with
      | Event.Wreg { frame; reg; _ } ->
        Changed
          {
            out = To_reg { frame; reg; value = v' };
            overshadow = Reexec.overshadow_candidate e ~slot ~corrupt;
          }
      | Event.Wmem _ | Event.Wnone ->
        invalid_arg "Masking.analyze: register result without a register write")
  | Reexec.Rmem (addr', v', ty), Reexec.Rmem (addr, v, _) ->
    if addr' <> addr then
      (* Only possible when the address operand itself carried the
         element; treat as a wild store needing ground truth. *)
      Divergent
    else if Bitval.equal v' v then
      Masked (Reexec.exact_mask_kind e.instr ~slot)
    else
      Changed
        {
          out = To_mem { addr; value = v'; ty };
          overshadow = Reexec.overshadow_candidate e ~slot ~corrupt;
        }
  | (Reexec.Rload _ | Reexec.Rcall | Reexec.Rret _ | Reexec.Rnone), _ ->
    invalid_arg "Masking.analyze: not a consuming operation"
  | _, _ -> invalid_arg "Masking.analyze: output shape mismatch"

let check_read_site (e : Event.t) ~slot =
  if not (Consume.consuming_event e) then
    invalid_arg "Masking.analyze: not a consuming operation";
  if slot < 0 || slot >= Array.length e.reads then
    invalid_arg "Masking.analyze: slot out of range"

let analyze (e : Event.t) kind pattern =
  match (kind : Consume.kind) with
  | Consume.Store_dest ->
    (* The store writes a new value over the corrupted element: value
       overwriting, whatever the corrupted bit (paper §III-C (1)).
       Read-modify-write stores never reach this case — the model
       delegates them to the statement's deriving read (see {!Derive}). *)
    Masked Verdict.Overwrite
  | Consume.Read { slot } ->
    check_read_site e ~slot;
    let values = Array.map (fun (r : Event.read) -> r.value) e.reads in
    let corrupt = Pattern.apply pattern values.(slot) in
    values.(slot) <- corrupt;
    classify e ~slot ~clean:(Reexec.clean_out e) ~corrupt
      (Reexec.recompute e values)

(* ------------------------------------------------------------------ *)
(* Batched evaluation of a whole error-model pattern set.              *)

type verdicts = {
  width : Moard_bits.Bitval.width;
  model : Errmodel.t;
  lanes : int;
  masked : Ps.t;
  mask_kind : Verdict.kind;
  crash : Ps.t;
  traps : (int * Moard_vm.Trap.t) list;
  divergent : Ps.t;
  changed : Ps.t;
  out_where : changed_out option;
  out_bits : Bytes.t;
  overshadow : Ps.t;
}

(* Sort lanes [0, n) into verdict sets by the scalar verdict of each. *)
let collect ~width ~model ~n ~mask_kind verdict =
  let masked = ref Ps.empty
  and crash = ref Ps.empty
  and divergent = ref Ps.empty
  and changed = ref Ps.empty
  and overshadow = ref Ps.empty
  and traps = ref []
  and out_where = ref None
  and out_bits = Bytes.create (8 * n) in
  for lane = 0 to n - 1 do
    match verdict lane with
    | Masked _ -> masked := Ps.add !masked lane
    | Crash_certain t ->
      crash := Ps.add !crash lane;
      traps := (lane, t) :: !traps
    | Divergent -> divergent := Ps.add !divergent lane
    | Changed { out; overshadow = o } ->
      changed := Ps.add !changed lane;
      if !out_where = None then out_where := Some out;
      let (To_reg { value; _ } | To_mem { value; _ }) = out in
      Bytes.set_int64_ne out_bits (8 * lane) value.Bitval.bits;
      if o then overshadow := Ps.add !overshadow lane
  done;
  {
    width;
    model;
    lanes = n;
    masked = !masked;
    mask_kind;
    crash = !crash;
    traps = List.rev !traps;
    divergent = !divergent;
    changed = !changed;
    out_where = !out_where;
    out_bits;
    overshadow = !overshadow;
  }

let site_width (e : Event.t) (kind : Consume.kind) =
  match kind with
  | Consume.Store_dest -> (
    match e.instr with
    | I.Store (ty, _, _) -> Moard_ir.Types.width ty
    | _ -> invalid_arg "Masking: store destination of a non-store")
  | Consume.Read { slot } ->
    check_read_site e ~slot;
    (e.reads.(slot).Event.value : Bitval.t).width

(* The scalar walk, kept solely as the differential oracle: {!analyze}
   on every lane's pattern. The batched path must never take it — every
   consuming opcode has a per-lane kernel below — and the process-wide
   counter makes the claim observable. *)
let scan_calls = Atomic.make 0
let scan_executions () = Atomic.get scan_calls

let scan ~model (e : Event.t) kind ~width ~n ~mask_kind =
  Atomic.incr scan_calls;
  collect ~width ~model ~n ~mask_kind (fun lane ->
      analyze e kind (Errmodel.pattern_at model width lane))

(* The per-lane kernel of a read site: the operation's own Semantics with
   the corrupted operand substituted in the slot, one call per lane. No
   event re-materialization, no generic re-execution dispatch. *)
let kernel_of (e : Event.t) ~slot =
  let v i = e.reads.(i).Event.value in
  let pick i c = if i = slot then c else v i in
  match e.instr with
  | I.Ibin (_, op, ty, _, _) when Array.length e.reads = 2 ->
    Some
      (fun c ->
        match Semantics.ibin op ty (pick 0 c) (pick 1 c) with
        | Ok r -> Reexec.Rreg r
        | Error trap -> Reexec.Rtrap trap)
  | I.Fbin (_, op, _, _) when Array.length e.reads = 2 ->
    Some (fun c -> Reexec.Rreg (Semantics.fbin op (pick 0 c) (pick 1 c)))
  | I.Icmp (_, op, _, _, _) when Array.length e.reads = 2 ->
    Some (fun c -> Reexec.Rreg (Semantics.icmp op (pick 0 c) (pick 1 c)))
  | I.Fcmp (_, op, _, _) when Array.length e.reads = 2 ->
    Some (fun c -> Reexec.Rreg (Semantics.fcmp op (pick 0 c) (pick 1 c)))
  | I.Cast (_, cst, _) when Array.length e.reads = 1 ->
    Some (fun c -> Reexec.Rreg (Semantics.cast cst c))
  | I.Gep (_, _, _, scale) when Array.length e.reads = 2 ->
    Some (fun c -> Reexec.Rreg (Semantics.gep (pick 0 c) (pick 1 c) scale))
  | I.Select _ when Array.length e.reads = 3 ->
    Some
      (fun c -> Reexec.Rreg (Semantics.select (pick 0 c) (pick 1 c) (pick 2 c)))
  | I.Store (ty, _, _) when Array.length e.reads = 2 ->
    Some
      (fun c ->
        Reexec.Rmem
          (Int64.to_int (Bitval.to_int64 (pick 1 c)), pick 0 c, ty))
  | I.Cbr (_, l1, l2) when Array.length e.reads = 1 ->
    Some (fun c -> Reexec.Rctl (if Bitval.to_bool c then l1 else l2))
  | I.Call (_, callee, _) when e.callee_frame < 0 ->
    Some
      (fun c ->
        let args =
          List.init (Array.length e.reads) (fun i -> pick i c)
        in
        match Semantics.intrinsic callee args with
        | Ok r -> Reexec.Rreg r
        | Error trap -> Reexec.Rtrap trap)
  | _ -> None

let analyze_all ?(model = Errmodel.Single_bit) (e : Event.t)
    (kind : Consume.kind) =
  let width = site_width e kind in
  let n = Errmodel.lanes model width in
  match kind with
  | Consume.Store_dest ->
    collect ~width ~model ~n ~mask_kind:Verdict.Overwrite (fun _ ->
        Masked Verdict.Overwrite)
  | Consume.Read { slot } -> (
    let mask_kind = Reexec.exact_mask_kind e.instr ~slot in
    match kernel_of e ~slot with
    | None -> scan ~model e kind ~width ~n ~mask_kind
    | Some k ->
      let clean = Reexec.clean_out e
      and a = (e.reads.(slot).Event.value : Bitval.t).Bitval.bits in
      collect ~width ~model ~n ~mask_kind (fun lane ->
          let corrupt =
            Bitval.make width
              (Int64.logxor a (Errmodel.flip_mask model width lane))
          in
          classify e ~slot ~clean ~corrupt (k corrupt)))

let changed_out_at ?(model = Errmodel.Single_bit) (e : Event.t) kind ~lane =
  match analyze e kind (Errmodel.pattern_at model (site_width e kind) lane) with
  | Changed { out; overshadow } -> (out, overshadow)
  | Masked _ | Crash_certain _ | Divergent ->
    invalid_arg "Masking.changed_out_at: not a changed lane"

(* Every changed lane of a site writes the same register or cell, so one
   output record and one unboxed image per lane keep them all: a site's
   verdicts stay alive while its lanes are replayed and injected, and a
   boxed output per lane would be promoted with them. *)
let changed_out v lane =
  let image w = Bitval.make w (Bytes.get_int64_ne v.out_bits (8 * lane)) in
  match v.out_where with
  | Some (To_reg r) when Ps.mem v.changed lane ->
    To_reg { r with value = image r.value.Bitval.width }
  | Some (To_mem m) when Ps.mem v.changed lane ->
    To_mem { m with value = image m.value.Bitval.width }
  | _ -> invalid_arg "Masking.changed_out: not a changed lane"

let trap_of_lane v lane =
  match List.assoc_opt lane v.traps with
  | Some t -> t
  | None -> invalid_arg "Masking.trap_of_lane: lane not in the crash set"
