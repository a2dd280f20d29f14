module Machine = Moard_vm.Machine
module Fault = Moard_vm.Fault
module Tape = Moard_trace.Tape
module Consume = Moard_trace.Consume
module Bitval = Moard_bits.Bitval
module Pattern = Moard_bits.Pattern

type key = {
  k_iid : Moard_ir.Iid.t;
  k_kind : int;          (* slot number, or -1 for store destination *)
  k_reads : int64 array; (* operand bit images of the dynamic instruction *)
  k_bits : int list;     (* bits flipped by the pattern *)
}

type t = {
  w : Workload.t;
  machine : Machine.t;
  tape : Tape.t;
  gmem : Moard_analysis.Gmem.t;
  golden_bits : int64 array;
  golden_floats : float array;
  golden_steps : int;
  out_objs : (Moard_trace.Data_object.t * int) list;
      (* output objects with their start index in the golden vectors *)
  cache : (key, Outcome.t) Hashtbl.t;
  mutable runs : int;
  mutable hits : int;
  mutable ckpt : (int * Machine.checkpoint) option;
      (* most recent golden-state checkpoint, keyed by event index *)
  mutable inject_work : int;
      (* dynamic instructions executed by injections and checkpoint builds *)
  buf : Moard_vm.Memory.t;
      (* the memory every injected run of this shard executes in; a run's
         contents are read only by [classify], before the next run *)
}

let observe_mem machine (w : Workload.t) mem =
  let bits = ref [] and floats = ref [] in
  List.iter
    (fun name ->
      let g = Moard_ir.Program.global w.program name in
      match g.Moard_ir.Program.gty with
      | Moard_ir.Types.F64 ->
        let a = Machine.read_f64s machine mem name in
        Array.iter
          (fun x ->
            bits := Int64.bits_of_float x :: !bits;
            floats := x :: !floats)
          a
      | Moard_ir.Types.I64 | Moard_ir.Types.Ptr ->
        let a = Machine.read_i64s machine mem name in
        Array.iter
          (fun x ->
            bits := x :: !bits;
            floats := Int64.to_float x :: !floats)
          a
      | Moard_ir.Types.I32 | Moard_ir.Types.I1 ->
        let a = Machine.read_i32s machine mem name in
        Array.iter
          (fun x ->
            bits := Int64.of_int32 x :: !bits;
            floats := Int32.to_float x :: !floats)
          a)
    w.outputs;
  (Array.of_list (List.rev !bits), Array.of_list (List.rev !floats))

(* Process-wide count of golden (traced) executions, across all domains:
   the observable the pipeline benchmark uses to prove a parallel analysis
   runs the workload once, not once per domain. *)
let goldens = Atomic.make 0
let golden_executions () = Atomic.get goldens

let make (w : Workload.t) =
  let machine = Machine.load w.program in
  List.iter
    (fun name ->
      match Moard_ir.Program.global w.program name with
      | (_ : Moard_ir.Program.global) -> ()
      | exception Not_found ->
        invalid_arg ("Context.make: no global named " ^ name))
    (w.targets @ w.outputs);
  Atomic.incr goldens;
  let r, tape =
    Machine.trace ~step_limit:w.step_limit ~harts:w.harts machine
      ~entry:w.entry
  in
  (match r.Machine.outcome with
  | Machine.Finished _ -> ()
  | Machine.Trapped trap ->
    invalid_arg
      (Printf.sprintf "Context.make: golden run of %s trapped: %s" w.name
         (Moard_vm.Trap.to_string trap)));
  let golden_bits, golden_floats = observe_mem machine w r.Machine.mem in
  let out_objs =
    List.rev
      (fst
         (List.fold_left
            (fun (acc, start) name ->
              let o = Machine.object_of machine name in
              ((o, start) :: acc, start + o.Moard_trace.Data_object.elems))
            ([], 0) w.outputs))
  in
  {
    w;
    machine;
    tape;
    gmem = Moard_analysis.Gmem.build ~tape ~image:(Machine.image machine);
    golden_bits;
    golden_floats;
    golden_steps = r.Machine.steps;
    out_objs;
    cache = Hashtbl.create 4096;
    runs = 0;
    hits = 0;
    ckpt = None;
    inject_work = 0;
    buf = Moard_vm.Memory.copy (Machine.image machine);
  }

(* Shards run on different domains, so each owns its run buffer. Many
   never touch the outcome table (`Model.analyze` injects through
   {!inject} and keeps its own memo), so it starts small and grows on
   demand. *)
let shard t =
  {
    t with
    cache = Hashtbl.create 16;
    runs = 0;
    hits = 0;
    ckpt = None;
    inject_work = 0;
    buf = Moard_vm.Memory.copy (Machine.image t.machine);
  }

let workload t = t.w
let machine t = t.machine
let tape t = t.tape
let gmem t = t.gmem
let golden_floats t = t.golden_floats
let golden_steps t = t.golden_steps
let object_of t name = Machine.object_of t.machine name
let segment t fn = Workload.in_segment t.w fn

let observe t mem = observe_mem t.machine t.w mem

let classify t (r : Machine.run) =
  match r.Machine.outcome with
  | Machine.Trapped trap -> Outcome.Crashed trap
  | Machine.Finished _ ->
    let bits, floats = observe t r.Machine.mem in
    if
      Array.length bits = Array.length t.golden_bits
      && Array.for_all2 Int64.equal bits t.golden_bits
    then Outcome.Same
    else if t.w.accept ~golden:t.golden_floats ~faulty:floats then
      Outcome.Acceptable
    else Outcome.Incorrect

exception Unpatchable

let classify_patched t patches =
  match patches with
  | [] -> Some Outcome.Same
  | _ -> (
    let bits = Array.copy t.golden_bits in
    let floats = Array.copy t.golden_floats in
    try
      List.iter
        (fun (addr, (v : Bitval.t), ty) ->
          let rec find = function
            | [] -> raise Unpatchable
            | (o, start) :: rest -> (
              match Moard_trace.Data_object.elem_of_addr o addr with
              | Some e -> (o, start + e)
              | None -> find rest)
          in
          let o, idx = find t.out_objs in
          let gty = o.Moard_trace.Data_object.ty in
          if Moard_ir.Types.size ty <> Moard_ir.Types.size gty then
            raise Unpatchable;
          (* Mirror [observe_mem] over a store/load round trip of [v] at
             the cell, per element type. *)
          match gty with
          | Moard_ir.Types.F64 ->
            let x = Int64.float_of_bits v.Bitval.bits in
            bits.(idx) <- Int64.bits_of_float x;
            floats.(idx) <- x
          | Moard_ir.Types.I64 | Moard_ir.Types.Ptr ->
            bits.(idx) <- v.Bitval.bits;
            floats.(idx) <- Int64.to_float v.Bitval.bits
          | Moard_ir.Types.I32 ->
            let x = Int64.to_int32 v.Bitval.bits in
            bits.(idx) <- Int64.of_int32 x;
            floats.(idx) <- Int32.to_float x
          | Moard_ir.Types.I1 ->
            let x = Int64.to_int32 (Int64.logand v.Bitval.bits 1L) in
            bits.(idx) <- Int64.of_int32 x;
            floats.(idx) <- Int32.to_float x)
        patches;
      Some
        (if Array.for_all2 Int64.equal bits t.golden_bits then Outcome.Same
         else if t.w.accept ~golden:t.golden_floats ~faulty:floats then
           Outcome.Acceptable
         else Outcome.Incorrect)
    with Unpatchable -> None)

(* A resumed injection skips the prefix both runs share: execution before
   the fault event is byte-identical to the golden run, so restarting from
   a golden-state checkpoint at that event is exact. The checkpoint slot
   caches the most recent fault event — lane sweeps of one site amortize
   one prefix execution across every lane they must ground-truth. *)
(* A slightly stale checkpoint is still exact — the resumed run replays
   the fault-free gap before the fault fires — and for clusters of nearby
   sites it saves rebuilding a near-identical prefix. The window bounds
   the per-run replay waste at a fraction of one prefix execution. *)
let ckpt_reuse_window = 256

let checkpoint_for t at =
  match t.ckpt with
  | Some (i, cp) when i <= at && at - i <= ckpt_reuse_window -> cp
  | _ ->
    let cp =
      Machine.checkpoint ~step_limit:t.w.step_limit ~harts:t.w.harts t.machine
        ~entry:t.w.entry ~at
    in
    t.inject_work <- t.inject_work + at;
    t.ckpt <- Some (at, cp);
    cp

let inject ?(resume = false) t fault =
  t.runs <- t.runs + 1;
  let r =
    if resume then begin
      let at = Fault.idx fault in
      let cp = checkpoint_for t at in
      let base = Machine.checkpoint_at cp in
      let r =
        Machine.run ~step_limit:t.w.step_limit ~fault ~from:cp ~into:t.buf
          t.machine ~entry:t.w.entry
      in
      t.inject_work <- t.inject_work + (r.Machine.steps - base);
      r
    end
    else begin
      let r =
        Machine.run ~step_limit:t.w.step_limit ~fault ~harts:t.w.harts
          ~into:t.buf t.machine ~entry:t.w.entry
      in
      t.inject_work <- t.inject_work + r.Machine.steps;
      r
    end
  in
  classify t r

let fault_of_site (site : Consume.t) pattern =
  match site.Consume.kind with
  | Consume.Read { slot } -> Fault.read ~idx:site.Consume.event_idx ~slot pattern
  | Consume.Store_dest -> Fault.store_dest ~idx:site.Consume.event_idx pattern

let key_of t (site : Consume.t) pattern =
  let e = Tape.get t.tape site.Consume.event_idx in
  {
    k_iid = e.Moard_trace.Event.iid;
    k_kind =
      (match site.Consume.kind with
      | Consume.Read { slot } -> slot
      | Consume.Store_dest -> -1);
    k_reads =
      Array.map
        (fun (r : Moard_trace.Event.read) -> (r.value : Bitval.t).bits)
        e.Moard_trace.Event.reads;
    k_bits = Pattern.bits_of pattern;
  }

type ekey = key

let ekey = key_of

let inject_at ?(use_cache = true) ?(resume = false) t site pattern =
  if not use_cache then inject ~resume t (fault_of_site site pattern)
  else
    let key = key_of t site pattern in
    match Hashtbl.find_opt t.cache key with
    | Some outcome ->
      t.hits <- t.hits + 1;
      outcome
    | None ->
      let outcome = inject ~resume t (fault_of_site site pattern) in
      Hashtbl.replace t.cache key outcome;
      outcome

let runs t = t.runs
let cache_hits t = t.hits
let inject_steps t = t.inject_work
