module Bitval = Moard_bits.Bitval
module Ps = Moard_bits.Patternset
module Event = Moard_trace.Event
module Tape = Moard_trace.Tape
module Data_object = Moard_trace.Data_object
module Types = Moard_ir.Types
module I = Moard_ir.Instr

type fate =
  | Same
  | Trap of Moard_vm.Trap.t
  | Outputs of (int * Moard_bits.Bitval.t * Moard_ir.Types.t) list
  | Unknown

(* Combined contamination-cell budget across all bits; past it every
   still-undecided bit falls back to a real injection. Mirrors the spirit
   of the propagation shadow cap: a huge contaminated set means the cheap
   model has lost the plot. *)
let cell_cap = 256

(* One contaminated register: per-bit mask of which replayed bits hold a
   corrupted value in it, and that value per bit. *)
type rcell = {
  cframe : int;
  creg : int;
  mutable rmask : Ps.t;
  rvals : Bitval.t array;
}

(* One contaminated memory cell, keyed by (address, access size). The
   value is kept exactly as the store operand; loads reinterpret it the
   way [Memory.load] would. *)
type mcell = {
  maddr : int;
  msize : int;
  mutable mty : Types.t;
  mutable mmask : Ps.t;
  mvals : Bitval.t array;
}

(* Static per-instruction facts for the packed-tape prescreen, interned
   per distinct instruction (the tape shares one boxed instr across all
   its dynamic occurrences). *)
type iinfo = {
  op_regs : int array; (* operand slot -> register, -1 for imm/glob *)
  dest : int; (* static destination register, -1 *)
  icls : int; (* 0 = ordinary, 1 = ret, 2 = br *)
}

let info_of cache instr =
  match Hashtbl.find_opt cache instr with
  | Some i -> i
  | None ->
    let ops = I.reads instr in
    let op_regs =
      Array.of_list
        (List.map (function I.Reg r -> r | I.Imm _ | I.Glob _ -> -1) ops)
    in
    let dest = match I.writes instr with Some d -> d | None -> -1 in
    let icls =
      match instr with I.Ret _ -> 1 | I.Br _ -> 2 | _ -> 0
    in
    let i = { op_regs; dest; icls } in
    Hashtbl.replace cache instr i;
    i

let size_mask = function
  | 1 -> 0xFFL
  | 4 -> 0xFFFF_FFFFL
  | _ -> -1L

let addr_of v = Int64.to_int (Bitval.to_int64 v)

type st = {
  tape : Tape.t;
  outputs : Data_object.t list;
  gmem : Gmem.t;
  fates : fate array;
  mutable live : Ps.t;
  mutable rcells : rcell list;
  mutable mcells : mcell list;
  mutable ncells : int;
}

let find_reg st ~frame ~reg =
  List.find_opt (fun c -> c.cframe = frame && c.creg = reg) st.rcells

let overlapping st ~addr ~size =
  List.filter
    (fun c -> c.maddr < addr + size && addr < c.maddr + c.msize)
    st.mcells

let compact st =
  st.rcells <- List.filter (fun c -> not (Ps.is_empty c.rmask)) st.rcells;
  st.mcells <- List.filter (fun c -> not (Ps.is_empty c.mmask)) st.mcells;
  st.ncells <- List.length st.rcells + List.length st.mcells

(* Bits whose last contaminated cell just died converge to the golden
   run: fate Same. *)
let settle st =
  compact st;
  let u =
    List.fold_left (fun acc c -> Ps.union acc c.mmask)
      (List.fold_left (fun acc c -> Ps.union acc c.rmask) Ps.empty st.rcells)
      st.mcells
  in
  let gone = Ps.diff st.live u in
  Ps.iter (fun b -> st.fates.(b) <- Same) gone;
  st.live <- u

let strip st mask =
  List.iter (fun c -> c.rmask <- Ps.diff c.rmask mask) st.rcells;
  List.iter (fun c -> c.mmask <- Ps.diff c.mmask mask) st.mcells

let finalize st mask fate =
  let mask = Ps.inter mask st.live in
  if not (Ps.is_empty mask) then begin
    Ps.iter (fun b -> st.fates.(b) <- fate) mask;
    st.live <- Ps.diff st.live mask;
    strip st mask
  end

let fresh_vals () = Array.make 64 (Bitval.zero Bitval.W64)

(* Set register (frame, reg) to [v] for bit [b] — unless the register is
   never read after [pos], in which case the contamination is stillborn. *)
let set_reg st ~pos ~frame ~reg b v =
  if Tape.last_reg_read st.tape ~frame ~reg > pos then begin
    let c =
      match find_reg st ~frame ~reg with
      | Some c -> c
      | None ->
        let c =
          { cframe = frame; creg = reg; rmask = Ps.empty; rvals = fresh_vals () }
        in
        st.rcells <- c :: st.rcells;
        st.ncells <- st.ncells + 1;
        c
    in
    c.rmask <- Ps.add c.rmask b;
    c.rvals.(b) <- v
  end

let kill_reg_mask st ~frame ~reg mask =
  match find_reg st ~frame ~reg with
  | Some c -> c.rmask <- Ps.diff c.rmask mask
  | None -> ()

let in_outputs st addr =
  List.exists (fun o -> Data_object.contains o addr) st.outputs

(* The value a load of type [ty] would observe from a cell's stored
   image: exactly [Memory.store] then [Memory.load] at equal size. *)
let reinterpret ty (v : Bitval.t) = Bitval.make (Types.width ty) v.Bitval.bits

let step st ~pos (e : Event.t) =
  let frame = e.frame in
  let nslots = Array.length e.reads in
  let slot_cell = Array.make nslots None in
  List.iteri
    (fun slot op ->
      match op with
      | I.Reg r -> slot_cell.(slot) <- find_reg st ~frame ~reg:r
      | I.Imm _ | I.Glob _ -> ())
    (I.reads e.instr);
  let dirty =
    Array.fold_left
      (fun acc c ->
        match c with Some c -> Ps.union acc c.rmask | None -> acc)
      Ps.empty slot_cell
  in
  let value_at slot b =
    match slot_cell.(slot) with
    | Some c when Ps.mem c.rmask b -> c.rvals.(b)
    | _ -> e.reads.(slot).Event.value
  in
  (match e.instr with
  | I.Br _ -> ()
  | I.Load (_, ty, _) -> (
    let sz = Types.size ty in
    (* Lanes whose address register is corrupted load from a redirected
       address: a wild address is an exact trap, an in-range one reads
       the injected run's memory there — this walk's own contaminated
       cells first, the golden-memory timeline otherwise. *)
    let redirected = ref Ps.empty in
    let redir_vals = ref [||] in
    (match slot_cell.(0) with
    | None -> ()
    | Some c ->
      Ps.iter
        (fun b ->
          let addr' = addr_of c.rvals.(b) in
          if addr' <> e.load_addr then
            match Gmem.probe st.gmem ty addr' with
            | Error trap -> finalize st (Ps.singleton b) (Trap trap)
            | Ok () ->
              let own = overlapping st ~addr:addr' ~size:sz in
              let mixed =
                List.exists
                  (fun mc ->
                    (not (mc.maddr = addr' && mc.msize = sz))
                    && Ps.mem mc.mmask b)
                  own
              in
              let v =
                if mixed then None
                else
                  match
                    List.find_opt
                      (fun mc -> mc.maddr = addr' && mc.msize = sz)
                      own
                  with
                  | Some mc when Ps.mem mc.mmask b ->
                    Some (reinterpret ty mc.mvals.(b))
                  | _ -> Gmem.value_at st.gmem ~pos ty addr'
              in
              (match v with
              | None -> finalize st (Ps.singleton b) Unknown
              | Some v ->
                if Array.length !redir_vals = 0 then
                  redir_vals := fresh_vals ();
                !redir_vals.(b) <- v;
                redirected := Ps.add !redirected b))
        (Ps.inter c.rmask st.live));
    let redirected = !redirected in
    let exact = ref None in
    List.iter
      (fun c ->
        if c.maddr = e.load_addr && c.msize = sz then exact := Some c
        else
          (* Partially overlapping view: the load mixes corrupted and
             clean bytes — ground truth only. A redirected lane does not
             perform this load, so it is unaffected. *)
          finalize st (Ps.diff c.mmask redirected) Unknown)
      (overlapping st ~addr:e.load_addr ~size:sz);
    match e.write with
    | Event.Wreg { frame = wf; reg = wr; value = clean } ->
      let loaded_mask =
        match !exact with
        | Some c -> Ps.diff (Ps.inter c.mmask st.live) redirected
        | None -> Ps.empty
      in
      let redirected = Ps.inter redirected st.live in
      kill_reg_mask st ~frame:wf ~reg:wr
        (Ps.diff st.live (Ps.union loaded_mask redirected));
      Ps.iter
        (fun b ->
          let c = Option.get !exact in
          let v = reinterpret ty c.mvals.(b) in
          if Bitval.equal v clean then kill_reg_mask st ~frame:wf ~reg:wr (Ps.singleton b)
          else set_reg st ~pos ~frame:wf ~reg:wr b v)
        loaded_mask;
      Ps.iter
        (fun b ->
          let v = !redir_vals.(b) in
          if Bitval.equal v clean then
            kill_reg_mask st ~frame:wf ~reg:wr (Ps.singleton b)
          else set_reg st ~pos ~frame:wf ~reg:wr b v)
        redirected
    | Event.Wmem _ | Event.Wnone -> ())
  | I.Store (ty, _, _) -> (
    match e.write with
    | Event.Wmem { addr; value = clean; ty = _ } ->
      let sz = Types.size ty in
      let smask = size_mask sz in
      (* Lanes whose address register is corrupted store somewhere else:
         a wild address is an exact trap; an in-range one leaves [addr]
         holding the injected run's prior content (the golden store never
         happens there) and clobbers [addr'] instead. *)
      let redirected = ref Ps.empty in
      let redir_addr = Array.make 64 0 in
      (if nslots > 1 then
         match slot_cell.(1) with
         | None -> ()
         | Some c ->
           Ps.iter
             (fun b ->
               let addr' = addr_of c.rvals.(b) in
               if addr' <> addr then
                 match Gmem.probe st.gmem ty addr' with
                 | Error trap -> finalize st (Ps.singleton b) (Trap trap)
                 | Ok () ->
                   redir_addr.(b) <- addr';
                   redirected := Ps.add !redirected b)
             (Ps.inter c.rmask st.live));
      let redirected = !redirected in
      let exact = ref None in
      List.iter
        (fun c ->
          if c.maddr = addr && c.msize = sz then exact := Some c
          else if c.maddr >= addr && c.maddr + c.msize <= addr + sz then begin
            (* Fully overwritten by this store: corruption at this view is
               gone (any corrupted bytes written here are tracked by the
               store's own cell below). A redirected lane instead leaves
               the cell intact while the golden run overwrites around it —
               mixed coverage this cell shape cannot express. *)
            finalize st (Ps.inter c.mmask redirected) Unknown;
            c.mmask <- Ps.empty
          end
          else
            (* Partial overlap: bytes mix — ground truth only. *)
            finalize st c.mmask Unknown)
        (overlapping st ~addr ~size:sz);
      let contaminated = ref Ps.empty in
      let vals = ref [||] in
      let put b v =
        if Array.length !vals = 0 then vals := fresh_vals ();
        !vals.(b) <- v;
        contaminated := Ps.add !contaminated b
      in
      Ps.iter
        (fun b ->
          let v = value_at 0 b in
          if
            not
              (Int64.equal
                 (Int64.logand v.Bitval.bits smask)
                 (Int64.logand clean.Bitval.bits smask))
          then put b v)
        (Ps.diff st.live redirected);
      (* Missing store: a redirected lane keeps the injected run's prior
         content at [addr] — contaminated against the golden [clean]
         unless the two coincide. *)
      Ps.iter
        (fun b ->
          if Ps.mem st.live b then
            let prior =
              match !exact with
              | Some c when Ps.mem c.mmask b -> Some c.mvals.(b)
              | _ -> Gmem.value_at st.gmem ~pos ty addr
            in
            match prior with
            | None -> finalize st (Ps.singleton b) Unknown
            | Some v ->
              if
                not
                  (Int64.equal
                     (Int64.logand v.Bitval.bits smask)
                     (Int64.logand clean.Bitval.bits smask))
              then put b v)
        redirected;
      let keep =
        (not (Ps.is_empty !contaminated))
        && (Tape.last_mem_read st.tape ~addr > pos || in_outputs st addr)
      in
      (match !exact with
      | Some c ->
        if keep then begin
          c.mmask <- !contaminated;
          c.mty <- ty;
          Ps.iter (fun b -> c.mvals.(b) <- !vals.(b)) !contaminated
        end
        else c.mmask <- Ps.empty
      | None ->
        if keep then begin
          let c =
            {
              maddr = addr;
              msize = sz;
              mty = ty;
              mmask = !contaminated;
              mvals = !vals;
            }
          in
          st.mcells <- c :: st.mcells;
          st.ncells <- st.ncells + 1
        end);
      (* Misdirected store: the value a redirected lane writes at [addr']
         diverges the injected run's memory there from the golden run's,
         which never stores at [addr'] at this step. *)
      Ps.iter
        (fun b ->
          if Ps.mem st.live b then begin
            let addr' = redir_addr.(b) in
            let v = value_at 0 b in
            List.iter
              (fun c ->
                if
                  (not (c.maddr = addr' && c.msize = sz))
                  && Ps.mem c.mmask b
                then
                  if c.maddr >= addr' && c.maddr + c.msize <= addr' + sz
                  then
                    (* this lane's view fully overwritten by its store *)
                    c.mmask <- Ps.remove c.mmask b
                  else finalize st (Ps.singleton b) Unknown)
              (overlapping st ~addr:addr' ~size:sz);
            if Ps.mem st.live b then begin
              let differs =
                match Gmem.value_at st.gmem ~pos ty addr' with
                | Some gv ->
                  not
                    (Int64.equal
                       (Int64.logand v.Bitval.bits smask)
                       (Int64.logand gv.Bitval.bits smask))
                | None -> true (* unknown golden content: assume it does *)
              in
              let cexact =
                List.find_opt
                  (fun c -> c.maddr = addr' && c.msize = sz)
                  st.mcells
              in
              if
                differs
                && (Tape.last_mem_read st.tape ~addr:addr' > pos
                   || in_outputs st addr')
              then begin
                let c =
                  match cexact with
                  | Some c -> c
                  | None ->
                    let c =
                      {
                        maddr = addr';
                        msize = sz;
                        mty = ty;
                        mmask = Ps.empty;
                        mvals = fresh_vals ();
                      }
                    in
                    st.mcells <- c :: st.mcells;
                    st.ncells <- st.ncells + 1;
                    c
                in
                c.mty <- ty;
                c.mmask <- Ps.add c.mmask b;
                c.mvals.(b) <- v
              end
              else
                match cexact with
                | Some c -> c.mmask <- Ps.remove c.mmask b
                | None -> ()
            end
          end)
        redirected
    | Event.Wreg _ | Event.Wnone -> ())
  | I.Call _ when e.callee_frame >= 0 ->
    (* Corrupted arguments contaminate the callee's parameter registers;
       the caller's registers stay contaminated and die by liveness. *)
    Array.iteri
      (fun slot _ ->
        match slot_cell.(slot) with
        | Some c ->
          Ps.iter
            (fun b ->
              set_reg st ~pos ~frame:e.callee_frame ~reg:slot b c.rvals.(b))
            (Ps.inter c.rmask st.live)
        | None -> ())
      e.reads
  | I.Ret _ -> (
    match e.write with
    | Event.Wreg { frame = wf; reg = wr; value = clean } ->
      kill_reg_mask st ~frame:wf ~reg:wr (Ps.diff st.live dirty);
      Ps.iter
        (fun b ->
          let v = value_at 0 b in
          if Bitval.equal v clean then
            kill_reg_mask st ~frame:wf ~reg:wr (Ps.singleton b)
          else set_reg st ~pos ~frame:wf ~reg:wr b v)
        (Ps.inter dirty st.live)
    | Event.Wmem _ | Event.Wnone -> ())
  | _ ->
    (* Value-computing operation (or a conditional branch): recompute per
       dirty bit with the bit's corrupted view of the operands. *)
    let clean_o = Reexec.clean_out e in
    let scratch = Array.map (fun (r : Event.read) -> r.Event.value) e.reads in
    (match e.write with
    | Event.Wreg { frame = wf; reg = wr; _ } ->
      kill_reg_mask st ~frame:wf ~reg:wr (Ps.diff st.live dirty)
    | Event.Wmem _ | Event.Wnone -> ());
    Ps.iter
      (fun b ->
        for slot = 0 to nslots - 1 do
          scratch.(slot) <- value_at slot b
        done;
        match (Reexec.recompute e scratch, clean_o) with
        | Reexec.Rtrap trap, _ -> finalize st (Ps.singleton b) (Trap trap)
        | Reexec.Rctl taken', Reexec.Rctl taken ->
          if taken' <> taken then finalize st (Ps.singleton b) Unknown
        | Reexec.Rreg v', Reexec.Rreg v -> (
          match e.write with
          | Event.Wreg { frame = wf; reg = wr; _ } ->
            if Bitval.equal v' v then
              kill_reg_mask st ~frame:wf ~reg:wr (Ps.singleton b)
            else set_reg st ~pos ~frame:wf ~reg:wr b v'
          | Event.Wmem _ | Event.Wnone -> ())
        | _, _ -> ())
      (Ps.inter dirty st.live));
  settle st

let run ~gmem ~tape ~outputs ~start ~seeds () =
  let st =
    {
      tape;
      outputs;
      gmem;
      fates = Array.make 64 Same;
      live = Ps.empty;
      rcells = [];
      mcells = [];
      ncells = 0;
    }
  in
  (* Seed: the site operation already executed with the corrupted operand
     (that is what makes these bits "changed"); its output is the initial
     contamination. *)
  List.iter
    (fun (b, (seed : Masking.changed_out)) ->
      st.live <- Ps.add st.live b;
      match seed with
      | Masking.To_reg { frame; reg; value } ->
        set_reg st ~pos:start ~frame ~reg b value
      | Masking.To_mem { addr; value; ty } ->
        let sz = Types.size ty in
        if Tape.last_mem_read tape ~addr > start || in_outputs st addr then begin
          let c =
            match
              List.find_opt
                (fun c -> c.maddr = addr && c.msize = sz)
                st.mcells
            with
            | Some c -> c
            | None ->
              let c =
                {
                  maddr = addr;
                  msize = sz;
                  mty = ty;
                  mmask = Ps.empty;
                  mvals = fresh_vals ();
                }
              in
              st.mcells <- c :: st.mcells;
              st.ncells <- st.ncells + 1;
              c
          in
          c.mmask <- Ps.add c.mmask b;
          c.mvals.(b) <- value
        end)
    seeds;
  settle st;
  let icache = Hashtbl.create 64 in
  let len = Tape.length tape in
  let pos = ref (start + 1) in
  while (not (Ps.is_empty st.live)) && !pos < len do
    let p = !pos in
    let instr = Tape.instr_at tape p in
    let info = info_of icache instr in
    let touch =
      match info.icls with
      | 2 -> false (* unconditional branch: reads nothing, writes nothing *)
      | 1 -> st.rcells <> [] (* ret: parent-frame write not derivable statically *)
      | _ ->
        let frame = Tape.frame_at tape p in
        let reg_hit r = r >= 0 && find_reg st ~frame ~reg:r <> None in
        let ops_hit = ref false in
        Array.iter (fun r -> if reg_hit r then ops_hit := true) info.op_regs;
        !ops_hit
        || reg_hit info.dest
        || (st.mcells <> []
           &&
           let la = Tape.load_addr_at tape p and wa = Tape.write_addr_at tape p in
           let hit a =
             a >= 0
             && List.exists
                  (fun c -> c.maddr < a + 8 && a < c.maddr + c.msize)
                  st.mcells
           in
           hit la || hit wa)
    in
    if touch then step st ~pos:p (Tape.get tape p);
    if st.ncells > cell_cap then finalize st st.live Unknown;
    incr pos
  done;
  (* Tape end: surviving contamination matters only where it is observed —
     the output objects. *)
  Ps.iter
    (fun b ->
      let patches =
        List.filter_map
          (fun c ->
            if Ps.mem c.mmask b && in_outputs st c.maddr then
              Some (c.maddr, c.mvals.(b), c.mty)
            else None)
          st.mcells
      in
      st.fates.(b) <- (match patches with [] -> Same | ps -> Outputs ps))
    st.live;
  st.fates
