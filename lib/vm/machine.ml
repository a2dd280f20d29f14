module Bitval = Moard_bits.Bitval
module Pattern = Moard_bits.Pattern
module I = Moard_ir.Instr
module T = Moard_ir.Types
module P = Moard_ir.Program
module Event = Moard_trace.Event

(* Code is decoded once, at load. Every operand slot becomes a register
   index or a ready-made image (a global's operand is its address), every
   call names its resolved target, and every instruction carries its
   prebuilt static identity. The step loop then never looks anything up
   by name and fetches operands without allocating. *)
type callee =
  | Func of int  (* index into [t.funcs] *)
  | Hart_id
  | Hart_count
  | Barrier
  | Intrinsic of string
  | Missing of string  (* traps [No_function] when executed *)
  | Not_a_call

type dinstr = {
  instr : I.t;  (* as recorded on the tape *)
  iid : Moard_ir.Iid.t;
  op_reg : int array;  (* per read slot: source register, -1 for a constant *)
  op_imm : Bitval.t array;  (* per read slot: the constant's image *)
  callee : callee;
}

type dfunc = {
  fname : string;
  nparams : int;
  nregs : int;
  code : dinstr array array;  (* [code.(blk).(ip)] *)
}

type t = {
  prog : P.t;
  mem_bytes : int;
  bases : (string, int) Hashtbl.t;
  image : Memory.t;
  funcs : dfunc array;
  func_index : (string, int) Hashtbl.t;
}

type outcome =
  | Finished of Bitval.t option
  | Trapped of Trap.t

type run = {
  outcome : outcome;
  mem : Memory.t;
  steps : int;
}

let align8 n = (n + 7) land lnot 7

let init_global mem base (g : P.global) =
  let sz = T.size g.gty in
  let store i v = Memory.store_exn mem g.gty (base + (i * sz)) v in
  match g.ginit with
  | P.Zeros -> ()
  | P.Floats a ->
    if Array.length a <> g.gelems then
      invalid_arg ("Machine.load: init size mismatch for " ^ g.gname);
    Array.iteri (fun i f -> store i (Bitval.of_float f)) a
  | P.I64s a ->
    if Array.length a <> g.gelems then
      invalid_arg ("Machine.load: init size mismatch for " ^ g.gname);
    Array.iteri (fun i x -> store i (Bitval.of_int64 x)) a
  | P.I32s a ->
    if Array.length a <> g.gelems then
      invalid_arg ("Machine.load: init size mismatch for " ^ g.gname);
    Array.iteri (fun i x -> store i (Bitval.of_int32 x)) a

(* A user function shadows an intrinsic of the same name. *)
let resolve_callee func_index name =
  match Hashtbl.find_opt func_index name with
  | Some i -> Func i
  | None -> (
    match name with
    | "hart_id" -> Hart_id
    | "hart_count" -> Hart_count
    | "barrier" -> Barrier
    | _ ->
      if List.mem name Semantics.intrinsics then Intrinsic name
      else Missing name)

let decode_func bases func_index (f : P.func) =
  let decode blk ip instr =
    let ops = Array.of_list (I.reads instr) in
    {
      instr;
      iid = Moard_ir.Iid.make ~fn:f.P.fname ~blk ~ip;
      op_reg = Array.map (function I.Reg r -> r | I.Imm _ | I.Glob _ -> -1) ops;
      op_imm =
        Array.map
          (function
            | I.Reg _ -> Bitval.zero Bitval.W64
            | I.Imm v -> v
            | I.Glob g -> Bitval.of_int64 (Int64.of_int (Hashtbl.find bases g)))
          ops;
      callee =
        (match instr with
        | I.Call (_, name, _) -> resolve_callee func_index name
        | _ -> Not_a_call);
    }
  in
  {
    fname = f.P.fname;
    nparams = f.P.nparams;
    nregs = f.P.nregs;
    code = Array.mapi (fun blk b -> Array.mapi (decode blk) b) f.P.blocks;
  }

let load ?mem_bytes prog =
  Moard_ir.Validate.check_exn
    ~intrinsics:(Semantics.intrinsics @ Semantics.hart_intrinsics)
    prog;
  let bases = Hashtbl.create 32 in
  let next = ref (align8 Memory.null_guard) in
  List.iter
    (fun (g : P.global) ->
      Hashtbl.replace bases g.gname !next;
      next := align8 (!next + P.global_bytes g))
    prog.P.globals;
  let mem_bytes =
    match mem_bytes with
    | Some n ->
      if n < !next then invalid_arg "Machine.load: mem_bytes too small";
      n
    | None -> !next + 65536
  in
  let image = Memory.create ~bytes:mem_bytes in
  List.iter
    (fun (g : P.global) -> init_global image (Hashtbl.find bases g.gname) g)
    prog.P.globals;
  let func_index = Hashtbl.create 16 in
  List.iteri
    (fun i (f : P.func) ->
      if not (Hashtbl.mem func_index f.P.fname) then
        Hashtbl.add func_index f.P.fname i)
    prog.P.funcs;
  let funcs =
    Array.of_list (List.map (decode_func bases func_index) prog.P.funcs)
  in
  { prog; mem_bytes; bases; image; funcs; func_index }

let program t = t.prog
let image t = t.image

let base_of t name =
  match Hashtbl.find_opt t.bases name with
  | Some b -> b
  | None -> raise Not_found

let object_of t name =
  let g = P.global t.prog name in
  Moard_trace.Data_object.make ~name ~base:(base_of t name) ~elems:g.gelems
    ~ty:g.gty

let registry t =
  Moard_trace.Registry.of_objects
    (List.map (fun (g : P.global) -> object_of t g.gname) t.prog.P.globals)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

type frame = {
  id : int;
  fn : dfunc;
  regs : Bitval.t array;
  prov : int array;                  (* -1 = no provenance *)
  mutable blk : int;
  mutable ip : int;
  ret_dest : int;                    (* caller's destination register, -1 if none *)
  caller : frame option;
}

exception Trap_exn of Trap.t

let default_step_limit = 20_000_000
let max_call_depth = 200

(* The shared/private classification packs hart sets into an int bitmask,
   and 62 cooperating harts is already far past any modelled scenario. *)
let max_harts = 62

(* One cooperating hart: an independent frame stack over the shared flat
   memory. [h_frame = None] once the hart returned from the entry
   function; [h_waiting] parks it at a barrier until every other live
   hart arrives. *)
type hart = {
  h_id : int;
  mutable h_frame : frame option;
  mutable h_depth : int;
  mutable h_waiting : bool;
  mutable h_ret : Bitval.t option;
}

(* A frozen frame: everything needed to rebuild a live [frame] except the
   caller link, which the chain position encodes. *)
type snapframe = {
  sf_id : int;
  sf_fn : dfunc;
  sf_regs : Bitval.t array;
  sf_prov : int array;
  sf_blk : int;
  sf_ip : int;
  sf_ret_dest : int;
}

type snaphart = {
  sh_frames : snapframe list; (* outermost first; [] once finished *)
  sh_waiting : bool;
  sh_ret : Bitval.t option;
}

type checkpoint = {
  c_at : int;
  c_mem : Memory.t;
  c_harts : snaphart array;
  c_turn : int; (* round-robin position of the scheduler *)
  c_next_frame_id : int;
}

let checkpoint_at cp = cp.c_at

exception Captured of checkpoint

(* The event a traced step is recording. Its operands are captured before
   the instruction executes, so a destination that is also a source is
   recorded as consumed. Untraced runs never touch it. *)
type pending = {
  mutable p_hart : int;
  mutable p_frame : int;
  mutable p_instr : dinstr;
  mutable p_values : Bitval.t array;
  mutable p_provs : int array;
}

let no_instr =
  {
    instr = I.Ret None;
    iid = Moard_ir.Iid.make ~fn:"" ~blk:0 ~ip:0;
    op_reg = [||];
    op_imm = [||];
    callee = Not_a_call;
  }

let trap_or = function Ok v -> v | Error tr -> raise (Trap_exn tr)
let address v = Int64.to_int (Bitval.to_int64 v)

(* The hart intrinsics take no arguments. *)
let nullary callee nslots =
  if nslots <> 0 then
    raise (Trap_exn (Trap.Arity { callee; expected = 0; got = nslots }))

let runnable h =
  match h.h_frame with Some _ -> not h.h_waiting | None -> false

let run_gen ?(step_limit = default_step_limit) ?fault ?(sink = Trace_sink.Null)
    ?(args = []) ?(harts = 1) ?from ?into ?capture_at t ~entry =
  if harts < 1 || harts > max_harts then
    invalid_arg "Machine.run: hart count out of range";
  let start = match from with None -> t.image | Some cp -> cp.c_mem in
  let mem =
    match into with
    | None -> Memory.copy start
    | Some buf ->
      Memory.blit ~src:start ~dst:buf;
      buf
  in
  let steps = ref (match from with None -> 0 | Some cp -> cp.c_at) in
  let next_frame_id = ref 0 in
  let fresh_frame fn ~ret_dest ~caller =
    let id = !next_frame_id in
    incr next_frame_id;
    {
      id;
      fn;
      regs = Array.make (max fn.nregs 1) (Bitval.zero Bitval.W64);
      prov = Array.make (max fn.nregs 1) (-1);
      blk = 0;
      ip = 0;
      ret_dest;
      caller;
    }
  in
  (* The one event the fault fires at; -1 never matches. *)
  let fault_idx = match fault with Some f -> Fault.idx f | None -> -1 in
  (* Operand [slot] of [d] as consumed by event [idx]: corrupted when it is
     the slot a Read fault targets. *)
  let operand fr d idx slot =
    let r = d.op_reg.(slot) in
    let x = if r >= 0 then fr.regs.(r) else d.op_imm.(slot) in
    if idx <> fault_idx then x
    else
      match fault with
      | Some { Fault.site = Fault.Read { slot = s; _ }; pattern } when s = slot
        ->
        Pattern.apply pattern x
      | _ -> x
  in
  let provenance fr d slot =
    let r = d.op_reg.(slot) in
    if r >= 0 then fr.prov.(r) else -1
  in
  let traced =
    match sink with Trace_sink.Null -> false | Trace_sink.Tape _ -> true
  in
  let ev =
    {
      p_hart = 0;
      p_frame = 0;
      p_instr = no_instr;
      p_values = [||];
      p_provs = [||];
    }
  in
  (* Call sites guard with [traced], so an untraced step never builds the
     write record or the optional arguments. *)
  let emit ~write ?(load_addr = -1) ?(callee_frame = -1) ?(ret_to_frame = -1)
      ?(ret_to_reg = -1) ?(taken = -1) () =
    match sink with
    | Trace_sink.Null -> ()
    | Trace_sink.Tape tape ->
      Moard_trace.Tape.emit tape ~iid:ev.p_instr.iid ~instr:ev.p_instr.instr
        ~hart:ev.p_hart ~frame:ev.p_frame ~values:ev.p_values
        ~provs:ev.p_provs ~write ~load_addr ~callee_frame ~ret_to_frame
        ~ret_to_reg ~taken ()
  in
  let set_reg fr r prov value =
    fr.regs.(r) <- value;
    fr.prov.(r) <- prov;
    if traced then emit ~write:(Event.Wreg { frame = fr.id; reg = r; value }) ()
  in
  let set_dest fr dest value =
    match dest with
    | Some r -> set_reg fr r (-1) value
    | None -> if traced then emit ~write:Event.Wnone ()
  in
  let result =
    try
      let hs, start_turn =
        match from with
        | None ->
          let entry_fn =
            match Hashtbl.find_opt t.func_index entry with
            | Some i -> t.funcs.(i)
            | None -> raise (Trap_exn (Trap.No_function entry))
          in
          if List.length args <> entry_fn.nparams then
            raise
              (Trap_exn
                 (Trap.Arity
                    {
                      callee = entry;
                      expected = entry_fn.nparams;
                      got = List.length args;
                    }));
          (* SPMD launch: every hart starts the same entry function with
             the same arguments; hart h owns frame id h. *)
          let hs =
            Array.init harts (fun h ->
                let top = fresh_frame entry_fn ~ret_dest:(-1) ~caller:None in
                List.iteri (fun i v -> top.regs.(i) <- v) args;
                {
                  h_id = h;
                  h_frame = Some top;
                  h_depth = 1;
                  h_waiting = false;
                  h_ret = None;
                })
          in
          (hs, 0)
        | Some cp ->
          next_frame_id := cp.c_next_frame_id;
          let rebuild caller sf =
            {
              id = sf.sf_id;
              fn = sf.sf_fn;
              regs = Array.copy sf.sf_regs;
              prov = Array.copy sf.sf_prov;
              blk = sf.sf_blk;
              ip = sf.sf_ip;
              ret_dest = sf.sf_ret_dest;
              caller;
            }
          in
          let rec chain caller = function
            | [] -> assert false
            | [ sf ] -> rebuild caller sf
            | sf :: rest -> chain (Some (rebuild caller sf)) rest
          in
          let hs =
            Array.mapi
              (fun h (sh : snaphart) ->
                {
                  h_id = h;
                  h_frame =
                    (match sh.sh_frames with
                    | [] -> None
                    | frames -> Some (chain None frames));
                  h_depth = List.length sh.sh_frames;
                  h_waiting = sh.sh_waiting;
                  h_ret = sh.sh_ret;
                })
              cp.c_harts
          in
          (hs, cp.c_turn)
      in
      let nharts = Array.length hs in
      let turn = ref start_turn in
      let running = ref true in
      (* Round-robin with a quantum of one instruction: the first runnable
         hart at or after [turn] executes exactly one event. With a single
         hart this degenerates to the serial interpreter loop, event for
         event. *)
      let rec pick k =
        if k = nharts then -1
        else
          let j = (!turn + k) mod nharts in
          if runnable hs.(j) then j else pick (k + 1)
      in
      while !running do
        match pick 0 with
        | -1 ->
          if Array.exists (fun h -> h.h_frame <> None) hs then
            (* Every live hart is parked at the barrier: release the whole
               quorum. Finished harts left it, so no deadlock. *)
            Array.iter (fun h -> h.h_waiting <- false) hs
          else running := false
        | j -> (
          let h = hs.(j) in
          let fr = match h.h_frame with Some fr -> fr | None -> assert false in
          (match capture_at with
          | Some at when !steps = at ->
            let rec snap fr acc =
              let sf =
                {
                  sf_id = fr.id;
                  sf_fn = fr.fn;
                  sf_regs = Array.copy fr.regs;
                  sf_prov = Array.copy fr.prov;
                  sf_blk = fr.blk;
                  sf_ip = fr.ip;
                  sf_ret_dest = fr.ret_dest;
                }
              in
              match fr.caller with
              | None -> sf :: acc
              | Some p -> snap p (sf :: acc)
            in
            (* the capturing run is abandoned here, so [mem] can be taken
               over by the checkpoint without a copy *)
            raise
              (Captured
                 {
                   c_at = at;
                   c_mem = mem;
                   c_harts =
                     Array.map
                       (fun h ->
                         {
                           sh_frames =
                             (match h.h_frame with
                             | None -> []
                             | Some fr -> snap fr []);
                           sh_waiting = h.h_waiting;
                           sh_ret = h.h_ret;
                         })
                       hs;
                   c_turn = !turn;
                   c_next_frame_id = !next_frame_id;
                 })
          | _ -> ());
          turn := (j + 1) mod nharts;
          if !steps >= step_limit then
            raise (Trap_exn (Trap.Step_limit step_limit));
          let idx = !steps in
          incr steps;
          let d = fr.fn.code.(fr.blk).(fr.ip) in
          let nslots = Array.length d.op_reg in
          if traced then begin
            ev.p_hart <- h.h_id;
            ev.p_frame <- fr.id;
            ev.p_instr <- d;
            ev.p_values <- Array.init nslots (operand fr d idx);
            ev.p_provs <- Array.init nslots (provenance fr d)
          end;
          (* Advance ip by default; control flow overrides below. *)
          fr.ip <- fr.ip + 1;
          match d.instr with
          | I.Mov (dst, _) ->
            set_reg fr dst (provenance fr d 0) (operand fr d idx 0)
          | I.Ibin (dst, op, ty, _, _) ->
            let a = operand fr d idx 0 and b = operand fr d idx 1 in
            set_reg fr dst (-1) (trap_or (Semantics.ibin op ty a b))
          | I.Fbin (dst, op, _, _) ->
            set_reg fr dst (-1)
              (Semantics.fbin op (operand fr d idx 0) (operand fr d idx 1))
          | I.Icmp (dst, op, _, _, _) ->
            set_reg fr dst (-1)
              (Semantics.icmp op (operand fr d idx 0) (operand fr d idx 1))
          | I.Fcmp (dst, op, _, _) ->
            set_reg fr dst (-1)
              (Semantics.fcmp op (operand fr d idx 0) (operand fr d idx 1))
          | I.Cast (dst, c, _) ->
            let prov =
              match c with
              | I.Bitcast_f_to_i | I.Bitcast_i_to_f -> provenance fr d 0
              | _ -> -1
            in
            set_reg fr dst prov (Semantics.cast c (operand fr d idx 0))
          | I.Load (dst, ty, _) ->
            let addr = address (operand fr d idx 0) in
            let value = trap_or (Memory.load mem ty addr) in
            fr.regs.(dst) <- value;
            fr.prov.(dst) <- addr;
            if traced then
              emit
                ~write:(Event.Wreg { frame = fr.id; reg = dst; value })
                ~load_addr:addr ()
          | I.Store (ty, _, _) ->
            let addr = address (operand fr d idx 1) in
            (if idx = fault_idx then
               match fault with
               | Some { Fault.site = Fault.Store_dest _; pattern } -> (
                 (* Corrupt the destination cell just before it is
                    overwritten. *)
                 match Memory.load mem ty addr with
                 | Ok old ->
                   ignore (Memory.store mem ty addr (Pattern.apply pattern old))
                 | Error _ -> ())
               | _ -> ());
            let value = operand fr d idx 0 in
            trap_or (Memory.store mem ty addr value);
            if traced then emit ~write:(Event.Wmem { addr; value; ty }) ()
          | I.Gep (dst, _, _, scale) ->
            set_reg fr dst (-1)
              (Semantics.gep (operand fr d idx 0) (operand fr d idx 1) scale)
          | I.Select (dst, _, _, _) ->
            let c = operand fr d idx 0 in
            let prov =
              if Bitval.to_bool c then provenance fr d 1 else provenance fr d 2
            in
            set_reg fr dst prov
              (Semantics.select c (operand fr d idx 1) (operand fr d idx 2))
          | I.Call (dest, callee, _) -> (
            match d.callee with
            | Func i ->
              let callee_fn = t.funcs.(i) in
              if h.h_depth >= max_call_depth then
                raise (Trap_exn (Trap.Call_depth max_call_depth));
              if callee_fn.nparams <> nslots then
                raise
                  (Trap_exn
                     (Trap.Arity
                        {
                          callee;
                          expected = callee_fn.nparams;
                          got = nslots;
                        }));
              let ret_dest = match dest with Some r -> r | None -> -1 in
              let callee_fr =
                fresh_frame callee_fn ~ret_dest ~caller:(Some fr)
              in
              for i = 0 to nslots - 1 do
                callee_fr.regs.(i) <- operand fr d idx i;
                callee_fr.prov.(i) <- provenance fr d i
              done;
              if traced then
                emit ~write:Event.Wnone ~callee_frame:callee_fr.id ();
              h.h_depth <- h.h_depth + 1;
              h.h_frame <- Some callee_fr
            | Barrier ->
              nullary callee nslots;
              if traced then emit ~write:Event.Wnone ();
              (* Park after the event: the hart resumes at the next
                 instruction once every live hart has arrived. *)
              h.h_waiting <- true
            | Hart_id ->
              nullary callee nslots;
              set_dest fr dest (Bitval.of_int64 (Int64.of_int h.h_id))
            | Hart_count ->
              nullary callee nslots;
              set_dest fr dest (Bitval.of_int64 (Int64.of_int nharts))
            | Intrinsic name ->
              set_dest fr dest
                (trap_or
                   (Semantics.intrinsic name
                      (List.init nslots (operand fr d idx))))
            | Missing name -> raise (Trap_exn (Trap.No_function name))
            | Not_a_call -> assert false)
          | I.Br l ->
            if traced then emit ~write:Event.Wnone ~taken:l ();
            fr.blk <- l;
            fr.ip <- 0
          | I.Cbr (_, l1, l2) ->
            let l = if Bitval.to_bool (operand fr d idx 0) then l1 else l2 in
            if traced then emit ~write:Event.Wnone ~taken:l ();
            fr.blk <- l;
            fr.ip <- 0
          | I.Ret vopt -> (
            match fr.caller with
            | None ->
              if traced then emit ~write:Event.Wnone ();
              h.h_ret <-
                (match vopt with
                | Some _ -> Some (operand fr d idx 0)
                | None -> None);
              h.h_frame <- None;
              h.h_depth <- 0
            | Some parent ->
              (if fr.ret_dest >= 0 then begin
                 let rv =
                   match vopt with
                   | Some _ -> operand fr d idx 0
                   | None -> Bitval.zero Bitval.W64
                 in
                 parent.regs.(fr.ret_dest) <- rv;
                 parent.prov.(fr.ret_dest) <-
                   (if nslots > 0 then provenance fr d 0 else -1);
                 if traced then
                   emit
                     ~write:
                       (Event.Wreg
                          { frame = parent.id; reg = fr.ret_dest; value = rv })
                     ~ret_to_frame:parent.id ~ret_to_reg:fr.ret_dest ()
               end
               else if traced then
                 emit ~write:Event.Wnone ~ret_to_frame:parent.id
                   ~ret_to_reg:fr.ret_dest ());
              h.h_depth <- h.h_depth - 1;
              h.h_frame <- Some parent))
      done;
      (* The application outcome of an SPMD run is hart 0's return value
         (every hart ran the same entry; outputs live in shared memory). *)
      Finished hs.(0).h_ret
    with Trap_exn tr -> Trapped tr
  in
  { outcome = result; mem; steps = !steps }

let run ?step_limit ?fault ?sink ?args ?harts ?from ?into t ~entry =
  run_gen ?step_limit ?fault ?sink ?args ?harts ?from ?into t ~entry

let checkpoint ?step_limit ?args ?harts t ~entry ~at =
  if at < 0 then invalid_arg "Machine.checkpoint: negative event index";
  match run_gen ?step_limit ?args ?harts ~capture_at:at t ~entry with
  | (_ : run) ->
    invalid_arg
      (Printf.sprintf
         "Machine.checkpoint: run of %s ended before event %d" entry at)
  | exception Captured cp -> cp

let trace ?step_limit ?args ?harts t ~entry =
  let tape = Moard_trace.Tape.create () in
  let r = run ?step_limit ?args ?harts ~sink:(Trace_sink.Tape tape) t ~entry in
  Moard_trace.Tape.freeze tape;
  (r, tape)

let read_gen t mem name conv =
  let g = P.global t.prog name in
  let base = base_of t name in
  let sz = T.size g.gty in
  Array.init g.gelems (fun i -> conv (Memory.load_exn mem g.gty (base + (i * sz))))

let read_f64s t mem name = read_gen t mem name Bitval.to_float
let read_i64s t mem name = read_gen t mem name Bitval.to_int64
let read_i32s t mem name =
  read_gen t mem name (fun v -> Int64.to_int32 (Bitval.to_int64 v))
