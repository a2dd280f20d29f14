(* A digest of every decoded event of a workload's golden tape, shared by
   the snapshot generator (golden_tape_gen.ml) and the tier-1 test that
   checks it (test_tape_pin.ml).

   Each event is serialized field by field -- index, hart, frame, static
   identity, instruction, every read's image and provenance, the write,
   and the opcode extras -- so any change to what the interpreter records
   changes the digest. *)

module Registry = Moard_kernels.Registry
module Workload = Moard_inject.Workload
module Machine = Moard_vm.Machine
module Tape = Moard_trace.Tape
module Event = Moard_trace.Event
module Bitval = Moard_bits.Bitval

let width_code = function Bitval.W1 -> 1 | Bitval.W32 -> 32 | Bitval.W64 -> 64

let add_int b n = Buffer.add_int64_le b (Int64.of_int n)

let add_value b (v : Bitval.t) =
  add_int b (width_code v.Bitval.width);
  Buffer.add_int64_le b v.Bitval.bits

(* Static text of an instruction site, rendered once per site. *)
let static_text cache (e : Event.t) =
  match Moard_ir.Iid.Tbl.find_opt cache e.Event.iid with
  | Some s -> s
  | None ->
    let s =
      Format.asprintf "%a|%a" Moard_ir.Iid.pp e.Event.iid Moard_ir.Instr.pp
        e.Event.instr
    in
    Moard_ir.Iid.Tbl.add cache e.Event.iid s;
    s

let add_event cache b (e : Event.t) =
  add_int b e.Event.idx;
  add_int b e.Event.hart;
  add_int b e.Event.frame;
  Buffer.add_string b (static_text cache e);
  add_int b (Array.length e.Event.reads);
  Array.iter
    (fun (r : Event.read) ->
      add_value b r.Event.value;
      add_int b r.Event.prov)
    e.Event.reads;
  (match e.Event.write with
  | Event.Wnone -> add_int b 0
  | Event.Wreg { frame; reg; value } ->
    add_int b 1;
    add_int b frame;
    add_int b reg;
    add_value b value
  | Event.Wmem { addr; value; ty } ->
    add_int b 2;
    add_int b addr;
    Buffer.add_string b (Moard_ir.Types.to_string ty);
    add_value b value);
  List.iter (add_int b)
    [
      e.Event.load_addr; e.Event.callee_frame; e.Event.ret_to_frame;
      e.Event.ret_to_reg; e.Event.taken;
    ]

(* Chained digest over fixed-size batches of events, so a long tape never
   needs its whole serialization in memory. *)
let of_tape tape =
  let cache = Moard_ir.Iid.Tbl.create 256 in
  let b = Buffer.create 65536 in
  let acc = ref (Digest.string "") in
  let flush () =
    acc := Digest.string (!acc ^ Buffer.contents b);
    Buffer.clear b
  in
  for i = 0 to Tape.length tape - 1 do
    add_event cache b (Tape.get tape i);
    if Buffer.length b >= 60000 then flush ()
  done;
  flush ();
  Digest.to_hex !acc

(* Every registry benchmark at its default size, then the SPMD ports at 2
   harts: the serial loop and the multi-hart scheduler both get pinned. *)
let workloads () =
  List.map
    (fun (e : Registry.entry) -> (e.Registry.benchmark, e.Registry.workload ()))
    Registry.all
  @ List.filter_map
      (fun (e : Registry.entry) ->
        Option.map
          (fun at ->
            (e.Registry.benchmark ^ "@2", at ~harts:2 e.Registry.default_size))
          e.Registry.parallel_at)
      Registry.all

(* One snapshot line: name, golden step count, tape length, digest. *)
let line (name, (w : Workload.t)) =
  let m = Machine.load w.Workload.program in
  let r, tape =
    Machine.trace ~step_limit:w.Workload.step_limit ~harts:w.Workload.harts m
      ~entry:w.Workload.entry
  in
  Printf.sprintf "%s %d %d %s" name r.Machine.steps (Tape.length tape)
    (of_tape tape)
