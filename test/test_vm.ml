(* The virtual machine: memory, traps, determinism, fault application. *)

module Machine = Moard_vm.Machine
module Memory = Moard_vm.Memory
module Fault = Moard_vm.Fault
module Trap = Moard_vm.Trap
module I = Moard_ir.Instr
module T = Moard_ir.Types
module P = Moard_ir.Program
module Bld = Moard_ir.Builder
module B = Moard_bits.Bitval
module Ast = Moard_lang.Ast

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let memory_tests =
  [
    Alcotest.test_case "round trips at every width" `Quick (fun () ->
        let m = Memory.create ~bytes:4096 in
        Memory.store_exn m T.F64 512 (B.of_float 2.75);
        Memory.store_exn m T.I32 520 (B.of_int32 (-7l));
        Memory.store_exn m T.I1 524 (B.of_bool true);
        assert (Float.equal (B.to_float (Memory.load_exn m T.F64 512)) 2.75);
        assert (Int64.equal (B.to_int64 (Memory.load_exn m T.I32 520)) (-7L));
        assert (B.to_bool (Memory.load_exn m T.I1 524)));
    Alcotest.test_case "null guard traps" `Quick (fun () ->
        let m = Memory.create ~bytes:4096 in
        (match Memory.load m T.F64 0 with
        | Error (Trap.Out_of_bounds _) -> ()
        | _ -> Alcotest.fail "null load must trap");
        match Memory.store m T.I32 100 (B.of_int32 1l) with
        | Error (Trap.Out_of_bounds _) -> ()
        | _ -> Alcotest.fail "null store must trap");
    Alcotest.test_case "end-of-memory traps" `Quick (fun () ->
        let m = Memory.create ~bytes:4096 in
        (match Memory.load m T.F64 4089 with
        | Error (Trap.Out_of_bounds _) -> ()
        | _ -> Alcotest.fail "partial oob load must trap");
        match Memory.load m T.F64 4088 with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "last full word must load");
    Alcotest.test_case "unaligned access allowed" `Quick (fun () ->
        let m = Memory.create ~bytes:4096 in
        Memory.store_exn m T.I64 1001 (B.of_int64 0x1122334455667788L);
        assert (Int64.equal
                  (B.to_int64 (Memory.load_exn m T.I64 1001))
                  0x1122334455667788L));
    Alcotest.test_case "copy is a snapshot" `Quick (fun () ->
        let m = Memory.create ~bytes:4096 in
        Memory.store_exn m T.I64 512 (B.of_int64 5L);
        let m' = Memory.copy m in
        Memory.store_exn m T.I64 512 (B.of_int64 9L);
        assert (Int64.equal (B.to_int64 (Memory.load_exn m' T.I64 512)) 5L));
    qtest "store/load identity at random addresses"
      QCheck2.Gen.(pair (int_range 256 4000) int64)
      (fun (addr, x) ->
        let m = Memory.create ~bytes:8192 in
        Memory.store_exn m T.I64 addr (B.of_int64 x);
        Int64.equal (B.to_int64 (Memory.load_exn m T.I64 addr)) x);
  ]

(* A tiny hand-built IR program: out[0] = a[0] + a[1] *)
let sum_program () =
  let b = Bld.create ~name:"main" ~nparams:0 in
  let a0 = Bld.load b T.F64 (I.Glob "a") in
  let p1 = Bld.gep b ~base:(I.Glob "a") ~index:(I.Imm (B.of_int64 1L)) ~scale:8 in
  let a1 = Bld.load b T.F64 (I.Reg p1) in
  let s = Bld.fbin b I.Fadd (I.Reg a0) (I.Reg a1) in
  Bld.store b T.F64 ~value:(I.Reg s) ~addr:(I.Glob "out");
  Bld.ret b (Some (I.Reg s));
  {
    P.globals =
      [
        { P.gname = "a"; gty = T.F64; gelems = 2;
          ginit = P.Floats [| 1.5; 2.25 |] };
        { P.gname = "out"; gty = T.F64; gelems = 1; ginit = P.Zeros };
      ];
    funcs = [ Bld.finish b ];
  }

let machine_tests =
  [
    Alcotest.test_case "hand-built program runs" `Quick (fun () ->
        let m = Machine.load (sum_program ()) in
        let r = Machine.run m ~entry:"main" in
        (match r.Machine.outcome with
        | Machine.Finished (Some v) ->
          assert (Float.equal (B.to_float v) 3.75)
        | _ -> Alcotest.fail "bad outcome");
        let out = Machine.read_f64s m r.Machine.mem "out" in
        assert (Float.equal out.(0) 3.75));
    Alcotest.test_case "runs are independent (memory reset)" `Quick
      (fun () ->
        let m = Machine.load (sum_program ()) in
        let r1 = Machine.run m ~entry:"main" in
        let r2 = Machine.run m ~entry:"main" in
        assert (r1.Machine.steps = r2.Machine.steps);
        assert (Float.equal
                  (Machine.read_f64s m r1.Machine.mem "out").(0)
                  (Machine.read_f64s m r2.Machine.mem "out").(0)));
    Alcotest.test_case "registry exposes objects with disjoint ranges" `Quick
      (fun () ->
        let m = Machine.load (sum_program ()) in
        let reg = Machine.registry m in
        let a = Moard_trace.Registry.find reg "a" in
        let out = Moard_trace.Registry.find reg "out" in
        assert (a.Moard_trace.Data_object.elems = 2);
        assert (Moard_trace.Registry.owner reg a.Moard_trace.Data_object.base
                = Some a);
        assert (not (Moard_trace.Data_object.contains a
                       out.Moard_trace.Data_object.base)));
    Alcotest.test_case "unknown entry traps cleanly" `Quick (fun () ->
        let m = Machine.load (sum_program ()) in
        match (Machine.run m ~entry:"ghost").Machine.outcome with
        | Machine.Trapped (Trap.No_function "ghost") -> ()
        | _ -> Alcotest.fail "expected no-function trap");
    Alcotest.test_case "step limit traps" `Quick (fun () ->
        let open Ast.Dsl in
        let prog =
          Moard_lang.Compile.program
            { Ast.globals = [];
              funs = [ fn "main" [ while_ (b true) []; ret_void ] ] }
        in
        let m = Machine.load prog in
        match (Machine.run ~step_limit:1000 m ~entry:"main").Machine.outcome with
        | Machine.Trapped (Trap.Step_limit 1000) -> ()
        | _ -> Alcotest.fail "expected step-limit trap");
    Alcotest.test_case "division by zero traps" `Quick (fun () ->
        let open Ast.Dsl in
        let prog =
          Moard_lang.Compile.program
            { Ast.globals = [ garr_i64_init "z" [| 0L |] ];
              funs =
                [ fn "main" ~ret:Ast.Tf64
                    [ ret (to_f (i 5 / "z".%(i 0))) ] ] }
        in
        let m = Machine.load prog in
        match (Machine.run m ~entry:"main").Machine.outcome with
        | Machine.Trapped Trap.Div_by_zero -> ()
        | _ -> Alcotest.fail "expected div-by-zero");
    Alcotest.test_case "out-of-bounds index traps" `Quick (fun () ->
        let open Ast.Dsl in
        let prog =
          Moard_lang.Compile.program
            { Ast.globals = [ garr_f64 "a" 2 ];
              funs =
                [ fn "main" ~ret:Ast.Tf64 [ ret ("a".%(i 1000000)) ] ] }
        in
        let m = Machine.load prog in
        match (Machine.run m ~entry:"main").Machine.outcome with
        | Machine.Trapped (Trap.Out_of_bounds _) -> ()
        | _ -> Alcotest.fail "expected oob");
    Alcotest.test_case "call depth limit" `Quick (fun () ->
        let b = Bld.create ~name:"rec" ~nparams:0 in
        Bld.call_void b "rec" [];
        Bld.ret b None;
        let f = Bld.finish b in
        let bm = Bld.create ~name:"main" ~nparams:0 in
        Bld.call_void bm "rec" [];
        Bld.ret bm None;
        let p = { P.globals = []; funcs = [ f; Bld.finish bm ] } in
        let m = Machine.load p in
        match (Machine.run m ~entry:"main").Machine.outcome with
        | Machine.Trapped (Trap.Call_depth _) -> ()
        | _ -> Alcotest.fail "expected call-depth trap");
  ]

let fault_tests =
  [
    Alcotest.test_case "read fault corrupts one operand use" `Quick (fun () ->
        (* Event order: load a0; gep; load a1; fadd; store; ret.
           Flip bit 62 of fadd's slot 0 (a[0] = 1.5): exponent bit. *)
        let m = Machine.load (sum_program ()) in
        let fault = Fault.read ~idx:3 ~slot:0 (Moard_bits.Pattern.Single 62) in
        let r = Machine.run ~fault m ~entry:"main" in
        let corrupted = B.to_float (B.flip_bit (B.of_float 1.5) 62) in
        match r.Machine.outcome with
        | Machine.Finished (Some v) ->
          Alcotest.check (Alcotest.float 1e-9) "corrupted sum"
            (corrupted +. 2.25) (B.to_float v)
        | _ -> Alcotest.fail "should finish");
    Alcotest.test_case "store-destination fault is overwritten" `Quick
      (fun () ->
        let m = Machine.load (sum_program ()) in
        let fault = Fault.store_dest ~idx:4 (Moard_bits.Pattern.Single 13) in
        let r = Machine.run ~fault m ~entry:"main" in
        match r.Machine.outcome with
        | Machine.Finished (Some v) ->
          assert (Float.equal (B.to_float v) 3.75);
          assert (Float.equal (Machine.read_f64s m r.Machine.mem "out").(0) 3.75)
        | _ -> Alcotest.fail "should finish");
    Alcotest.test_case "same fault twice gives identical outcomes" `Quick
      (fun () ->
        let m = Machine.load (sum_program ()) in
        let fault = Fault.read ~idx:3 ~slot:1 (Moard_bits.Pattern.Single 51) in
        let v r =
          match r.Machine.outcome with
          | Machine.Finished (Some v) -> B.to_float v
          | _ -> Float.nan
        in
        let a = v (Machine.run ~fault m ~entry:"main") in
        let b = v (Machine.run ~fault m ~entry:"main") in
        assert (Float.equal a b));
    Alcotest.test_case "fault on non-matching index is inert" `Quick
      (fun () ->
        let m = Machine.load (sum_program ()) in
        let fault = Fault.read ~idx:999 ~slot:0 (Moard_bits.Pattern.Single 1) in
        match (Machine.run ~fault m ~entry:"main").Machine.outcome with
        | Machine.Finished (Some v) -> assert (Float.equal (B.to_float v) 3.75)
        | _ -> Alcotest.fail "should finish clean");
  ]

let trace_consistency =
  [
    Alcotest.test_case "trace matches step count and indexes" `Quick
      (fun () ->
        let m = Machine.load (sum_program ()) in
        let r, tape = Machine.trace m ~entry:"main" in
        assert (Moard_trace.Tape.length tape = r.Machine.steps);
        Moard_trace.Tape.iter
          (let next = ref 0 in
           fun e ->
             assert (e.Moard_trace.Event.idx = !next);
             incr next)
          tape);
    Alcotest.test_case "load events carry provenance" `Quick (fun () ->
        let m = Machine.load (sum_program ()) in
        let _, tape = Machine.trace m ~entry:"main" in
        let fadd = Moard_trace.Tape.get tape 3 in
        (match fadd.Moard_trace.Event.instr with
        | I.Fbin (_, I.Fadd, _, _) -> ()
        | _ -> Alcotest.fail "expected the fadd at index 3");
        let base = Machine.base_of m "a" in
        assert (fadd.Moard_trace.Event.reads.(0).Moard_trace.Event.prov = base);
        assert (fadd.Moard_trace.Event.reads.(1).Moard_trace.Event.prov
                = base + 8));
  ]

(* An untraced step allocates only the value its instruction produces.
   A golden re-execution repeats its minor-heap allocation exactly, so a
   words-per-step bound pins the step loop without timing anything. MM
   and CG allocate 6-7 words per step. *)
let max_words_per_step = 16.0

let alloc_tests =
  List.map
    (fun bench ->
      Alcotest.test_case
        (Printf.sprintf "untraced %s steps allocate at most %.0f words" bench
           max_words_per_step)
        `Quick (fun () ->
          let w =
            (Moard_kernels.Registry.find bench).Moard_kernels.Registry.workload
              ()
          in
          let m = Machine.load w.Moard_inject.Workload.program in
          let run () =
            Machine.run ~step_limit:w.Moard_inject.Workload.step_limit
              ~harts:w.Moard_inject.Workload.harts m
              ~entry:w.Moard_inject.Workload.entry
          in
          ignore (run ());
          let before = Gc.minor_words () in
          let r = run () in
          let per_step =
            (Gc.minor_words () -. before) /. float_of_int r.Machine.steps
          in
          if per_step > max_words_per_step then
            Alcotest.failf "%s: %.1f minor words per step" bench per_step))
    [ "MM"; "CG" ]

(* What the interpreter records, pinned: the golden step count and a
   digest of every decoded tape event of every registry workload (serial,
   and the SPMD ports at 2 harts), generated by golden_tape_gen.exe. *)
let tape_pin_tests =
  [
    Alcotest.test_case "golden tapes of the registry match the snapshot"
      `Quick (fun () ->
        let path =
          List.find Sys.file_exists
            [ "golden_tape.expected"; "test/golden_tape.expected" ]
        in
        let ic = open_in path in
        let text =
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        let expected =
          List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
        in
        Alcotest.(check (list string))
          "name, golden steps, tape length, event digest" expected
          (List.map Tape_digest.line (Tape_digest.workloads ())));
  ]

let suite =
  [
    ("vm.memory", memory_tests);
    ("vm.machine", machine_tests);
    ("vm.faults", fault_tests);
    ("vm.trace", trace_consistency);
    ("vm.alloc", alloc_tests);
    ("vm.tape_pin", tape_pin_tests);
  ]
