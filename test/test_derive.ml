(* The read-modify-write rule against the paper's three §III-B statements:
   A: sum[m] = 0.0             -> plain overwrite, masks
   B: sum[m] = sum[m] + x      -> RMW, does not mask by itself
   C: sum[m] = sqrt(sum[m]/n)  -> the deriving sqrt does not read sum[m]
                                  directly, so the store masks (the paper
                                  counts C's assignment as overwriting) *)

module Derive = Moard_analysis.Derive
module Consume = Moard_trace.Consume
module Ast = Moard_lang.Ast
open Tutil

let prog () =
  let open Ast.Dsl in
  trace_program
    [ garr_f64_init "sum" [| 4.0; 9.0; 16.0 |]; garr_f64 "out" 1 ]
    [
      fn "main"
        [
          ("sum".%(i 0) <- f 0.0);                       (* statement A *)
          ("sum".%(i 1) <- "sum".%(i 1) + f 2.0);        (* statement B *)
          ("sum".%(i 2) <- sqrt_ ("sum".%(i 2) / f 4.0)); (* statement C *)
          ("out".%(i 0) <- "sum".%(i 0) + "sum".%(i 1) + "sum".%(i 2));
          ret_void;
        ];
    ]

let store_of tape m elem =
  site_on m tape "sum" (fun s -> is_store s && s.Consume.elem = elem)

let rmw tape m elem =
  Derive.store_rmw_source ~tape (event_of tape (store_of tape m elem))

let tests =
  [
    Alcotest.test_case "statement A: constant store is not RMW" `Quick
      (fun () ->
        let m, tape = prog () in
        assert (rmw tape m 0 = None));
    Alcotest.test_case "statement B: accumulate is RMW onto the fadd"
      `Quick (fun () ->
        let m, tape = prog () in
        match rmw tape m 1 with
        | Some (idx, slot) -> (
          let e = Moard_trace.Tape.get tape idx in
          match e.Moard_trace.Event.instr with
          | Moard_ir.Instr.Fbin (_, Moard_ir.Instr.Fadd, _, _) ->
            Alcotest.(check int) "slot consuming sum[1]" 0 slot
          | _ -> Alcotest.fail "expected the fadd as the deriving event")
        | None -> Alcotest.fail "statement B must be RMW");
    Alcotest.test_case "statement C: sqrt chain is not RMW" `Quick (fun () ->
        let m, tape = prog () in
        assert (rmw tape m 2 = None));
    Alcotest.test_case "model: A and C mask, B shares the fadd verdict"
      `Quick (fun () ->
        let m, tape = prog () in
        ignore m;
        ignore tape;
        let w =
          let open Ast.Dsl in
          workload_of ~targets:[ "sum" ]
            [ garr_f64_init "sum" [| 4.0; 9.0; 16.0 |]; garr_f64 "out" 1 ]
            [
              fn "main"
                [
                  ("sum".%(i 0) <- f 0.0);
                  ("sum".%(i 1) <- "sum".%(i 1) + f 2.0);
                  ("sum".%(i 2) <- sqrt_ ("sum".%(i 2) / f 4.0));
                  ("out".%(i 0) <-
                   "sum".%(i 0) + "sum".%(i 1) + "sum".%(i 2));
                  ret_void;
                ];
            ]
            "statements"
        in
        let ctx = Moard_inject.Context.make w in
        let r = Moard_core.Model.analyze ctx ~object_name:"sum" in
        (* overwriting contributes: statements A and C at least *)
        assert (r.Moard_core.Advf.by_kind.(0) > 0.0);
        assert (r.Moard_core.Advf.advf > 0.0 && r.Moard_core.Advf.advf < 1.0));
    Alcotest.test_case "TMR-protected colidx reaches full resilience" `Slow
      (fun () ->
        let advf tmr =
          let w =
            Moard_kernels.Cg.workload ~n:8 ~iters:2 ~tmr_colidx:tmr ()
          in
          let ctx = Moard_inject.Context.make w in
          (Moard_core.Model.analyze ctx ~object_name:"colidx")
            .Moard_core.Advf.advf
        in
        let plain = advf false and tmr = advf true in
        assert (plain < 0.3);
        assert (tmr > 0.9));
  ]

let suite = [ ("core.derive", tests) ]
