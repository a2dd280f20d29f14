(* Edge cases across modules that the main suites do not reach. *)

module Machine = Moard_vm.Machine
module Prop = Moard_analysis.Propagation
module Ast = Moard_lang.Ast
module B = Moard_bits.Bitval
open Tutil

let machine_edges =
  [
    Alcotest.test_case "entry arguments land in parameter registers" `Quick
      (fun () ->
        let prog =
          Moard_lang.Compile.program
            {
              Ast.globals = [];
              funs =
                [
                  Ast.Dsl.fn "main"
                    ~params:[ ("x", Ast.Tf64); ("k", Ast.Ti64) ]
                    ~ret:Ast.Tf64
                    Ast.Dsl.[ ret (v "x" * to_f (v "k")) ];
                ];
            }
        in
        let m = Machine.load prog in
        let r =
          Machine.run m ~entry:"main"
            ~args:[ B.of_float 2.5; B.of_int64 4L ]
        in
        match r.Machine.outcome with
        | Machine.Finished (Some v) ->
          Alcotest.(check (float 1e-12)) "10.0" 10.0 (B.to_float v)
        | _ -> Alcotest.fail "should finish");
    Alcotest.test_case "wrong entry arity traps" `Quick (fun () ->
        let prog =
          Moard_lang.Compile.program
            { Ast.globals = [];
              funs = [ Ast.Dsl.fn "main" ~params:[ ("x", Ast.Tf64) ]
                         Ast.Dsl.[ ret_void ] ] }
        in
        let m = Machine.load prog in
        match (Machine.run m ~entry:"main").Machine.outcome with
        | Machine.Trapped (Moard_vm.Trap.Arity _) -> ()
        | _ -> Alcotest.fail "expected arity trap");
    Alcotest.test_case "mem_bytes too small is rejected at load" `Quick
      (fun () ->
        let prog =
          Moard_lang.Compile.program
            { Ast.globals = [ Ast.Dsl.garr_f64 "big" 10_000 ];
              funs = [ Ast.Dsl.fn "main" [ Ast.Dsl.ret_void ] ] }
        in
        match Machine.load ~mem_bytes:1024 prog with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "tiny memory accepted");
  ]

let propagation_edges =
  [
    Alcotest.test_case "contamination explosion aborts to the injector"
      `Quick (fun () ->
        (* one corrupted value fans out into many cells *)
        let open Ast.Dsl in
        let m, tape =
          trace_program
            [ garr_f64_init "a" [| 2.0 |]; garr_f64 "fan" 64; garr_f64 "out" 1 ]
            [
              fn "main"
                [
                  flt_ "t" ("a".%(i 0) * f 2.0);
                  for_ "k" (i 0) (i 64) [ ("fan".%(v "k") <- v "t" + to_f (v "k")) ];
                  flt_ "s" (f 0.0);
                  for_ "k" (i 0) (i 64) [ "s" <-- v "s" + "fan".%(v "k") ];
                  ("out".%(i 0) <- v "s");
                  ret_void;
                ];
            ]
        in
        let site = site_on m tape "a" is_read in
        let e = event_of tape site in
        match
          Moard_analysis.Masking.analyze e site.Moard_trace.Consume.kind
            (Moard_bits.Pattern.Single 40)
        with
        | Moard_analysis.Masking.Changed { out; _ } ->
          let init =
            match out with
            | Moard_analysis.Masking.To_reg { frame; reg; value } ->
              Prop.From_reg { frame; reg; value }
            | Moard_analysis.Masking.To_mem { addr; value; ty } ->
              Prop.From_mem { addr; value; ty }
          in
          (match
             Prop.replay ~tape ~k:1000 ~shadow_cap:8 ~outputs:[]
               ~start:site.Moard_trace.Consume.event_idx ~init
           with
          | Prop.Unresolved Prop.Explosion -> ()
          | _ -> Alcotest.fail "expected explosion with shadow_cap 8")
        | _ -> Alcotest.fail "expected a changed verdict");
  ]

let workload_edges =
  [
    Alcotest.test_case "segment membership" `Quick (fun () ->
        let w = Moard_kernels.Cg.workload () in
        assert (Moard_inject.Workload.in_segment w "conj_grad");
        assert (not (Moard_inject.Workload.in_segment w "main"));
        let all =
          { w with Moard_inject.Workload.segment = [] }
        in
        assert (Moard_inject.Workload.in_segment all "anything"));
    Alcotest.test_case "golden trap rejected at context creation" `Quick
      (fun () ->
        let open Ast.Dsl in
        let w =
          workload_of ~targets:[ "z" ]
            [ garr_i64_init "z" [| 0L |]; garr_f64 "out" 1 ]
            [
              fn "main"
                [ ("out".%(i 0) <- to_f (i 1 / "z".%(i 0))); ret_void ];
            ]
            "trapping"
        in
        match Moard_inject.Context.make w with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "trapping golden run accepted");
  ]

let chart_edges =
  [
    Alcotest.test_case "stacked with no segments is blank" `Quick (fun () ->
        Alcotest.(check string) "blank" (String.make 8 ' ')
          (Moard_report.Chart.stacked ~width:8 []));
    Alcotest.test_case "whisker clamps out-of-range margins" `Quick
      (fun () ->
        let s =
          Moard_report.Chart.whisker ~width:12 ~center:0.9 ~margin:0.5 ()
        in
        Alcotest.(check int) "width" 12 (String.length s));
  ]

let opt_edges =
  [
    Alcotest.test_case "optimize level 0 is the identity" `Quick (fun () ->
        let w = Moard_kernels.Ft.workload () in
        let p = w.Moard_inject.Workload.program in
        assert (Moard_opt.Passes.optimize ~level:0 p == p));
    Alcotest.test_case "optimize level 1 folds but keeps copies" `Quick
      (fun () ->
        let w = Moard_kernels.Ft.workload () in
        let p = w.Moard_inject.Workload.program in
        let p1 = Moard_opt.Passes.optimize ~level:1 p in
        (* still executable and equivalent *)
        let run prog =
          let m = Machine.load prog in
          (Machine.run m ~entry:"main").Machine.steps
        in
        assert (run p1 > 0));
  ]

let suite =
  [
    ("edges.machine", machine_edges);
    ("edges.propagation", propagation_edges);
    ("edges.workload", workload_edges);
    ("edges.chart", chart_edges);
    ("edges.opt", opt_edges);
  ]
