(* The model driver: aDVF invariants, determinism, caching, budgets,
   agreement with exhaustive injection on a controlled workload. *)

module Model = Moard_core.Model
module Advf = Moard_core.Advf
module Context = Moard_inject.Context
module Ast = Moard_lang.Ast

let synthetic () =
  let open Ast.Dsl in
  Tutil.workload_of
    ~targets:[ "a"; "b"; "idx" ]
    [
      garr_f64 "a" 4;
      garr_f64_init "b" [| 1.0; 2.0; 3.0; 4.0 |];
      garr_i64_init "idx" [| 3L; 2L; 1L; 0L |];
      garr_f64 "out" 1;
    ]
    [
      fn "main"
        [
          for_ "k" (i 0) (i 4) [ ("a".%(v "k") <- f 7.5) ];
          flt_ "s" (f 1.0e18);
          for_ "k" (i 0) (i 4) [ "s" <-- v "s" + "b".%(v "k") ];
          flt_ "t" (f 0.0);
          for_ "k" (i 0) (i 4) [ "t" <-- v "t" + "a".%("idx".%(v "k")) ];
          ("out".%(i 0) <- v "s" + v "t");
          ret_void;
        ];
    ]
    "synthetic"

let shared = lazy (Context.make (synthetic ()))

let report obj = Model.analyze (Lazy.force shared) ~object_name:obj

let invariant_tests =
  [
    Alcotest.test_case "aDVF lies in [0,1] and sums decompose" `Quick
      (fun () ->
        List.iter
          (fun obj ->
            let r = report obj in
            assert (r.Advf.advf >= 0.0 && r.Advf.advf <= 1.0);
            let by_level =
              r.Advf.by_level.(0) +. r.Advf.by_level.(1) +. r.Advf.by_level.(2)
            in
            Alcotest.check (Alcotest.float 1e-9) "levels sum to aDVF"
              r.Advf.advf by_level;
            (* kinds cover the op+prop levels exactly *)
            let by_kind = Array.fold_left ( +. ) 0.0 r.Advf.by_kind in
            Alcotest.check (Alcotest.float 1e-9) "kinds sum to op+prop"
              (r.Advf.by_level.(0) +. r.Advf.by_level.(1))
              by_kind)
          [ "a"; "b"; "idx" ]);
    Alcotest.test_case "masking events never exceed involvements" `Quick
      (fun () ->
        List.iter
          (fun obj ->
            let r = report obj in
            assert (r.Advf.masking_events
                    <= float_of_int r.Advf.involvements +. 1e-9))
          [ "a"; "b"; "idx" ]);
    Alcotest.test_case "expected shapes on the synthetic workload" `Quick
      (fun () ->
        let a = report "a" and b = report "b" and idx = report "idx" in
        assert (a.Advf.advf > 0.9);
        assert (b.Advf.advf > 0.9);
        assert (idx.Advf.advf < 0.5);
        (* b's masking is overshadowing against the 1e18 accumulator *)
        assert (b.Advf.by_kind.(2) > 0.8);
        (* a is dominated by overwriting *)
        assert (a.Advf.by_kind.(0) > 0.3));
    Alcotest.test_case "analyze_targets covers the declared objects" `Quick
      (fun () ->
        let rs = Model.analyze_targets (Lazy.force shared) in
        Alcotest.(check (list string))
          "object names"
          [ "a"; "b"; "idx" ]
          (List.map (fun r -> r.Advf.object_name) rs));
    Alcotest.test_case "unknown object raises" `Quick (fun () ->
        match report "ghost" with
        | exception Not_found -> ()
        | _ -> Alcotest.fail "expected Not_found");
  ]

let determinism_tests =
  [
    Alcotest.test_case "two analyses of one context agree exactly" `Quick
      (fun () ->
        let r1 = report "idx" and r2 = report "idx" in
        assert (Float.equal r1.Advf.advf r2.Advf.advf);
        assert (r1.Advf.involvements = r2.Advf.involvements));
    Alcotest.test_case "fresh contexts agree exactly" `Quick (fun () ->
        let c1 = Context.make (synthetic ()) in
        let c2 = Context.make (synthetic ()) in
        let a1 = Model.analyze c1 ~object_name:"b" in
        let a2 = Model.analyze c2 ~object_name:"b" in
        assert (Float.equal a1.Advf.advf a2.Advf.advf));
    Alcotest.test_case "cache does not change the result" `Quick (fun () ->
        let ctx = Context.make (synthetic ()) in
        let cached = Model.analyze ctx ~object_name:"idx" in
        let uncached =
          Model.analyze
            ~options:{ Model.default_options with use_cache = false }
            ctx ~object_name:"idx"
        in
        Alcotest.check (Alcotest.float 1e-12) "same aDVF" cached.Advf.advf
          uncached.Advf.advf);
  ]

let budget_tests =
  [
    Alcotest.test_case "zero fault-injection budget counts unresolved"
      `Quick (fun () ->
        let ctx = Context.make (synthetic ()) in
        let r =
          Model.analyze
            ~options:
              { Model.default_options with fi_budget = 0; use_cache = false }
            ctx ~object_name:"idx"
        in
        assert (r.Advf.fi_runs = 0);
        assert (r.Advf.unresolved > 0);
        (* conservative: unresolved counts as not masked *)
        let full = report "idx" in
        assert (r.Advf.advf <= full.Advf.advf +. 1e-9));
    Alcotest.test_case "smaller k only moves masking toward fi" `Quick
      (fun () ->
        let ctx = Context.make (synthetic ()) in
        let at k =
          Model.analyze
            ~options:{ Model.default_options with k }
            ctx ~object_name:"a"
        in
        let k5 = at 5 and k100 = at 100 in
        (* the total is stable; only the resolution stage shifts *)
        Alcotest.check (Alcotest.float 0.02) "aDVF stable under k"
          k100.Advf.advf k5.Advf.advf);
  ]

let agreement_tests =
  [
    Alcotest.test_case "aDVF ranks objects like exhaustive injection" `Quick
      (fun () ->
        let ctx = Context.make (synthetic ()) in
        let objs = [ "a"; "b"; "idx" ] in
        let advfs =
          Array.of_list
            (List.map
               (fun o -> (Model.analyze ctx ~object_name:o).Advf.advf)
               objs)
        in
        let exs =
          Array.of_list
            (List.map
               (fun o ->
                 (Moard_inject.Exhaustive.campaign ctx ~object_name:o)
                   .Moard_inject.Exhaustive.success_rate)
               objs)
        in
        (* a and b are a near-tie by construction; require agreement on
           the clearly-separated vulnerable object and overall positive
           correlation (the paper compares rank orders the same way). *)
        let ra = Moard_stats.Rank.ranks advfs
        and re = Moard_stats.Rank.ranks exs in
        assert (ra.(2) = 2 && re.(2) = 2);
        assert (Moard_stats.Rank.kendall_tau advfs exs > 0.3));
  ]

let suite =
  [
    ("model.invariants", invariant_tests);
    ("model.determinism", determinism_tests);
    ("model.budget", budget_tests);
    ("model.agreement", agreement_tests);
  ]
