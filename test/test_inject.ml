(* Fault-injection machinery: outcome classification, campaigns, caching. *)

module Context = Moard_inject.Context
module Outcome = Moard_inject.Outcome
module Workload = Moard_inject.Workload
module Fault = Moard_vm.Fault
module Pattern = Moard_bits.Pattern
module Ast = Moard_lang.Ast

(* out[0] = a[0] + a[1] scaled by an integer division through d[0];
   loose acceptance so all four outcome classes are reachable by choosing
   the flipped bit. *)
let workload ?(accept = Workload.rel_err_accept 1e-3) () =
  let open Ast.Dsl in
  Tutil.workload_of ~targets:[ "a" ] ~accept
    [ garr_f64_init "a" [| 1.0; 1000.0 |]; garr_i64_init "d" [| 1L |];
      garr_f64 "out" 1 ]
    [
      fn "main"
        [
          int_ "scale" (i 100 / "d".%(i 0));
          ("out".%(i 0) <- ("a".%(i 0) * to_f (v "scale") / f 100.0)
                           + "a".%(i 1));
          ret_void;
        ];
    ]
    "inject-test"

let ctx = lazy (Context.make (workload ()))

let classify_tests =
  [
    Alcotest.test_case "golden context basics" `Quick (fun () ->
        let c = Lazy.force ctx in
        assert (Context.golden_steps c > 0);
        assert (Moard_trace.Tape.length (Context.tape c)
                = Context.golden_steps c);
        Alcotest.(check (float 1e-9)) "output" 1001.0
          (Context.golden_floats c).(0));
    Alcotest.test_case "inert fault classifies as Same" `Quick (fun () ->
        let c = Lazy.force ctx in
        let o = Context.inject c (Fault.read ~idx:999 ~slot:0 (Pattern.Single 0)) in
        assert (Outcome.equal o Outcome.Same));
    Alcotest.test_case "tiny corruption is Acceptable" `Quick (fun () ->
        (* flip a low mantissa bit of a[1]=1000 as consumed by the fadd *)
        let c = Lazy.force ctx in
        let tape = Context.tape c in
        let site =
          Tutil.site_on
            (Context.machine c)
            tape "a"
            (fun s ->
              Tutil.is_read s
              && s.Moard_trace.Consume.elem = 1)
        in
        let o = Context.inject_at ~use_cache:false c site (Pattern.Single 2) in
        assert (Outcome.equal o Outcome.Acceptable));
    Alcotest.test_case "large corruption is Incorrect" `Quick (fun () ->
        let c = Lazy.force ctx in
        let site =
          Tutil.site_on
            (Context.machine c)
            (Context.tape c) "a"
            (fun s -> Tutil.is_read s && s.Moard_trace.Consume.elem = 1)
        in
        let o = Context.inject_at ~use_cache:false c site (Pattern.Single 62) in
        assert (Outcome.equal o Outcome.Incorrect));
    Alcotest.test_case "divisor zeroed is Crashed" `Quick (fun () ->
        let c = Lazy.force ctx in
        let site =
          Tutil.site_on
            (Context.machine c)
            (Context.tape c) "d" Tutil.is_read
        in
        match Context.inject_at ~use_cache:false c site (Pattern.Single 0) with
        | Outcome.Crashed Moard_vm.Trap.Div_by_zero -> ()
        | o -> Alcotest.failf "expected crash, got %s" (Outcome.to_string o));
    Alcotest.test_case "success covers Same and Acceptable only" `Quick
      (fun () ->
        assert (Outcome.success Outcome.Same);
        assert (Outcome.success Outcome.Acceptable);
        assert (not (Outcome.success Outcome.Incorrect));
        assert (not (Outcome.success (Outcome.Crashed Moard_vm.Trap.Div_by_zero))));
    Alcotest.test_case "workload validation catches bad globals" `Quick
      (fun () ->
        let w = workload () in
        let bad = { w with Workload.targets = [ "ghost" ] } in
        match Context.make bad with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "unknown target accepted");
  ]

let cache_tests =
  [
    Alcotest.test_case "cache hit returns without a new run" `Quick
      (fun () ->
        let c = Context.make (workload ()) in
        let site =
          Tutil.site_on (Context.machine c) (Context.tape c) "a"
            (fun s -> Tutil.is_read s && s.Moard_trace.Consume.elem = 0)
        in
        let o1 = Context.inject_at c site (Pattern.Single 10) in
        let runs = Context.runs c in
        let o2 = Context.inject_at c site (Pattern.Single 10) in
        assert (Outcome.equal o1 o2);
        Alcotest.(check int) "no extra run" runs (Context.runs c);
        Alcotest.(check int) "one hit" 1 (Context.cache_hits c));
    Alcotest.test_case "cache respects the pattern" `Quick (fun () ->
        let c = Context.make (workload ()) in
        let site =
          Tutil.site_on (Context.machine c) (Context.tape c) "a"
            (fun s -> Tutil.is_read s && s.Moard_trace.Consume.elem = 0)
        in
        ignore (Context.inject_at c site (Pattern.Single 10));
        let runs = Context.runs c in
        ignore (Context.inject_at c site (Pattern.Single 11));
        Alcotest.(check int) "new pattern runs" (runs + 1) (Context.runs c));
  ]

let campaign_tests =
  [
    Alcotest.test_case "exhaustive accounts for every operand bit" `Quick
      (fun () ->
        let c = Context.make (workload ()) in
        let r = Moard_inject.Exhaustive.campaign c ~object_name:"a" in
        (* a[0] consumed by the division, a[1] by the addition: 2 sites *)
        Alcotest.(check int) "sites" 2 r.Moard_inject.Exhaustive.sites;
        Alcotest.(check int) "injections" 128 r.Moard_inject.Exhaustive.injections;
        Alcotest.(check int)
          "classes partition the campaign"
          r.Moard_inject.Exhaustive.injections
          (r.Moard_inject.Exhaustive.same + r.Moard_inject.Exhaustive.acceptable
         + r.Moard_inject.Exhaustive.incorrect + r.Moard_inject.Exhaustive.crashed);
        assert (r.Moard_inject.Exhaustive.success_rate > 0.0
                && r.Moard_inject.Exhaustive.success_rate < 1.0));
    Alcotest.test_case "pattern stride samples the space" `Quick (fun () ->
        let c = Context.make (workload ()) in
        let r = Moard_inject.Exhaustive.campaign ~pattern_stride:8 c ~object_name:"a" in
        Alcotest.(check int) "injections" 16 r.Moard_inject.Exhaustive.injections);
    Alcotest.test_case "random campaign is seed-deterministic" `Quick
      (fun () ->
        let c = Context.make (workload ()) in
        let r1 =
          Moard_inject.Random_fi.campaign ~use_cache:true ~seed:7 ~tests:64 c
            ~object_name:"a"
        in
        let r2 =
          Moard_inject.Random_fi.campaign ~use_cache:true ~seed:7 ~tests:64 c
            ~object_name:"a"
        in
        assert (r1.Moard_inject.Random_fi.successes
                = r2.Moard_inject.Random_fi.successes));
    Alcotest.test_case "different seeds usually differ" `Quick (fun () ->
        let c = Context.make (workload ()) in
        let succ seed =
          (Moard_inject.Random_fi.campaign ~use_cache:true ~seed ~tests:64 c
             ~object_name:"a")
            .Moard_inject.Random_fi.successes
        in
        let all_same =
          List.for_all (fun s -> succ s = succ 1) [ 2; 3; 4; 5; 6 ]
        in
        assert (not all_same));
    Alcotest.test_case "margin follows the binomial formula" `Quick
      (fun () ->
        let c = Context.make (workload ()) in
        let r =
          Moard_inject.Random_fi.campaign ~use_cache:true ~seed:3 ~tests:100 c
            ~object_name:"a"
        in
        let expect =
          Moard_stats.Confidence.margin ~n:100 r.Moard_inject.Random_fi.success_rate
        in
        Alcotest.(check (float 1e-12)) "margin" expect
          r.Moard_inject.Random_fi.margin_95);
  ]

let accept_tests =
  [
    Alcotest.test_case "rel_err_accept basics" `Quick (fun () ->
        let acc = Workload.rel_err_accept 1e-3 in
        assert (acc ~golden:[| 100.0 |] ~faulty:[| 100.05 |]);
        assert (not (acc ~golden:[| 100.0 |] ~faulty:[| 101.0 |]));
        assert (not (acc ~golden:[| 1.0 |] ~faulty:[| Float.nan |]));
        assert (not (acc ~golden:[| 1.0 |] ~faulty:[| Float.infinity |]));
        assert (not (acc ~golden:[| 1.0 |] ~faulty:[| 1.0; 2.0 |])));
  ]

(* Resumed injection must be invisible in the outcome: on every serial
   registry workload, a seeded sample of (site, bit) faults classifies the
   same resumed from a golden checkpoint as run from the pristine image.
   And since a context runs every injection in one reused memory buffer,
   back-to-back resumed runs on one context must match the same runs on
   fresh shards: no run may see what the previous one left behind. *)
let samples_per_workload = 32

let sample_faults ctx =
  let rng = Random.State.make [| 2019 |] in
  let sites =
    Array.of_list
      (List.concat_map
         (fun obj ->
           Moard_trace.Consume.of_tape ~segment:(Context.segment ctx)
             (Context.tape ctx) (Context.object_of ctx obj))
         (Context.workload ctx).Workload.targets)
  in
  List.init samples_per_workload (fun _ ->
      let site = sites.(Random.State.int rng (Array.length sites)) in
      let bit =
        Random.State.int rng
          (Moard_bits.Bitval.bits_in site.Moard_trace.Consume.width)
      in
      Context.fault_of_site site (Pattern.Single bit))

let check_outcomes what expected actual =
  List.iteri
    (fun i (e, a) ->
      if not (Outcome.equal e a) then
        Alcotest.failf "%s, fault %d: %s <> %s" what i (Outcome.to_string e)
          (Outcome.to_string a))
    (List.combine expected actual)

let resume_tests =
  [
    Alcotest.test_case "serial registry: resumed = fresh, reused = new buffer"
      `Quick (fun () ->
        List.iter
          (fun (e : Moard_kernels.Registry.entry) ->
            let name = e.Moard_kernels.Registry.benchmark in
            let ctx = Context.make (e.Moard_kernels.Registry.workload ()) in
            let faults = sample_faults ctx in
            let fresh = List.map (Context.inject ~resume:false ctx) faults in
            let resumed = List.map (Context.inject ~resume:true ctx) faults in
            check_outcomes (name ^ " resumed vs fresh") fresh resumed;
            let one = Context.shard ctx in
            let back_to_back =
              List.map (Context.inject ~resume:true one) faults
            in
            let on_new_shards =
              List.map
                (fun f -> Context.inject ~resume:true (Context.shard ctx) f)
                faults
            in
            check_outcomes (name ^ " one context vs new shards") on_new_shards
              back_to_back)
          Moard_kernels.Registry.all);
  ]

let suite =
  [
    ("inject.classify", classify_tests);
    ("inject.cache", cache_tests);
    ("inject.campaigns", campaign_tests);
    ("inject.accept", accept_tests);
    ("inject.resume", resume_tests);
  ]
