(* The resilience advisor: protection transforms measured under every
   error model, protected-variant campaigns with the same determinism
   guarantees as unprotected ones (batched = scalar, fresh = resumed),
   the golden advise snapshot, and the headline acceptance claim — at
   least one object gains >= 5x vulnerability reduction at < 2x
   instruction overhead. *)

module Registry = Moard_kernels.Registry
module Workload = Moard_inject.Workload
module Context = Moard_inject.Context
module Plan = Moard_campaign.Plan
module Engine = Moard_campaign.Engine
module Report = Moard_report.Campaign_report
module Protect = Moard_opt.Protect
module Advise = Moard_advise.Advise
module Advise_report = Moard_report.Advise_report
module Errmodel = Moard_bits.Errmodel
module Store = Moard_store.Store
module Query = Moard_store.Query

let all_models =
  [
    Errmodel.Single_bit;
    Errmodel.Double_adjacent;
    Errmodel.Byte_burst;
    Errmodel.Whole_word;
  ]

let mm_protected plan_transforms =
  let w = Registry.(find "MM").Registry.workload () in
  let plan = { Protect.object_name = "C"; transforms = plan_transforms } in
  (Protect.protect_workload w plan, Protect.plan_id plan)

let stable r = Report.stable_json r

let tmp_journal () = Filename.temp_file "moard_test_advise" ".journal"

(* ---------------------------------------------------------------- *)
(* Protected-variant campaigns: every error model, batched = scalar. *)

let model_tests =
  [
    Alcotest.test_case
      "protected campaigns run under all four error models, batched = \
       scalar" `Slow (fun () ->
        let pw, id = mm_protected [ Protect.Dwc ] in
        let ctx = Context.make pw in
        List.iter
          (fun model ->
            let plan =
              Plan.make ~variant:id ~model ~ci_width:0.05 ctx
                ~objects:[ "C" ]
            in
            let b = Engine.run ~batch:true ctx plan in
            let s = Engine.run ~batch:false ctx plan in
            Alcotest.(check string)
              (Errmodel.to_string model ^ " batched = scalar")
              (stable b) (stable s))
          all_models);
    Alcotest.test_case "dwc masks every single-bit fault on MM/C" `Slow
      (fun () ->
        let pw, id = mm_protected [ Protect.Dwc ] in
        let ctx = Context.make pw in
        let plan = Plan.make ~variant:id ~ci_width:0.05 ctx ~objects:[ "C" ] in
        let r = Engine.run ctx plan in
        let o = r.Engine.objects.(0) in
        Alcotest.(check (float 1e-9)) "aDVF 1.0" 1.0 o.Engine.estimate);
    Alcotest.test_case
      "variant-tagged plans hash apart from unprotected ones" `Quick
      (fun () ->
        let w = Registry.(find "MM").Registry.workload () in
        let pw, id = mm_protected [ Protect.Dwc ] in
        let ctx = Context.make w in
        let pctx = Context.make pw in
        let base = Plan.make ctx ~objects:[ "C" ] in
        let tagged = Plan.make ~variant:id pctx ~objects:[ "C" ] in
        let untagged = Plan.make pctx ~objects:[ "C" ] in
        Alcotest.(check bool) "variant changes the hash" true
          (Plan.hash tagged <> Plan.hash untagged);
        Alcotest.(check bool) "protected differs from unprotected" true
          (Plan.hash tagged <> Plan.hash base));
  ]

(* ---------------------------------------------------------------- *)
(* Journals: a protected-variant campaign killed between batches and
   resumed is bit-identical to an uninterrupted run. *)

let journal_tests =
  [
    Alcotest.test_case "protected variant: fresh = kill + resume" `Slow
      (fun () ->
        let pw, id = mm_protected [ Protect.Dwc ] in
        let ctx = Context.make pw in
        let plan =
          Plan.make ~variant:id ~ci_width:0.05 ~batch:16 ctx
            ~objects:[ "C" ]
        in
        let straight = Engine.run ctx plan in
        let path = tmp_journal () in
        let partial = Engine.run ~journal:path ~max_batches:1 ctx plan in
        Alcotest.(check bool) "harness really interrupted" true
          (partial.Engine.objects.(0).Engine.stopped = Engine.Interrupted);
        let resumed = Engine.resume ~journal:path ctx plan in
        Alcotest.(check string) "resume completes to the same bytes"
          (stable straight) (stable resumed);
        Sys.remove path);
    Alcotest.test_case
      "a protected-variant journal does not resume the base plan" `Slow
      (fun () ->
        let pw, id = mm_protected [ Protect.Dwc ] in
        let ctx = Context.make pw in
        let tagged =
          Plan.make ~variant:id ~ci_width:0.05 ~batch:16 ctx
            ~objects:[ "C" ]
        in
        let untagged =
          Plan.make ~ci_width:0.05 ~batch:16 ctx ~objects:[ "C" ]
        in
        let path = tmp_journal () in
        ignore (Engine.run ~journal:path ~max_batches:1 ctx tagged);
        (try
           ignore (Engine.resume ~journal:path ctx untagged);
           Alcotest.fail "untagged plan accepted a variant journal"
         with Moard_campaign.Journal.Rejected _ -> ());
        Sys.remove path);
  ]

(* ---------------------------------------------------------------- *)
(* The advisor end to end. One run serves several assertions — each
   advise run re-measures the object and every candidate plan. *)

let mm_advice =
  lazy (Advise.run (Registry.(find "MM").Registry.workload ()))

let advise_tests =
  [
    Alcotest.test_case "advise is deterministic and batch-invariant" `Slow
      (fun () ->
        let w = Registry.(find "MM").Registry.workload () in
        let a = Advise_report.stable_json (Lazy.force mm_advice) in
        let b = Advise_report.stable_json (Advise.run w) in
        let c = Advise_report.stable_json (Advise.run ~batch:false w) in
        Alcotest.(check string) "repeat run" a b;
        Alcotest.(check string) "scalar oracle" a c);
    Alcotest.test_case "MM/C: >= 5x vulnerability reduction at < 2x \
                        overhead" `Slow (fun () ->
        let r = Lazy.force mm_advice in
        let o = List.hd r.Advise.objects in
        Alcotest.(check string) "object" "C" o.Advise.object_name;
        let wins =
          List.filter
            (fun (p : Advise.plan_outcome) ->
              p.Advise.reduction >= 5.0 && p.Advise.overhead < 2.0)
            o.Advise.plans
        in
        Alcotest.(check bool) "at least one winning plan" true (wins <> []);
        (match o.Advise.recommended with
        | Some id ->
          Alcotest.(check bool) "recommended plan is a winner" true
            (List.exists (fun (p : Advise.plan_outcome) -> p.Advise.id = id) wins)
        | None -> Alcotest.fail "no recommended plan"));
    Alcotest.test_case "pareto front excludes dominated plans" `Slow
      (fun () ->
        let r = Lazy.force mm_advice in
        List.iter
          (fun (o : Advise.object_advice) ->
            List.iter
              (fun (p : Advise.plan_outcome) ->
                let dominated =
                  List.exists
                    (fun (q : Advise.plan_outcome) ->
                      q.Advise.vulnerability <= p.Advise.vulnerability
                      && q.Advise.overhead <= p.Advise.overhead
                      && (q.Advise.vulnerability < p.Advise.vulnerability
                         || q.Advise.overhead < p.Advise.overhead))
                    o.Advise.plans
                  || (o.Advise.vulnerability <= p.Advise.vulnerability
                      && 1.0 <= p.Advise.overhead
                      && (o.Advise.vulnerability < p.Advise.vulnerability
                         || 1.0 < p.Advise.overhead))
                in
                Alcotest.(check bool)
                  (p.Advise.id ^ " pareto flag")
                  (not dominated) p.Advise.pareto)
              o.Advise.plans)
          r.Advise.objects);
    Alcotest.test_case "golden advise snapshot (MM)" `Slow (fun () ->
        let got = Advise_report.stable_json (Lazy.force mm_advice) in
        let path =
          List.find Sys.file_exists
            [
              "golden_advise.expected";
              "test/golden_advise.expected";
              Filename.concat
                (Filename.dirname Sys.executable_name)
                "golden_advise.expected";
            ]
        in
        let ic = open_in path in
        let n = in_channel_length ic in
        let expected = really_input_string ic n in
        close_in ic;
        Alcotest.(check string) "golden bytes" expected got);
  ]

(* ---------------------------------------------------------------- *)
(* The store: content-addressed advise queries. *)

let with_store f =
  let dir = Filename.temp_file "moard_advise_store" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

let store_tests =
  [
    Alcotest.test_case "advise queries cache and replay identical bytes"
      `Slow (fun () ->
        with_store (fun dir ->
            let w = Registry.(find "MM").Registry.workload () in
            let st = Store.open_store ~dir () in
            let query () =
              let _, p, s =
                Query.advise (Some st) ~workload:w ~objects:[ "C" ] ()
              in
              (p, s)
            in
            let p1, s1 = query () in
            Alcotest.(check string)
              "cold compute" "computed" (Query.status_name s1);
            let p2, s2 = query () in
            Alcotest.(check string)
              "warm repeat" "memory-hit" (Query.status_name s2);
            Alcotest.(check string) "identical bytes" p1 p2;
            (* the explicit object list and the default spell the same
               key: MM's only target is C *)
            let _, p3, _ = Query.advise (Some st) ~workload:w ~objects:[] () in
            Alcotest.(check string) "default objects, same entry" p1 p3));
  ]

let suite =
  [
    ("advise.models", model_tests);
    ("advise.journal", journal_tests);
    ("advise.report", advise_tests);
    ("advise.store", store_tests);
  ]
