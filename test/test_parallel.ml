(* Multi-domain analysis must agree exactly with the one-domain analysis,
   and the one domain-count cap must clamp to the host. *)

module Advf = Moard_core.Advf
module Model = Moard_core.Model
module Context = Moard_inject.Context
module Exec = Moard_inject.Exec
module Registry = Moard_kernels.Registry
module Cancel = Moard_chaos.Cancel

let close = Alcotest.float 1e-12

(* Every report field, floats bit-exact. *)
let fields (r : Advf.report) =
  let floats a =
    String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a))
  in
  Printf.sprintf "%s %d %h %h [%s] [%s] %d %d %d %d %d %d %d %d"
    r.Advf.object_name r.Advf.involvements r.Advf.masking_events r.Advf.advf
    (floats r.Advf.by_level) (floats r.Advf.by_kind) r.Advf.patterns_analyzed
    r.Advf.op_resolved r.Advf.prop_resolved r.Advf.fi_resolved
    r.Advf.unresolved r.Advf.fi_runs r.Advf.fi_cache_hits
    r.Advf.verdict_cache_hits

(* Each setting crosses a different decision: a budget boundary, the
   uncached walk, the scalar walk, a multi-bit pattern family. *)
let settings =
  let d = Model.default_options in
  [
    ("fi_budget 30", { d with Model.fi_budget = 30 });
    ("no cache", { d with Model.use_cache = false; fi_budget = 500 });
    ("scalar walk", { d with Model.batch = false; fi_budget = 200 });
    ( "byte-burst",
      { d with Model.model = Moard_bits.Errmodel.Byte_burst; fi_budget = 300 }
    );
  ]

let tests =
  [
    (* 2 domains = 1 domain, every field, every Table-I object *)
    Alcotest.test_case "parallel equals sequential" `Slow (fun () ->
        List.iter
          (fun (e : Registry.entry) ->
            let ctx = Context.make (e.Registry.workload ()) in
            List.iter
              (fun obj ->
                List.iter
                  (fun (what, options) ->
                    let at domains =
                      fields
                        (Model.analyze ~options ~domains (Context.shard ctx)
                           ~object_name:obj)
                    in
                    Alcotest.(check string)
                      (Printf.sprintf "%s/%s, %s" e.Registry.benchmark obj what)
                      (at 1) (at 2))
                  settings)
              e.Registry.objects)
          Registry.table1);
    Alcotest.test_case "one domain falls back to sequential" `Quick (fun () ->
        (* one worker, or one unit: every unit runs in order on the
           calling domain and on the caller's own context *)
        let ctx = Context.make (Moard_kernels.Lulesh.workload ~nelem:6 ()) in
        let self = Domain.self () in
        List.iter
          (fun (domains, n) ->
            let seen = ref [] in
            let out =
              Exec.run ~domains ctx
                (fun w c u ->
                  if w <> 0 || c != ctx || Domain.self () <> self then
                    Alcotest.failf "%d domain(s): unit %d ran elsewhere"
                      domains u;
                  seen := u :: !seen;
                  u * u)
                (Array.init n Fun.id)
            in
            Alcotest.(check (list int)) "units in order" (List.init n Fun.id)
              (List.rev !seen);
            Alcotest.(check (array int)) "results in unit order"
              (Array.init n (fun u -> u * u))
              out)
          [ (1, 10); (2, 1) ]);
    Alcotest.test_case "the domain cap clamps to the host" `Quick (fun () ->
        let host = Domain.recommended_domain_count () in
        Alcotest.(check int) "64" (min 64 host) (Exec.cap_domains 64);
        Alcotest.(check int) "0" 1 (Exec.cap_domains 0);
        Alcotest.(check int) "1" 1 (Exec.cap_domains 1));
    Alcotest.test_case "merge is involvement-weighted" `Quick (fun () ->
        let mk name m advf events =
          {
            Advf.object_name = name;
            involvements = m;
            masking_events = events;
            advf;
            by_level = [| advf; 0.0; 0.0 |];
            by_kind = [| advf; 0.0; 0.0; 0.0 |];
            patterns_analyzed = m * 64;
            op_resolved = m;
            prop_resolved = 0;
            fi_resolved = 0;
            unresolved = 0;
            fi_runs = 0;
            fi_cache_hits = 0;
            verdict_cache_hits = 0;
          }
        in
        let merged = Advf.merge [ mk "x" 10 1.0 10.0; mk "x" 30 0.5 15.0 ] in
        Alcotest.check close "weighted aDVF" 0.625 merged.Advf.advf;
        Alcotest.(check int) "involvements" 40 merged.Advf.involvements;
        Alcotest.check close "events" 25.0 merged.Advf.masking_events;
        Alcotest.check close "levels follow" 0.625 merged.Advf.by_level.(0));
    Alcotest.test_case "merge rejects mixed objects" `Quick (fun () ->
        let r =
          Model.analyze
            (Context.make (Moard_kernels.Lulesh.workload ~nelem:6 ()))
            ~object_name:"m_elemBC"
        in
        match Advf.merge [ r; { r with Advf.object_name = "other" } ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "a deadline that expires while injecting cancels"
      `Quick (fun () ->
        let ctx = Context.make (Moard_kernels.Lulesh.workload ()) in
        List.iter
          (fun domains ->
            let cancel = Cancel.create ~deadline_s:0.05 () in
            match
              Model.analyze ~domains ~cancel (Context.shard ctx)
                ~object_name:"m_delv_zeta"
            with
            | exception Cancel.Cancelled _ -> ()
            | _ -> Alcotest.failf "%d domain(s): the analysis finished" domains)
          [ 1; 2 ]);
    Alcotest.test_case "each unit is told the worker that runs it" `Quick
      (fun () ->
        (* worker 0 is the caller on its own context, any other worker a
           spawned domain on a shard: the index [per_domain_runs] uses *)
        let ctx = Context.make (Moard_kernels.Lulesh.workload ~nelem:6 ()) in
        let out =
          Exec.run ~domains:2 ctx
            (fun w c u -> (u, w, (w = 0) = (c == ctx) && w < 2))
            (Array.init 6 Fun.id)
        in
        Array.iteri
          (fun i (u, w, ok) ->
            Alcotest.(check int) "unit order" i u;
            if not ok then Alcotest.failf "unit %d: worker %d" u w)
          out);
  ]

let suite = [ ("parallel.model", tests) ]
