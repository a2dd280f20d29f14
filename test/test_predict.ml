(* The cross-input-size predictor (PR: predict).

   Layered like the code: the growth fits (level 2), the pooled rate
   fits (level 1), their degenerate and order-invariance properties,
   the size-parameterized registry, then the differential contract:
   train at small sizes, predict a size never injected, and compare
   against the campaign engine's ground truth at that size. *)

module Growth = Moard_predict.Growth
module Fit = Moard_predict.Fit
module Predict = Moard_predict.Predict
module Predict_report = Moard_report.Predict_report
module Engine = Moard_campaign.Engine
module Plan = Moard_campaign.Plan
module Context = Moard_inject.Context
module Registry = Moard_kernels.Registry
module Confidence = Moard_stats.Confidence
module Key = Moard_store.Key
module Store = Moard_store.Store
module Query = Moard_store.Query

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let feq = Alcotest.check (Alcotest.float 1e-9)

let workloads_of e sizes =
  List.map (fun n -> (n, e.Registry.workload_at n)) sizes

(* ---------------------------------------------------------------- *)
(* Growth: the level-2 count-vs-size fits *)

let growth_tests =
  [
    Alcotest.test_case "pure power law is recovered exactly" `Quick (fun () ->
        (* counts n^3: log-log least squares through exact monomial
           points reproduces exponent and coefficient *)
        let points = [ (4, 64); (6, 216); (8, 512) ] in
        let g = Growth.fit points in
        feq "exponent" 3.0 (Growth.exponent g);
        feq "eval at 10" 1000.0 (Growth.eval g 10));
    Alcotest.test_case "no observations mean Zero forever" `Quick (fun () ->
        let g = Growth.fit [ (4, 0); (8, 0) ] in
        Alcotest.(check string) "kind" "zero" (Growth.kind_name g);
        feq "eval" 0.0 (Growth.eval g 1024));
    Alcotest.test_case "one observation falls back to proportional" `Quick
      (fun () ->
        let g = Growth.fit [ (4, 0); (8, 24) ] in
        Alcotest.(check string) "kind" "proportional" (Growth.kind_name g);
        feq "exponent" 1.0 (Growth.exponent g);
        feq "eval at 16" 48.0 (Growth.eval g 16));
    Alcotest.test_case "eval is clamped: finite, bounded, non-negative" `Quick
      (fun () ->
        (* a steep fit cannot overflow downstream weights *)
        let g = Growth.fit [ (2, 1); (4, 1_000_000_000) ] in
        let c = Growth.eval g 1_000_000 in
        Alcotest.(check bool) "finite" true (Float.is_finite c);
        Alcotest.(check bool) "bounded" true (c <= 1e15);
        Alcotest.(check bool) "non-negative" true (c >= 0.0);
        feq "nonpositive size" 0.0 (Growth.eval g 0));
    Alcotest.test_case "predict returns observed counts verbatim" `Quick
      (fun () ->
        let points = [ (4, 65); (6, 217) ] in
        feq "at 4" 65.0 (Growth.predict ~points 4);
        feq "at 6" 217.0 (Growth.predict ~points 6));
  ]

(* ---------------------------------------------------------------- *)
(* Synthetic campaign results for the level-1 fits *)

let stratum ~label ~population ~by_code : Engine.stratum_result =
  let samples = Array.fold_left ( + ) 0 by_code in
  {
    Engine.label;
    population;
    samples;
    successes = by_code.(0) + by_code.(1);
    by_code;
    lo = 0.0;
    hi = 1.0;
    exhausted = samples = population;
  }

let object_result ~name ~strata : Engine.object_result =
  let sum f = Array.fold_left (fun a s -> a + f s) 0 strata in
  let by_code = Array.make 4 0 in
  Array.iter
    (fun (s : Engine.stratum_result) ->
      Array.iteri (fun c k -> by_code.(c) <- by_code.(c) + k) s.Engine.by_code)
    strata;
  {
    Engine.object_name = name;
    population = sum (fun s -> s.Engine.population);
    sites = 0;
    samples = sum (fun s -> s.Engine.samples);
    runs = sum (fun s -> s.Engine.samples);
    cache_hits = 0;
    by_code;
    estimate = 0.0;
    lo = 0.0;
    hi = 1.0;
    halfwidth = 0.5;
    stopped = Engine.Exhausted;
    strata;
  }

(* (size, object_result) generator: 2-4 distinct sizes, 3 strata whose
   populations and outcome splits vary freely — including empty strata,
   all-masked and all-SDC ones. *)
let gen_observations =
  QCheck2.Gen.(
    let gen_stratum label =
      int_range 0 40 >>= fun population ->
      let bounded = int_range 0 (min population 10) in
      bounded >>= fun a ->
      bounded >>= fun b ->
      bounded >>= fun c ->
      bounded >>= fun d ->
      let total = a + b + c + d in
      let scale x = if total = 0 then 0 else x * min total population / total in
      return
        (stratum ~label ~population
           ~by_code:[| scale a; scale b; scale c; scale d |])
    in
    int_range 2 4 >>= fun nsizes ->
    let sizes = List.init nsizes (fun i -> 4 + (3 * i)) in
    flatten_l
      (List.map
         (fun size ->
           gen_stratum "s0" >>= fun s0 ->
           gen_stratum "s1" >>= fun s1 ->
           gen_stratum "s2" >>= fun s2 ->
           return
             (size, object_result ~name:"x" ~strata:[| s0; s1; s2 |]))
         sizes))

let shuffle_of seed l =
  let a = Array.of_list l in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let fit_qcheck =
  [
    qtest "fits are invariant to observation order"
      QCheck2.Gen.(pair gen_observations (int_bound 1000))
      (fun (obs, seed) ->
        Fit.of_results obs = Fit.of_results (shuffle_of seed obs));
    qtest "degenerate strata still give finite bounded predictions"
      gen_observations
      (fun obs ->
        let fit = Fit.of_results obs in
        let counts = Fit.predicted_counts fit 1024 in
        Array.for_all
          (fun c -> Float.is_finite c && c >= 0.0 && c <= 1e15)
          counts
        && Array.for_all
             (fun s ->
               List.for_all
                 (fun cls ->
                   let p, i = Fit.rate ~z:1.96 s cls in
                   Float.is_finite p && 0.0 <= p && p <= 1.0
                   && 0.0 <= i.Confidence.lo
                   && i.Confidence.lo <= i.Confidence.hi
                   && i.Confidence.hi <= 1.0)
                 [ Fit.Masked; Fit.Sdc; Fit.Crashed ])
             fit.Fit.strata);
    qtest "predicting at a training size reproduces the observed counts"
      gen_observations
      (fun obs ->
        let fit = Fit.of_results obs in
        List.for_all
          (fun (size, (o : Engine.object_result)) ->
            let counts = Fit.predicted_counts fit size in
            Array.for_all2
              (fun c (s : Engine.stratum_result) ->
                c = float_of_int s.Engine.population)
              counts o.Engine.strata)
          obs);
    qtest "pooled rates are sample-weighted means of the training rates"
      gen_observations
      (fun obs ->
        let fit = Fit.of_results obs in
        Array.for_all
          (fun (s : Fit.stratum) ->
            let p, _ = Fit.rate ~z:1.96 s Fit.Masked in
            if s.Fit.samples = 0 then p = 0.5
            else
              Float.abs
                (p
                -. float_of_int s.Fit.successes /. float_of_int s.Fit.samples)
              < 1e-12)
          fit.Fit.strata);
  ]

let fit_tests =
  [
    Alcotest.test_case "of_results validates its inputs" `Quick (fun () ->
        let o = object_result ~name:"x" ~strata:[||] in
        let y = { o with Engine.object_name = "y" } in
        Alcotest.check_raises "too few"
          (Invalid_argument "Fit.of_results: need >= 2 training sizes")
          (fun () -> ignore (Fit.of_results [ (4, o) ]));
        Alcotest.check_raises "duplicate size"
          (Invalid_argument "Fit.of_results: duplicate training size")
          (fun () -> ignore (Fit.of_results [ (4, o); (4, o) ]));
        Alcotest.check_raises "mixed objects"
          (Invalid_argument "Fit.of_results: mixed objects") (fun () ->
            ignore (Fit.of_results [ (4, o); (6, y) ])));
    Alcotest.test_case "canonical_sizes sorts, dedups, refuses" `Quick
      (fun () ->
        Alcotest.(check (list int))
          "canonical" [ 4; 5; 8 ]
          (Predict.canonical_sizes [ 8; 4; 5; 4 ]);
        (match Predict.canonical_sizes [ 6; 6 ] with
        | exception Predict.Refused (Predict.Too_few_sizes 1) -> ()
        | _ -> Alcotest.fail "duplicate-only sizes accepted");
        Alcotest.check_raises "nonpositive"
          (Invalid_argument "Predict.canonical_sizes: size") (fun () ->
            ignore (Predict.canonical_sizes [ 0; 4 ])));
    Alcotest.test_case "refusal messages are self-contained" `Quick (fun () ->
        List.iter
          (fun r ->
            Alcotest.(check bool)
              "nonempty" true
              (String.length (Predict.refusal_message r) > 0))
          [
            Predict.Too_few_sizes 1;
            Predict.Empty_population;
            Predict.No_predicted_population 64;
            Predict.Unobserved_weight 0.75;
          ]);
  ]

(* ---------------------------------------------------------------- *)
(* Registry: the uniform size knob *)

let registry_tests =
  [
    Alcotest.test_case
      "every entry builds distinct programs at its 4 ladder sizes" `Quick
      (fun () ->
        List.iter
          (fun (e : Registry.entry) ->
            let sizes = Array.to_list e.Registry.sizes in
            Alcotest.(check int)
              (e.Registry.benchmark ^ " ladder length")
              4 (List.length sizes);
            Alcotest.(check (list int))
              (e.Registry.benchmark ^ " ascending distinct")
              sizes
              (List.sort_uniq compare sizes);
            let hashes =
              List.map
                (fun n ->
                  Key.program_hash
                    (e.Registry.workload_at n).Moard_inject.Workload.program)
                sizes
            in
            Alcotest.(check int)
              (e.Registry.benchmark ^ " distinct programs")
              4
              (List.length (List.sort_uniq compare hashes)))
          Registry.all);
    Alcotest.test_case "workload_at default_size is the default workload"
      `Quick (fun () ->
        List.iter
          (fun (e : Registry.entry) ->
            Alcotest.(check string)
              e.Registry.benchmark
              (Key.program_hash
                 (e.Registry.workload ()).Moard_inject.Workload.program)
              (Key.program_hash
                 (e.Registry.workload_at e.Registry.default_size)
                   .Moard_inject.Workload.program))
          Registry.all);
    Alcotest.test_case "training sizes and holdout partition the ladder"
      `Quick (fun () ->
        List.iter
          (fun (e : Registry.entry) ->
            Alcotest.(check (list int))
              e.Registry.benchmark
              (Array.to_list e.Registry.sizes)
              (Registry.training_sizes e @ [ Registry.holdout_size e ]))
          Registry.all);
  ]

(* ---------------------------------------------------------------- *)
(* The engine's per-stratum outcome counts (what level 1 fits from) *)

let by_code_tests =
  [
    Alcotest.test_case "stratum by_code sums to the object's outcome counts"
      `Quick (fun () ->
        let e = Registry.find "MM" in
        let ctx = Context.make (e.Registry.workload_at 4) in
        let plan = Plan.make ctx ~objects:[ "C" ] in
        let r = Engine.run ctx plan in
        let o = r.Engine.objects.(0) in
        let sums = Array.make 4 0 in
        Array.iter
          (fun (s : Engine.stratum_result) ->
            Alcotest.(check int)
              "stratum by_code sums to its samples" s.Engine.samples
              (Array.fold_left ( + ) 0 s.Engine.by_code);
            Alcotest.(check int)
              "stratum successes are its masked codes" s.Engine.successes
              (s.Engine.by_code.(0) + s.Engine.by_code.(1));
            Array.iteri
              (fun c k -> sums.(c) <- sums.(c) + k)
              s.Engine.by_code)
          o.Engine.strata;
        Alcotest.(check (array int))
          "object by_code" o.Engine.by_code sums);
  ]

(* ---------------------------------------------------------------- *)
(* End to end: differential validation against held-out ground truth *)

(* Per-object absolute-error tolerances at the held-out size. The
   predictor's level-1 assumption (rates stable across sizes) is only
   approximately true — boundary strata shrink relative to interior ones
   as inputs grow — so tolerances are empirical: the observed holdout
   error at the seed, rounded up with headroom, and documenting roughly
   how strongly each object's rates drift with size. *)
let differential_cases =
  [
    (* bench, object, tolerance *)
    ("MM", "C", 0.06);
    ("ABFT_MM", "C", 0.06);
    ("PF", "xe", 0.08);
    ("ABFT_PF", "xe", 0.08);
    ("BT", "grid_points", 0.08);
    ("LULESH", "m_elemBC", 0.08);
  ]

let differential_tests =
  [
    Alcotest.test_case
      "holdout prediction lands within per-object tolerance" `Slow (fun () ->
        let covered = ref 0 in
        List.iter
          (fun (bench, obj, tol) ->
            let e = Registry.find bench in
            let sizes = Registry.training_sizes e in
            (* train on the first two sizes, hold out the third: ground
               truth at the holdout is a campaign the predictor never
               saw *)
            let train = [ List.nth sizes 0; List.nth sizes 1 ] in
            let holdout = List.nth sizes 2 in
            let p =
              Predict.run
                ~workloads:(workloads_of e train)
                ~object_name:obj ~target:holdout ()
            in
            let ctx = Context.make (e.Registry.workload_at holdout) in
            let plan = Plan.make ctx ~objects:[ obj ] in
            let truth =
              (Engine.run ctx plan).Engine.objects.(0).Engine.estimate
            in
            let err = Float.abs (p.Predict.advf -. truth) in
            if
              p.Predict.advf_ci.Confidence.lo <= truth
              && truth <= p.Predict.advf_ci.Confidence.hi
            then incr covered;
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s: |%.4f - %.4f| = %.4f <= %.2f" bench obj
                 p.Predict.advf truth err tol)
              true (err <= tol))
          differential_cases;
        (* the conservative weighted-endpoint interval should cover the
           truth for most objects; demand a clear majority *)
        let n = List.length differential_cases in
        Alcotest.(check bool)
          (Printf.sprintf "CI covered truth for %d/%d objects" !covered n)
          true
          (2 * !covered >= n));
  ]

(* ---------------------------------------------------------------- *)
(* Determinism, exactness at training sizes, and the golden snapshot *)

let mm_workloads sizes = workloads_of (Registry.find "MM") sizes

let predict_tests =
  [
    Alcotest.test_case "payload is byte-stable and batch-invariant" `Slow
      (fun () ->
        let run ~batch =
          Predict.run ~batch
            ~workloads:(mm_workloads [ 4; 5 ])
            ~object_name:"C" ~target:6 ()
        in
        let a = Predict_report.stable_json (run ~batch:true) in
        let b = Predict_report.stable_json (run ~batch:true) in
        let c = Predict_report.stable_json (run ~batch:false) in
        Alcotest.(check string) "repeat run" a b;
        Alcotest.(check string) "scalar oracle" a c);
    Alcotest.test_case
      "a training-size target reproduces observed populations" `Slow
      (fun () ->
        let p =
          Predict.run
            ~workloads:(mm_workloads [ 4; 5; 6 ])
            ~object_name:"C" ~target:5 ()
        in
        feq "population at 5"
          (float_of_int (List.assoc 5 p.Predict.populations))
          p.Predict.predicted_population;
        Array.iter
          (fun (s : Predict.stratum_prediction) ->
            feq s.Predict.label
              (float_of_int (List.assoc 5 s.Predict.counts))
              s.Predict.predicted_count)
          p.Predict.strata);
    Alcotest.test_case "too few distinct sizes is refused" `Quick (fun () ->
        match
          Predict.run
            ~workloads:(mm_workloads [ 4 ])
            ~object_name:"C" ~target:8 ()
        with
        | exception Predict.Refused (Predict.Too_few_sizes 1) -> ()
        | _ -> Alcotest.fail "single training size accepted");
    Alcotest.test_case "golden predict snapshot (MM/C, registry ladder)"
      `Slow (fun () ->
        let e = Registry.find "MM" in
        let p =
          Predict.run
            ~workloads:(workloads_of e (Registry.training_sizes e))
            ~object_name:"C"
            ~target:(Registry.holdout_size e)
            ()
        in
        let got = Predict_report.stable_json p in
        let path =
          List.find Sys.file_exists
            [
              "golden_predict.expected";
              "test/golden_predict.expected";
              Filename.concat
                (Filename.dirname Sys.executable_name)
                "golden_predict.expected";
            ]
        in
        let ic = open_in path in
        let n = in_channel_length ic in
        let expected = really_input_string ic n in
        close_in ic;
        Alcotest.(check string) "golden bytes" expected got);
  ]

(* ---------------------------------------------------------------- *)
(* The store: content-addressed predict queries *)

let with_store f =
  let dir = Filename.temp_file "moard_predict_store" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

let store_tests =
  [
    Alcotest.test_case "predict queries hit memory, disk, and recompute"
      `Slow (fun () ->
        with_store (fun dir ->
            let e = Registry.find "MM" in
            let query store =
              let _, p, s, r =
                Query.predict (Some store) ~workload_at:e.Registry.workload_at
                  ~object_name:"C" ~sizes:[ 5; 4 ] ~target:6 ()
              in
              (p, s, r)
            in
            let st = Store.open_store ~dir () in
            let p1, s1, r1 = query st in
            Alcotest.(check string)
              "cold compute" "computed" (Query.status_name s1);
            Alcotest.(check bool) "result returned" true (r1 <> None);
            let p2, s2, r2 = query st in
            Alcotest.(check string)
              "warm repeat" "memory-hit" (Query.status_name s2);
            Alcotest.(check bool) "no recompute" true (r2 = None);
            Alcotest.(check string) "same bytes" p1 p2;
            (* a fresh open has a cold LRU: the disk record serves *)
            let p3, s3, _ = query (Store.open_store ~dir ()) in
            Alcotest.(check string)
              "fresh open" "disk-hit" (Query.status_name s3);
            Alcotest.(check string) "disk bytes" p1 p3;
            (* the key canonicalizes sizes: a permutation is the same
               query *)
            let _, p4, s4, _ =
              Query.predict (Some st) ~workload_at:e.Registry.workload_at
                ~object_name:"C" ~sizes:[ 4; 5 ] ~target:6 ()
            in
            Alcotest.(check string)
              "permuted sizes hit" "memory-hit" (Query.status_name s4);
            Alcotest.(check string) "permuted bytes" p1 p4));
  ]

(* ---------------------------------------------------------------- *)
(* The daemon: a served prediction is the offline CLI's bytes *)

module Daemon = Moard_server.Daemon
module Client = Moard_server.Client
module Jsonx = Moard_server.Jsonx

let with_daemon f =
  let dir = Filename.temp_file "moard_predict_daemon" "" in
  Sys.remove dir;
  let socket = Filename.temp_file "moardd_predict" ".sock" in
  Sys.remove socket;
  let cfg =
    { Daemon.default_config with Daemon.socket; store_dir = dir; workers = 2 }
  in
  let d = Daemon.start cfg in
  Fun.protect ~finally:(fun () -> Daemon.stop d) (fun () -> f cfg)

let rpc_with cfg req = Client.rpc ~socket:cfg.Daemon.socket req

let daemon_tests =
  [
    Alcotest.test_case "a served prediction byte-matches the offline payload"
      `Slow (fun () ->
        with_daemon (fun cfg ->
            let req =
              Jsonx.Obj
                [
                  ("op", Jsonx.Str "predict");
                  ("benchmark", Jsonx.Str "MM");
                  ("object", Jsonx.Str "C");
                  ("sizes", Jsonx.Arr [ Jsonx.Int 4; Jsonx.Int 5 ]);
                  ("target", Jsonx.Int 6);
                ]
            in
            let h1, p1 = rpc_with cfg req in
            Alcotest.(check (option string))
              "cold" (Some "computed")
              (Jsonx.str (Jsonx.member "served" h1));
            let offline =
              Query.predict_payload
                (Predict.run
                   ~workloads:(mm_workloads [ 4; 5 ])
                   ~object_name:"C" ~target:6 ())
            in
            Alcotest.(check string)
              "daemon equals offline" offline (Option.get p1);
            let h2, p2 = rpc_with cfg req in
            (match Jsonx.str (Jsonx.member "served" h2) with
            | Some ("memory-hit" | "disk-hit") -> ()
            | s ->
              Alcotest.failf "warm predict not a hit: %s"
                (Option.value ~default:"?" s));
            Alcotest.(check string) "warm bytes" offline (Option.get p2);
            (* a refusal comes back as a typed error, not a hangup *)
            let h3, _ =
              rpc_with cfg
                (Jsonx.Obj
                   [
                     ("op", Jsonx.Str "predict");
                     ("benchmark", Jsonx.Str "MM");
                     ("object", Jsonx.Str "C");
                     ("sizes", Jsonx.Arr [ Jsonx.Int 4 ]);
                     ("target", Jsonx.Int 6);
                   ])
            in
            match Client.error_of h3 with
            | Some ("refused", _) -> ()
            | Some (code, _) -> Alcotest.failf "wrong error code: %s" code
            | None -> Alcotest.fail "refusal served as success"));
  ]

let suite =
  [
    ("predict.growth", growth_tests);
    ("predict.fit", fit_tests @ fit_qcheck);
    ("predict.registry", registry_tests);
    ("predict.by_code", by_code_tests);
    ("predict.engine", predict_tests);
    ("predict.store", store_tests);
    ("predict.daemon", daemon_tests);
    ("predict.differential", differential_tests);
  ]
