(* The evaluation harness: regenerates every table and figure of the
   paper's evaluation (Table I, Figures 4-9, and the SIII-D propagation
   bound observation), then times the model's phases with Bechamel.

     dune exec bench/main.exe                -- everything
     dune exec bench/main.exe -- fig4 fig8   -- selected experiments
     dune exec bench/main.exe -- timing      -- Bechamel timing only

   Absolute numbers differ from the paper (miniature inputs on a from-
   scratch VM rather than class-S benchmarks on LLVM), but each experiment
   prints the property the paper's figure establishes. *)

module Model = Moard_core.Model
module Advf = Moard_core.Advf
module Context = Moard_inject.Context
module Registry = Moard_kernels.Registry
module Errmodel = Moard_bits.Errmodel
module Chart = Moard_report.Chart
module Jsonx = Moard_server.Jsonx

(* The constructors of the BENCH documents, unqualified. *)
type json = Jsonx.t =
  | Null | Bool of bool | Int of int | Float of float | Str of string
  | Arr of json list | Obj of (string * json) list

let section title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 78 '=') title (String.make 78 '=')

let t0 = Unix.gettimeofday ()
let elapsed () = Unix.gettimeofday () -. t0

let note fmt =
  Printf.ksprintf (fun s -> Printf.printf "  [%6.1fs] %s\n%!" (elapsed ()) s) fmt

(* Contexts are shared across experiments (the golden run and the
   error-equivalence caches are per-workload). *)
let ctx_cache : (string, Context.t) Hashtbl.t = Hashtbl.create 16

let ctx_of (e : Registry.entry) =
  match Hashtbl.find_opt ctx_cache e.Registry.benchmark with
  | Some ctx -> ctx
  | None ->
    let ctx = Context.make (e.Registry.workload ()) in
    Hashtbl.replace ctx_cache e.Registry.benchmark ctx;
    ctx

let options = { Model.default_options with fi_budget = 60_000 }

let advf_cache : (string * string, Advf.report) Hashtbl.t = Hashtbl.create 32

let advf (e : Registry.entry) obj =
  match Hashtbl.find_opt advf_cache (e.Registry.benchmark, obj) with
  | Some r -> r
  | None ->
    let r = Model.analyze ~options (ctx_of e) ~object_name:obj in
    Hashtbl.replace advf_cache (e.Registry.benchmark, obj) r;
    note "aDVF %s/%s = %.4f (%d fi runs)" e.Registry.benchmark obj r.Advf.advf
      r.Advf.fi_runs;
    r

(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table I: benchmarks and target data objects";
  Format.printf "%a@." Registry.pp_table1 ()

let fig4_objects () =
  List.concat_map
    (fun (e : Registry.entry) ->
      List.map (fun obj -> (e, obj)) e.Registry.objects)
    Registry.table1

let fig4 () =
  section
    "Figure 4: aDVF per data object, broken down by analysis level\n\
     (#=operation  o=error propagation  .=algorithm)";
  List.iter
    (fun ((e : Registry.entry), obj) ->
      let r = advf e obj in
      let label = Printf.sprintf "%s %s" e.Registry.benchmark obj in
      print_endline
        (Chart.row ~label_width:22 ~label ~value:r.Advf.advf
           (Chart.stacked
              [
                ('#', r.Advf.by_level.(0));
                ('o', r.Advf.by_level.(1));
                ('.', r.Advf.by_level.(2));
              ])))
    (fig4_objects ());
  (* Evaluation conclusion 2: masking-event counts alone mislead. *)
  let cg = Registry.find "CG" in
  let r_r = advf cg "r" and r_c = advf cg "colidx" in
  Printf.printf
    "\n\
     Conclusion-2 check (CG): r has %.1f masking events vs %.1f for colidx\n\
     over %d vs %d involvements; only the ratio (aDVF %.4f vs %.4f) ranks\n\
     the objects correctly -- event counts alone are not a resilience \
     measure.\n"
    r_r.Advf.masking_events r_c.Advf.masking_events r_r.Advf.involvements
    r_c.Advf.involvements r_r.Advf.advf r_c.Advf.advf

let fig5 () =
  section
    "Figure 5: aDVF breakdown by masking kind at the operation and\n\
     propagation levels (w=overwriting  s=overshadowing  l=logic/compare  \
     x=other)";
  List.iter
    (fun ((e : Registry.entry), obj) ->
      let r = advf e obj in
      let label = Printf.sprintf "%s %s" e.Registry.benchmark obj in
      print_endline
        (Chart.row ~label_width:22 ~label
           ~value:(r.Advf.by_level.(0) +. r.Advf.by_level.(1))
           (Chart.stacked
              [
                ('w', r.Advf.by_kind.(0));
                ('s', r.Advf.by_kind.(2));
                ('l', r.Advf.by_kind.(1));
                ('x', r.Advf.by_kind.(3));
              ])))
    (fig4_objects ())

let fig6 () =
  section
    "Figure 6: model validation -- aDVF vs exhaustive fault injection\n\
     (rank orders must agree; success-rate scale differs by definition)";
  let study name objs =
    let e = Registry.find name in
    let ctx = ctx_of e in
    let advfs =
      Array.of_list
        (List.map
           (fun o -> (Model.analyze ~options ctx ~object_name:o).Advf.advf)
           objs)
    in
    let exs =
      Array.of_list
        (List.map
           (fun o ->
             let r =
               Moard_inject.Exhaustive.campaign ctx ~object_name:o
             in
             note "exhaustive %s/%s = %.4f (%d injections, %d runs)" name o
               r.Moard_inject.Exhaustive.success_rate
               r.Moard_inject.Exhaustive.injections
               r.Moard_inject.Exhaustive.runs;
             r.Moard_inject.Exhaustive.success_rate)
           objs)
    in
    Printf.printf "\n%s (%s):\n" name e.Registry.routine;
    List.iteri
      (fun t o ->
        Printf.printf "  %-14s aDVF %6.4f |%s|   exhaustive %6.4f |%s|\n" o
          advfs.(t)
          (Chart.bar ~width:24 advfs.(t))
          exs.(t)
          (Chart.bar ~width:24 exs.(t)))
      objs;
    let tau = Moard_stats.Rank.kendall_tau advfs exs in
    Printf.printf "  rank order agreement: %s (Kendall tau %.2f)\n"
      (if Moard_stats.Rank.same_order advfs exs then "EXACT" else "partial")
      tau
  in
  study "CG" [ "r"; "colidx"; "a"; "rowstr" ];
  study "LULESH" [ "m_delv_zeta"; "m_elemBC"; "m_x"; "m_y"; "m_z" ]

let fig7 () =
  section
    "Figure 7: random fault injection (500..3500 tests, 95% margins) vs\n\
     aDVF for LULESH m_x / m_y / m_z";
  let e = Registry.find "LULESH" in
  let ctx = ctx_of e in
  let objs = [ "m_x"; "m_y"; "m_z" ] in
  let sizes = [ 500; 1000; 1500; 2000; 2500; 3000; 3500 ] in
  Printf.printf "%-8s" "tests";
  List.iter (fun o -> Printf.printf "  %-18s" o) objs;
  Printf.printf " rank(mx,my,mz)\n";
  let rank_strings = ref [] in
  List.iteri
    (fun si tests ->
      Printf.printf "%-8d" tests;
      let rates =
        List.mapi
          (fun oi o ->
            let r =
              Moard_inject.Random_fi.campaign ~use_cache:true
                ~seed:(1000 + (si * 10) + oi)
                ~tests ctx ~object_name:o
            in
            Printf.printf "  %5.3f +/- %5.3f   "
              r.Moard_inject.Random_fi.success_rate
              r.Moard_inject.Random_fi.margin_95;
            r.Moard_inject.Random_fi.success_rate)
          objs
      in
      let rank = Moard_stats.Rank.ranks (Array.of_list rates) in
      let rs =
        String.concat "," (Array.to_list (Array.map string_of_int rank))
      in
      rank_strings := rs :: !rank_strings;
      Printf.printf " %s\n%!" rs)
    sizes;
  let advfs =
    List.map
      (fun o -> (Model.analyze ~options ctx ~object_name:o).Advf.advf)
      objs
  in
  Printf.printf "%-8s" "aDVF";
  List.iter (fun a -> Printf.printf "  %5.3f (exact)      " a) advfs;
  let arank = Moard_stats.Rank.ranks (Array.of_list advfs) in
  Printf.printf " %s\n"
    (String.concat "," (Array.to_list (Array.map string_of_int arank)));
  let distinct = List.sort_uniq compare !rank_strings in
  Printf.printf
    "\n\
     RFI produced %d distinct rank order(s) across campaign sizes; aDVF is\n\
     deterministic, so its ranking never varies (evaluation conclusion 4).\n"
    (List.length distinct)

let case_study name =
  let e = Registry.find name in
  let obj = List.hd e.Registry.objects in
  let r = advf e obj in
  Printf.printf
    "  %-12s aDVF %6.4f |%s|  (op %.3f, propagation %.3f, algorithm %.3f)\n"
    (Printf.sprintf "%s[%s]" name obj)
    r.Advf.advf
    (Chart.bar ~width:30 r.Advf.advf)
    r.Advf.by_level.(0) r.Advf.by_level.(1) r.Advf.by_level.(2);
  r.Advf.advf

let fig8 () =
  section "Figure 8: aDVF of C in matrix multiplication, without / with ABFT";
  let plain = case_study "MM" in
  let abft = case_study "ABFT_MM" in
  Printf.printf
    "ABFT raises aDVF of C from %.4f to %.4f (%.1fx) -- the checksum\n\
     verification corrects corrupted elements during error propagation.\n"
    plain abft
    (abft /. Float.max plain 1e-9)

let fig9 () =
  section "Figure 9: aDVF of xe in Particle Filter, without / with ABFT";
  let plain = case_study "PF" in
  let abft = case_study "ABFT_PF" in
  Printf.printf
    "ABFT changes aDVF of xe only marginally (%.4f vs %.4f): operation-level\n\
     masking dominates and PF itself tolerates what ABFT would correct --\n\
     the model shows this protection is not worth its overhead.\n"
    plain abft

let bound () =
  section
    "Propagation bound (SIII-D): faults not masked within k operations\n\
     that end in numerically different outcomes";
  let ks = [ 5; 10; 20; 50 ] in
  let totals = Hashtbl.create 8 in
  List.iter (fun k -> Hashtbl.replace totals k (0, 0)) ks;
  List.iter
    (fun (e : Registry.entry) ->
      let ctx = ctx_of e in
      List.iter
        (fun obj ->
          let points =
            Moard_core.Bound.study ~samples:63 ~k_values:ks ctx
              ~object_name:obj
          in
          List.iter
            (fun (p : Moard_core.Bound.point) ->
              let s, i = Hashtbl.find totals p.Moard_core.Bound.k in
              Hashtbl.replace totals p.Moard_core.Bound.k
                ( s + p.Moard_core.Bound.survivors,
                  i + p.Moard_core.Bound.incorrect_of_survivors ))
            points)
        e.Registry.objects;
      note "bound study: %s done" e.Registry.benchmark)
    Registry.table1;
  Printf.printf "\n%-6s %-12s %-12s %s\n" "k" "survivors" "incorrect"
    "fraction incorrect";
  List.iter
    (fun k ->
      let s, i = Hashtbl.find totals k in
      Printf.printf "%-6d %-12d %-12d %.3f\n" k s i
        (if s = 0 then 1.0 else float_of_int i /. float_of_int s))
    ks;
  Printf.printf
    "\n\
     The fraction rises toward 1.0 with k: errors that survive the window\n\
     almost never get masked by further propagation, which justifies\n\
     bounding the analysis at k=50.\n"

(* ------------------------------------------------------------------ *)

(* The §VII discussion studies: code optimization, algorithm choice, input
   dependence, and multi-bit error patterns all change aDVF — each gets an
   ablation that shows the effect. *)
let ablation () =
  section
    "Ablations (SVII): optimization, algorithm choice, inputs, multi-bit";
  let advf_of ?(options = options) w obj =
    (Model.analyze ~options (Context.make w) ~object_name:obj).Advf.advf
  in
  (* SVII-A code optimization: optimization changes the operation mix on a
     data object and with it the aDVF. The demo kernel computes a dead
     diagnostic expression over x (removed by DCE) and an always-true
     guard (folded away): at -O2 both consumption classes disappear. The
     Table-I kernels, whose compiled code is already tight, bound the
     effect from below. *)
  let opt_demo =
    let open Moard_lang.Ast.Dsl in
    let n = 12 in
    Moard_inject.Workload.make ~name:"opt-demo"
      ~program:
        (Moard_lang.Compile.program
           {
             Moard_lang.Ast.globals =
               [ garr_f64_init "x"
                   (Array.init n (fun j -> 1.0 +. float_of_int j));
                 garr_f64 "out" 1 ];
             funs =
               [
                 fn "main"
                   [
                     flt_ "s" (f 0.0);
                     for_ "k" (i 0) (i n)
                       [
                         (* dead diagnostic: removed by DCE at -O2 *)
                         flt_ "dead" ((v "s" - "x".%(v "k")) * f 3.0);
                         (* constant guard: folded away at -O2 *)
                         when_
                           (f 1.0 < f 2.0)
                           [ "s" <-- v "s" + "x".%(v "k") ];
                       ];
                     ("out".%(i 0) <- v "s");
                     ret_void;
                   ];
               ];
           })
      ~targets:[ "x" ] ~outputs:[ "out" ]
      ~accept:(Moard_inject.Workload.rel_err_accept 1e-6)
      ()
  in
  Printf.printf "\n[code optimization] aDVF before/after -O2:\n";
  List.iter
    (fun (name, w, obj) ->
      let before = advf_of w obj in
      let after =
        advf_of
          { w with
            Moard_inject.Workload.program =
              Moard_opt.Passes.optimize w.Moard_inject.Workload.program }
          obj
      in
      Printf.printf "  %-22s %-12s O0 %.4f -> O2 %.4f (%+.4f)\n%!" name obj
        before after (after -. before))
    [
      ("opt-demo", opt_demo, "x");
      ("LULESH", Moard_kernels.Lulesh.workload (), "m_delv_zeta");
      ("MM", Moard_kernels.Abft_mm.workload (), "C");
    ];
  (* SVII-A algorithm choice: Poisson relaxation as pure Jacobi (1 level)
     vs multigrid (3 levels). *)
  Printf.printf "\n[algorithm choice] u in MG, Jacobi vs multigrid:\n";
  let jacobi = advf_of (Moard_kernels.Mg.workload ~levels:1 ~cycles:4 ()) "u" in
  let multigrid = advf_of (Moard_kernels.Mg.workload ()) "u" in
  Printf.printf
    "  pure Jacobi %.4f vs V-cycle multigrid %.4f -- the multilevel\n\
     averaging changes how much corruption u tolerates.\n%!"
    jacobi multigrid;
  (* SVII-C input dependence: same CG code, different input problems. *)
  Printf.printf "\n[input dependence] CG aDVF across input problems:\n";
  List.iter
    (fun seed ->
      let w = Moard_kernels.Cg.workload ~seed () in
      Printf.printf "  seed %-4d r %.4f   colidx %.4f\n%!" seed
        (advf_of w "r") (advf_of w "colidx"))
    [ 42; 43; 44 ];
  Printf.printf
    "  (values move with the input, so the analysis must be redone per\n\
     input problem -- the paper's SVII-C limitation)\n";
  (* SVII-B multi-bit error patterns. *)
  Printf.printf
    "\n[multi-bit patterns] LULESH, single-bit vs double-bit vs byte-burst:\n";
  let lulesh = Registry.find "LULESH" in
  let ctx = ctx_of lulesh in
  List.iter
    (fun obj ->
      let under model =
        (Model.analyze ~options:{ options with Model.model } ctx
           ~object_name:obj)
          .Advf.advf
      in
      Printf.printf "  %-14s single %.4f   double %.4f   byte %.4f\n%!" obj
        (under Errmodel.Single_bit)
        (under Errmodel.Double_adjacent)
        (under Errmodel.Byte_burst))
    [ "m_delv_zeta"; "m_elemBC" ]

let timing () =
  section "Bechamel timing of the model's phases (one test per experiment)";
  let open Bechamel in
  let cg = Registry.find "CG" in
  let lulesh = Registry.find "LULESH" in
  let mm = Registry.find "MM" in
  let ctx = ctx_of lulesh in
  let small_options = { options with fi_budget = 500 } in
  let tests =
    [
      Test.make ~name:"table1:registry-render"
        (Staged.stage (fun () ->
             ignore (Format.asprintf "%a" Registry.pp_table1 ())));
      Test.make ~name:"fig4:advf-analysis(LULESH delv_zeta)"
        (Staged.stage (fun () ->
             ignore
               (Model.analyze ~options:small_options ctx
                  ~object_name:"m_delv_zeta")));
      Test.make ~name:"fig5:kind-breakdown(LULESH elemBC)"
        (Staged.stage (fun () ->
             ignore
               (Model.analyze ~options:small_options ctx
                  ~object_name:"m_elemBC")));
      Test.make ~name:"fig6:exhaustive-fi(LULESH m_x, stride 16)"
        (Staged.stage (fun () ->
             ignore
               (Moard_inject.Exhaustive.campaign ~pattern_stride:16 ctx
                  ~object_name:"m_x")));
      Test.make ~name:"fig7:random-fi(LULESH m_y, 100 tests)"
        (Staged.stage
           (let seed = ref 0 in
            fun () ->
              incr seed;
              ignore
                (Moard_inject.Random_fi.campaign ~use_cache:true ~seed:!seed
                   ~tests:100 ctx ~object_name:"m_y")));
      Test.make ~name:"fig8:golden-run(MM)"
        (Staged.stage (fun () ->
             ignore (Moard_vm.Machine.run (Context.machine (ctx_of mm)) ~entry:"main")));
      Test.make ~name:"fig9:golden-trace(CG)"
        (Staged.stage (fun () ->
             ignore (Moard_vm.Machine.trace (Context.machine (ctx_of cg)) ~entry:"main")));
      Test.make ~name:"bound:propagation-replay(LULESH m_z, k=50)"
        (Staged.stage (fun () ->
             ignore
               (Moard_core.Bound.study ~samples:8 ~k_values:[ 50 ] ctx
                  ~object_name:"m_z")));
    ]
  in
  let clock = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~quota:(Time.second 0.5) ~limit:200 () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ clock ] test in
      Hashtbl.iter
        (fun name (b : Benchmark.t) ->
          let times =
            Array.map
              (fun m ->
                Measurement_raw.get ~label:(Measure.label clock) m
                /. Float.max 1.0 (Measurement_raw.run m))
              b.Benchmark.lr
          in
          if Array.length times > 0 then
            Printf.printf "  %-45s %12.0f ns/run (%d samples)\n%!" name
              (Moard_stats.Summary.mean times)
              (Array.length times))
        results)
    tests

(* ------------------------------------------------------------------ *)

(* The streaming-pipeline benchmark: tracing throughput into the packed
   tape, its footprint against the boxed representation it replaced, and
   domain scaling of the analysis over one shared golden run. Writes
   BENCH_pipeline.json (full mode only; --quick is the CI smoke test). *)

let quick = ref false

(* Domain scaling degrades to the sequential schedule on a single-core
   host — every count measures noise, not speedup — so every bench
   target with a domain-scaling table skips the table there and
   annotates its JSON with the same key. *)
let host_cores () = Domain.recommended_domain_count ()
let single_core () = host_cores () = 1
let domains_skip_reason = "host has 1 recommended domain"

let scaling_domains () =
  if single_core () then [ 1 ] else if !quick then [ 1; 2 ] else [ 1; 2; 4 ]

(* The domain-scaling table under [key], or the uniform skip annotation
   on a single-core host. [runs] holds (domain count, wall clock, _),
   one domain first. *)
let domains_fields ~key runs =
  if single_core () then
    [ (key, Arr []); ("campaign_domains_skipped", Str domains_skip_reason) ]
  else
    let _, t1, _ = List.hd runs in
    let row (d, s, _) =
      Obj [ ("domains", Int d); ("seconds", Float s);
            ("speedup", Float (t1 /. s)) ]
    in
    [ (key, Arr (List.map row runs)) ]

(* The exact image of a double, as the golden snapshots print it. *)
let hex x = Str (Printf.sprintf "%h" x)

(* A container of scalars prints on one line; any other puts each member
   on its own line. A float prints as the shortest decimal that reads
   back to the same double. *)
let rec pretty indent v =
  let inner = indent ^ "  " in
  let group opn cls items =
    let text (k, x) =
      Option.fold ~none:"" ~some:(fun k -> Jsonx.to_string (Str k) ^ ": ") k
      ^ pretty inner x
    in
    let texts = List.map text items in
    let nested = function _, (Obj (_ :: _) | Arr (_ :: _)) -> true | _ -> false in
    if List.exists nested items then
      opn ^ "\n" ^ inner ^ String.concat (",\n" ^ inner) texts ^ "\n" ^ indent
      ^ cls
    else opn ^ String.concat ", " texts ^ cls
  in
  match v with
  | Float x when Float.is_finite x ->
    let rec go p =
      let s = Printf.sprintf "%.*g" p x in
      if p = 17 || float_of_string s = x then s else go (p + 1)
    in
    go 1
  | Float _ -> "null" (* JSON has no non-finite numbers *)
  | Obj fs -> group "{" "}" (List.map (fun (k, x) -> (Some k, x)) fs)
  | Arr xs -> group "[" "]" (List.map (fun x -> (None, x)) xs)
  | scalar -> Jsonx.to_string scalar

(* Every BENCH file: the target's fields under one common header. In
   --quick mode (the CI smoke tests) the document goes to stdout and no
   file is written. *)
let write_bench file fields =
  let text =
    pretty ""
      (Obj
         (("host_cores", Int (host_cores ()))
         :: ("version", Str Moard_server.Version.version)
         :: ("quick", Bool !quick) :: fields))
    ^ "\n"
  in
  if !quick then print_string text
  else begin
    Out_channel.with_open_text file (fun oc -> output_string oc text);
    note "wrote %s" file
  end

let pipeline () =
  section
    "Streaming trace pipeline: packed tape, shared golden run, domain \
     scaling (AMG)";
  let e = Registry.find "AMG" in
  let obj = "ipiv" in
  let g0 = Context.golden_executions () in
  let ctx = Context.make (e.Registry.workload ()) in
  let machine = Context.machine ctx in
  let entry = (Context.workload ctx).Moard_inject.Workload.entry in
  let tape = Context.tape ctx in
  let events = Moard_trace.Tape.length tape in
  (* Tracing throughput: golden run + packed emission, best of N. *)
  let reps = if !quick then 1 else 3 in
  let trace_s = ref infinity in
  for _ = 1 to reps do
    let t = Unix.gettimeofday () in
    ignore (Moard_vm.Machine.trace machine ~entry);
    trace_s := Float.min !trace_s (Unix.gettimeofday () -. t)
  done;
  let events_per_sec = float_of_int events /. !trace_s in
  note "tracing: %d events in %.4fs (%.0f events/sec)" events !trace_s
    events_per_sec;
  (* Footprint: packed store vs the boxed tape it replaced. *)
  let packed = Moard_trace.Tape.packed_bytes tape in
  let boxed = Moard_trace.Tape.boxed_bytes_estimate tape in
  let reduction = float_of_int boxed /. float_of_int packed in
  note "tape footprint: %d bytes packed vs %d boxed (%.2fx reduction)" packed
    boxed reduction;
  (* Domain scaling over the one frozen tape, each measurement on a fresh
     context shard. *)
  let host_cores = host_cores () in
  let domain_counts = scaling_domains () in
  let runs =
    List.map
      (fun d ->
        let t = Unix.gettimeofday () in
        let r =
          Model.analyze ~domains:d (Context.shard ctx) ~object_name:obj
        in
        let s = Unix.gettimeofday () -. t in
        note "analyze %s/%s on %d domain(s): %.3fs (aDVF %.6f)"
          e.Registry.benchmark obj d s r.Advf.advf;
        (d, s, r))
      domain_counts
  in
  let _, t1, r1 = List.hd runs in
  let identical = List.for_all (fun (_, _, r) -> r = r1) runs in
  let goldens = Context.golden_executions () - g0 in
  Printf.printf
    "\n\
     golden executions for the whole pipeline: %d (shared by tracing, \n\
     site enumeration and all %d analysis configurations)\n\
     report bit-identical across domain counts: %b\n"
    goldens (List.length runs) identical;
  List.iter
    (fun (d, s, _) ->
      Printf.printf "  %d domain(s): %7.3fs  speedup %.2fx\n" d s (t1 /. s))
    runs;
  if host_cores < List.fold_left (fun a (d, _, _) -> max a d) 1 runs then
    Printf.printf
      "  (host has %d core(s): domains beyond that only measure \
       synchronization overhead, not speedup)\n"
      host_cores;
  if goldens <> 1 then failwith "pipeline: golden run executed more than once";
  if not identical then failwith "pipeline: report drifted across domains";
  write_bench "BENCH_pipeline.json"
    ([ ("benchmark", Str e.Registry.benchmark); ("object", Str obj);
       ("events", Int events); ("trace_seconds", Float !trace_s);
       ("events_per_sec", Float events_per_sec); ("packed_bytes", Int packed);
       ("boxed_bytes_estimate", Int boxed);
       ("packing_reduction", Float reduction);
       ("golden_executions", Int goldens); ("use_cache", Bool true);
       ("advf", hex r1.Advf.advf); ("advf_decimal", Float r1.Advf.advf);
       ("report_bit_identical_across_domains", Bool identical) ]
    @ domains_fields ~key:"domains" runs)

(* ------------------------------------------------------------------ *)

(* The campaign benchmark: statistical fault injection against the
   exhaustive sweep on the same object. Establishes the paper-SV economics
   (target interval reached with a fraction of the exhaustive injections),
   checks the CI covers the exhaustive truth, and proves the report is
   bit-identical across domain counts. Writes BENCH_campaign.json (full
   mode only; --quick is the CI smoke test). *)

let campaign () =
  let module Plan = Moard_campaign.Plan in
  let module Engine = Moard_campaign.Engine in
  let bench, obj, ci_width =
    if !quick then ("LULESH", "m_elemBC", 0.02) else ("MM", "C", 0.02)
  in
  section
    (Printf.sprintf
       "Statistical campaign vs exhaustive sweep (%s/%s, target halfwidth \
        %g)"
       bench obj ci_width);
  let e = Registry.find bench in
  let ctx = ctx_of e in
  let t = Unix.gettimeofday () in
  let truth = Moard_inject.Exhaustive.campaign ctx ~object_name:obj in
  let sweep_s = Unix.gettimeofday () -. t in
  note "exhaustive: %d injections (%d runs) in %.3fs -> rate %.6f"
    truth.Moard_inject.Exhaustive.injections
    truth.Moard_inject.Exhaustive.runs sweep_s
    truth.Moard_inject.Exhaustive.success_rate;
  let plan = Plan.make ~seed:42 ~ci_width ctx ~objects:[ obj ] in
  let domain_counts = scaling_domains () in
  let runs =
    List.map
      (fun d ->
        let t = Unix.gettimeofday () in
        let r = Engine.run ~domains:d ctx plan in
        let s = Unix.gettimeofday () -. t in
        let o = r.Engine.objects.(0) in
        note
          "campaign on %d domain(s): %.3fs, %d samples (%d runs, %d cache \
           hits), [%.4f, %.4f] %s"
          d s o.Engine.samples o.Engine.runs o.Engine.cache_hits o.Engine.lo
          o.Engine.hi
          (Engine.stop_reason_name o.Engine.stopped);
        (d, s, r))
      domain_counts
  in
  let _, _, r1 = List.hd runs in
  let stable = Moard_report.Campaign_report.stable_json r1 in
  let identical =
    List.for_all
      (fun (_, _, r) -> Moard_report.Campaign_report.stable_json r = stable)
      runs
  in
  let o = r1.Engine.objects.(0) in
  let exact = truth.Moard_inject.Exhaustive.success_rate in
  let covered = o.Engine.lo -. 1e-12 <= exact && exact <= o.Engine.hi +. 1e-12 in
  let savings =
    float_of_int truth.Moard_inject.Exhaustive.injections
    /. float_of_int (max 1 o.Engine.samples)
  in
  Printf.printf
    "\n\
     report bit-identical across domain counts: %b\n\
     exhaustive rate %.6f inside campaign CI [%.6f, %.6f]: %b\n\
     injection economy: %d samples for a population of %d (%.1fx fewer)\n"
    identical exact o.Engine.lo o.Engine.hi covered o.Engine.samples
    o.Engine.population savings;
  if not identical then failwith "campaign: report drifted across domains";
  if not covered then failwith "campaign: CI missed the exhaustive rate";
  if o.Engine.stopped = Engine.Ci_target && o.Engine.samples >= o.Engine.population
  then failwith "campaign: no injection savings over the sweep";
  write_bench "BENCH_campaign.json"
    ([ ("benchmark", Str bench); ("object", Str obj);
       ("seed", Int plan.Plan.seed); ("ci_width_target", Float ci_width);
       ("population", Int o.Engine.population);
       ("exhaustive_rate", hex exact); ("exhaustive_rate_decimal", Float exact);
       ("exhaustive_injections", Int truth.Moard_inject.Exhaustive.injections);
       ("exhaustive_seconds", Float sweep_s);
       ("campaign_samples", Int o.Engine.samples);
       ("campaign_runs", Int o.Engine.runs);
       ("campaign_cache_hits", Int o.Engine.cache_hits);
       ("campaign_estimate", hex o.Engine.estimate);
       ("campaign_estimate_decimal", Float o.Engine.estimate);
       ("campaign_ci", Arr [ hex o.Engine.lo; hex o.Engine.hi ]);
       ("campaign_ci_decimal", Arr [ Float o.Engine.lo; Float o.Engine.hi ]);
       ("stopped", Str (Engine.stop_reason_name o.Engine.stopped));
       ("ci_covers_exhaustive", Bool covered);
       ("injection_savings", Float savings);
       ("report_bit_identical_across_domains", Bool identical) ]
    @ domains_fields ~key:"domains" runs)

(* ------------------------------------------------------------------ *)

(* The result-store benchmark: moardd on a Unix socket over a cold
   content-addressed store. Measures the cold compute-and-store path
   against warm cache hits for one probe query (asserting the payloads
   are byte-identical to an offline computation), then drives a zipf-ish
   request mix over the 16 registry objects and reports the hit ratio.
   Writes BENCH_store.json (full mode only; --quick is the CI smoke
   test). *)

let store_bench () =
  let module Daemon = Moard_server.Daemon in
  let module Client = Moard_server.Client in
  let module Query = Moard_store.Query in
  section
    "Result store + moardd: cold vs warm query latency, hit ratio under a \
     zipf-ish mix";
  let dir = Filename.temp_file "moard_bench_store" "" in
  Sys.remove dir;
  let socket = Filename.temp_file "moardd_bench" ".sock" in
  Sys.remove socket;
  let cfg =
    {
      Daemon.default_config with
      Daemon.socket;
      store_dir = dir;
      workers = 2;
      timeout_s = 600.0;
    }
  in
  let d = Daemon.start cfg in
  Fun.protect ~finally:(fun () -> Daemon.stop d) @@ fun () ->
  let rpc req = Client.rpc ~socket req in
  let advf_req ?fi_budget bench obj =
    Jsonx.Obj
      ([
         ("op", Jsonx.Str "advf");
         ("benchmark", Jsonx.Str bench);
         ("object", Jsonx.Str obj);
       ]
      @
      match fi_budget with
      | Some b -> [ ("fi_budget", Jsonx.Int b) ]
      | None -> [])
  in
  let served h =
    Option.value ~default:"?" (Jsonx.str (Jsonx.member "served" h))
  in
  let is_hit h =
    match served h with "memory-hit" | "disk-hit" -> true | _ -> false
  in
  (* cold vs warm on one probe query *)
  let probe_bench, probe_obj = ("LULESH", "m_elemBC") in
  let t = Unix.gettimeofday () in
  let h1, p1 = rpc (advf_req probe_bench probe_obj) in
  let cold_s = Unix.gettimeofday () -. t in
  note "cold %s/%s: %.4fs (%s)" probe_bench probe_obj cold_s (served h1);
  let warm_reps = if !quick then 10 else 50 in
  let warm_s = ref infinity in
  let warm_ok = ref true in
  for _ = 1 to warm_reps do
    let t = Unix.gettimeofday () in
    let h, p = rpc (advf_req probe_bench probe_obj) in
    warm_s := Float.min !warm_s (Unix.gettimeofday () -. t);
    if not (is_hit h && p = p1) then warm_ok := false
  done;
  let offline =
    Query.advf_payload
      (ctx_of (Registry.find probe_bench))
      ~object_name:probe_obj
  in
  let identical = p1 = Some offline && !warm_ok in
  let speedup = cold_s /. !warm_s in
  note "warm (best of %d): %.6fs -- %.0fx over cold" warm_reps !warm_s speedup;
  note "daemon payload byte-identical to offline computation: %b" identical;
  if not identical then
    failwith "store: daemon payload differs from the offline computation";
  if speedup < 10.0 then
    failwith "store: warm query not at least 10x faster than cold";
  (* zipf-ish mix over the registry objects: rank i drawn with weight
     1/(i+1), deterministic LCG so the mix is reproducible (and so the
     cluster phase below can replay the identical request schedule) *)
  let mix =
    if !quick then [| ("LULESH", "m_elemBC"); ("LULESH", "m_delv_zeta") |]
    else
      Array.of_list
        (List.map
           (fun ((e : Registry.entry), obj) -> (e.Registry.benchmark, obj))
           (fig4_objects ()))
  in
  let n = Array.length mix in
  let make_lcg () =
    let state = ref 0x2545F491 in
    fun () ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      float_of_int !state /. 1073741824.0
  in
  let make_zipf arr =
    let n = Array.length arr in
    let weights = Array.init n (fun i -> 1.0 /. float_of_int (i + 1)) in
    let total_w = Array.fold_left ( +. ) 0.0 weights in
    fun next_float ->
      let x = next_float () *. total_w in
      let rec go i acc =
        if i = n - 1 then i
        else if acc +. weights.(i) >= x then i
        else go (i + 1) (acc +. weights.(i))
      in
      go 0 0.0
  in
  let pick = make_zipf mix in
  let draws = if !quick then 40 else 400 in
  (* latency per served-status: an aggregate q/s hides that the mix is
     bimodal (sub-ms hits vs ~minute cold computes) *)
  let percentile sorted q =
    let n = Array.length sorted in
    sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))
  in
  let note_lat lats served s =
    let r =
      match Hashtbl.find_opt lats served with
      | Some r -> r
      | None ->
        let r = ref [] in
        Hashtbl.replace lats served r;
        r
    in
    r := s :: !r
  in
  let lat_summary lats =
    List.map
      (fun (srv, r) ->
        let a = Array.of_list !r in
        Array.sort compare a;
        (srv, Array.length a, percentile a 0.5, percentile a 0.95,
         percentile a 0.99))
      (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) lats []))
  in
  let note_lat_rows rows =
    List.iter
      (fun (srv, cnt, p50, p95, p99) ->
        note "  %-11s %4d draws  p50 %.4fs  p95 %.4fs  p99 %.4fs" srv cnt p50
          p95 p99)
      rows
  in
  let latency rows =
    let row (srv, cnt, p50, p95, p99) =
      ( srv,
        Obj [ ("draws", Int cnt); ("p50_s", Float p50); ("p95_s", Float p95);
              ("p99_s", Float p99) ] )
    in
    ("latency", Obj (List.map row rows))
  in
  let payloads : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let lats = Hashtbl.create 8 in
  let hits = ref 0 in
  let lcg = make_lcg () in
  let t = Unix.gettimeofday () in
  for _ = 1 to draws do
    let bench, obj = mix.(pick lcg) in
    let t1 = Unix.gettimeofday () in
    let h, p = rpc (advf_req ~fi_budget:60_000 bench obj) in
    note_lat lats (served h) (Unix.gettimeofday () -. t1);
    if is_hit h then incr hits;
    match p with
    | None -> failwith ("store: no payload for " ^ bench ^ "/" ^ obj)
    | Some p -> Hashtbl.replace payloads (bench ^ "/" ^ obj) p
  done;
  let mix_s = Unix.gettimeofday () -. t in
  let hit_ratio = float_of_int !hits /. float_of_int draws in
  let serial_lat = lat_summary lats in
  note "zipf mix: %d draws over %d objects in %.3fs (%.1f q/s, hit ratio \
        %.3f)"
    draws n mix_s
    (float_of_int draws /. mix_s)
    hit_ratio;
  note_lat_rows serial_lat;
  (* the cluster phase: the identical request schedule through two
     sharded daemons behind the consistent-hash proxy, after warming
     every object of the mix through the background warming queues.
     Every payload must be byte-identical to the single-daemon run (and
     a spot object to a direct offline computation); warm serving has
     to clear 3 q/s where the cold serial mix managed ~0.3. *)
  let module Local = Moard_cluster.Local in
  let cmix, cdraws = if !quick then ([| ("MM", "C") |], 10) else (mix, draws) in
  let cpick = make_zipf cmix in
  let offline_advf bench obj =
    Query.advf_payload
      ~options:
        { Model.default_options with Model.fi_budget = 60_000; batch = true }
      (ctx_of (Registry.find bench))
      ~object_name:obj
  in
  let expected =
    let offline_cache = Hashtbl.create 4 in
    fun bench obj ->
      let key = bench ^ "/" ^ obj in
      match Hashtbl.find_opt payloads key with
      | Some p -> p
      | None -> (
        match Hashtbl.find_opt offline_cache key with
        | Some p -> p
        | None ->
          let p = offline_advf bench obj in
          Hashtbl.replace offline_cache key p;
          p)
  in
  let croot = Filename.temp_file "moard_bench_cluster" "" in
  Sys.remove croot;
  let cluster = Local.start ~root:croot ~shards:2 ~workers:1 () in
  Fun.protect ~finally:(fun () -> Local.stop cluster) @@ fun () ->
  let psock = Local.socket cluster in
  let crpc req = Client.rpc ~socket:psock req in
  let jget path h =
    List.fold_left (fun v k -> Option.bind v (Jsonx.member k)) (Some h) path
  in
  let t = Unix.gettimeofday () in
  Array.iter
    (fun (bench, obj) ->
      let h, _ =
        crpc
          (Jsonx.Obj
             [
               ("op", Jsonx.Str "warm");
               ("benchmark", Jsonx.Str bench);
               ("object", Jsonx.Str obj);
               ("fi_budget", Jsonx.Int 60_000);
             ])
      in
      match Client.error_of h with
      | Some (code, msg) ->
        failwith (Printf.sprintf "cluster warm %s/%s: %s: %s" bench obj code msg)
      | None -> ())
    cmix;
  (* block until both warming layers drain: proxy queue pushed out, every
     shard's queue computed, shard pools idle *)
  let drained () =
    let h, _ = crpc (Jsonx.Obj [ ("op", Jsonx.Str "stat") ]) in
    let queued p = Option.value ~default:1 (Jsonx.int (jget p h)) in
    queued [ "proxy"; "warming"; "queued" ] = 0
    && Option.value ~default:[] (Jsonx.list (jget [ "shards" ] h))
       |> List.for_all (fun s ->
              let i p = Option.value ~default:1 (Jsonx.int (jget p s)) in
              Jsonx.bool (jget [ "alive" ] s) = Some true
              && i [ "stat"; "warming"; "queued" ] = 0
              && Jsonx.bool (jget [ "stat"; "warming"; "busy" ] s) = Some false
              && i [ "stat"; "pool"; "queued" ] = 0
              && i [ "stat"; "pool"; "running" ] = 0)
  in
  let deadline = Unix.gettimeofday () +. 3600. in
  while (not (drained ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 1.0
  done;
  let cwarm_s = Unix.gettimeofday () -. t in
  if not (drained ()) then failwith "cluster: warming did not drain in 3600s";
  (* a drained queue is not a warmed store: a failed warm drains too.
     Demand every queued object actually computed, with the full stat
     on failure so a miss is diagnosable instead of a qps shortfall. *)
  (let h, _ = crpc (Jsonx.Obj [ ("op", Jsonx.Str "stat") ]) in
   let i path node = Option.value ~default:(-1) (Jsonx.int (jget path node)) in
   let forwarded = i [ "proxy"; "warming"; "warmed" ] h
   and fwd_errors = i [ "proxy"; "warming"; "errors" ] h in
   let shards = Option.value ~default:[] (Jsonx.list (jget [ "shards" ] h)) in
   let computed =
     List.fold_left (fun a s -> a + i [ "stat"; "warming"; "warmed" ] s) 0 shards
   and comp_errors =
     List.fold_left (fun a s -> a + i [ "stat"; "warming"; "errors" ] s) 0 shards
   in
   let n = Array.length cmix in
   if forwarded <> n || fwd_errors <> 0 || computed <> n || comp_errors <> 0
   then
     failwith
       (Printf.sprintf
          "cluster: warming incomplete (forwarded %d/%d err %d, computed \
           %d/%d err %d): %s"
          forwarded n fwd_errors computed n comp_errors (Jsonx.to_string h)));
  note "cluster: warmed %d objects across 2 shards in %.1fs" (Array.length cmix)
    cwarm_s;
  (* force every baseline before the clock starts: cache misses here are
     offline computes that would otherwise bill the serving loop *)
  Array.iter (fun (bench, obj) -> ignore (expected bench obj)) cmix;
  let clats = Hashtbl.create 8 in
  let chits = ref 0 in
  let cident = ref true in
  let lcg = make_lcg () in
  let t = Unix.gettimeofday () in
  for _ = 1 to cdraws do
    let bench, obj = cmix.(cpick lcg) in
    let t1 = Unix.gettimeofday () in
    let h, p = crpc (advf_req ~fi_budget:60_000 bench obj) in
    note_lat clats (served h) (Unix.gettimeofday () -. t1);
    if is_hit h then incr chits;
    match p with
    | None -> failwith ("cluster: no payload for " ^ bench ^ "/" ^ obj)
    | Some p -> if p <> expected bench obj then cident := false
  done;
  let cmix_s = Unix.gettimeofday () -. t in
  let cqps = float_of_int cdraws /. cmix_s in
  let spot_bench, spot_obj = cmix.(0) in
  let spot_ok =
    let _, p = crpc (advf_req ~fi_budget:60_000 spot_bench spot_obj) in
    p = Some (offline_advf spot_bench spot_obj)
  in
  let cident = !cident && spot_ok in
  let cluster_lat = lat_summary clats in
  note "cluster zipf mix: %d draws in %.3fs (%.1f q/s, hit ratio %.3f), \
        byte-identical to offline: %b"
    cdraws cmix_s cqps
    (float_of_int !chits /. float_of_int cdraws)
    cident;
  note_lat_rows cluster_lat;
  if not cident then
    failwith "cluster: payload differs from the single-daemon/offline bytes";
  if (not !quick) && cqps < 3.0 then
    failwith
      (Printf.sprintf "cluster: %.1f q/s on the warmed mix, need >= 3" cqps);
  write_bench "BENCH_store.json"
    [ ( "probe",
        Obj [ ("benchmark", Str probe_bench); ("object", Str probe_obj) ] );
      ("cold_seconds", Float cold_s); ("warm_seconds", Float !warm_s);
      ("warm_speedup", Float speedup);
      ("byte_identical_to_offline", Bool identical);
      ( "zipf",
        Obj [ ("objects", Int n); ("draws", Int draws); ("hits", Int !hits);
              ("hit_ratio", Float hit_ratio); ("seconds", Float mix_s);
              ("queries_per_sec", Float (float_of_int draws /. mix_s));
              latency serial_lat ] );
      ( "cluster",
        Obj [ ("shards", Int 2); ("replication", Int 2); ("draws", Int cdraws);
              ("hits", Int !chits);
              ("hit_ratio", Float (float_of_int !chits /. float_of_int cdraws));
              ("warm_seconds", Float cwarm_s); ("seconds", Float cmix_s);
              ("queries_per_sec", Float cqps);
              ("byte_identical_to_offline", Bool cident);
              latency cluster_lat ] ) ]

(* ------------------------------------------------------------------ *)

(* The masking-kernel benchmark: the batched exhaustive sweep against
   the scalar per-pattern walk on the same objects, plus the campaign
   engine across domain counts with the kernel on. Each sweep runs on a
   fresh context so neither mode inherits the other's warm
   error-equivalence cache. Writes BENCH_kernel.json (full mode only;
   --quick is the CI smoke test). *)

let kernel_bench () =
  section
    "Masking kernel: batched vs scalar exhaustive sweep, \
     domain scaling";
  let pairs =
    if !quick then [ ("LULESH", "m_elemBC") ]
    else [ ("MM", "C"); ("AMG", "ipiv") ]
  in
  let scan0 = Moard_analysis.Masking.scan_executions () in
  let sweep ~batch bench obj =
    let e = Registry.find bench in
    (* fresh context: a shared outcome cache would let whichever mode runs
       second ride on the first one's executions *)
    let ctx = Context.make (e.Registry.workload ()) in
    let t = Unix.gettimeofday () in
    let r = Moard_inject.Exhaustive.campaign ~batch ctx ~object_name:obj in
    let s = Unix.gettimeofday () -. t in
    note "%s %s/%s: %d sites, %d injections, %d runs in %.3fs (%.0f sites/s)"
      (if batch then "batched" else "scalar ")
      bench obj r.Moard_inject.Exhaustive.sites
      r.Moard_inject.Exhaustive.injections r.Moard_inject.Exhaustive.runs s
      (float_of_int r.Moard_inject.Exhaustive.sites /. s);
    (r, s, Context.inject_steps ctx)
  in
  let rows =
    List.map
      (fun (bench, obj) ->
        let sr, ss, ssteps = sweep ~batch:false bench obj in
        let br, bs, bsteps = sweep ~batch:true bench obj in
        let open Moard_inject.Exhaustive in
        if
          (sr.sites, sr.injections, sr.same, sr.acceptable, sr.incorrect,
           sr.crashed)
          <> (br.sites, br.injections, br.same, br.acceptable, br.incorrect,
              br.crashed)
        then failwith ("kernel: outcome counts drifted on " ^ bench);
        let speedup = ss /. bs in
        Printf.printf
          "  %s/%s: %.3fs scalar -> %.3fs batched (%.1fx); executions %d -> \
           %d; injected steps %d -> %d\n%!"
          bench obj ss bs speedup sr.runs br.runs ssteps bsteps;
        (bench, obj, sr, ss, ssteps, br, bs, bsteps, speedup))
      pairs
  in
  (* The whole point of the kernel: most patterns never reach the VM.
     Every pair must clear 5x; the address-arithmetic object (AMG's ipiv
     pivot indices, whose corrupted lanes redirect later loads and stores)
     must clear 10x — the golden-memory replay resolves redirected
     addresses analytically instead of falling through to injection. *)
  let scan_execs = Moard_analysis.Masking.scan_executions () - scan0 in
  if scan_execs <> 0 then
    failwith
      (Printf.sprintf
         "kernel: %d scalar-walk executions under single-bit (want 0)"
         scan_execs);
  List.iter
    (fun (bench, obj, sr, _, ssteps, br, _, bsteps, speedup) ->
      let open Moard_inject.Exhaustive in
      (* Savings show up as avoided executions (analytically decided
         lanes) or, where every lane genuinely needs ground truth, as
         avoided dynamic instructions (checkpoint-resumed suffixes). *)
      if br.runs >= sr.runs && 2 * bsteps >= ssteps then
        failwith ("kernel: no execution savings on " ^ bench);
      let floor = if bench = "AMG" && obj = "ipiv" then 10.0 else 5.0 in
      if (not !quick) && speedup < floor then
        failwith
          (Printf.sprintf "kernel: batched sweep %.1fx on %s/%s (want %.0fx)"
             speedup bench obj floor))
    rows;
  (* campaign engine across requested domain counts, kernel on: clamping
     each count to the host ([Exec.cap_domains], as the CLI does) means
     oversubscription degrades to a smaller pool instead of a slower
     convoy. On a single-core host
     every count degrades to the sequential schedule, so the scaling table
     would only measure noise — skip it and annotate the JSON instead. *)
  let bench, obj = List.hd pairs in
  let e = Registry.find bench in
  let ctx = ctx_of e in
  let module Plan = Moard_campaign.Plan in
  let module Engine = Moard_campaign.Engine in
  let plan = Plan.make ~seed:42 ~ci_width:0.02 ctx ~objects:[ obj ] in
  let single_core = single_core () in
  let domain_counts = scaling_domains () in
  let druns =
    List.map
      (fun d ->
        let t = Unix.gettimeofday () in
        let r =
          Engine.run ~domains:(Moard_inject.Exec.cap_domains d) ctx plan
        in
        let s = Unix.gettimeofday () -. t in
        note "campaign %s/%s on %d domain(s): %.3fs" bench obj d s;
        (d, s, Moard_report.Campaign_report.stable_json r))
      domain_counts
  in
  let _, t1, j1 = List.hd druns in
  if not (List.for_all (fun (_, _, j) -> j = j1) druns) then
    failwith "kernel: campaign report drifted across domain counts";
  let _, tmax, _ = List.nth druns (List.length druns - 1) in
  if single_core then
    Printf.printf
      "\n\
       campaign domain-scaling table skipped: host has 1 recommended \
       domain (nothing to scale over)\n"
  else begin
    Printf.printf
      "\n\
       campaign report bit-identical across domain counts: true\n\
       domains=%d vs domains=1 wall clock: %.3fs vs %.3fs (no \
       oversubscription penalty)\n"
      (List.nth domain_counts (List.length domain_counts - 1))
      tmax t1;
    if tmax > t1 *. 1.5 +. 0.05 then
      failwith "kernel: oversubscribed domains slower than sequential"
  end;
  let sweep_json s runs steps sites =
    Obj [ ("seconds", Float s); ("runs", Int runs);
          ("injected_steps", Int steps);
          ("sites_per_sec", Float (float_of_int sites /. s)) ]
  in
  let row (bench, obj, sr, ss, ssteps, br, bs, bsteps, speedup) =
    let open Moard_inject.Exhaustive in
    Obj [ ("benchmark", Str bench); ("object", Str obj);
          ("sites", Int sr.sites); ("injections", Int sr.injections);
          ("success_rate", hex sr.success_rate);
          ("success_rate_decimal", Float sr.success_rate);
          ("scalar", sweep_json ss sr.runs ssteps sr.sites);
          ("batched", sweep_json bs br.runs bsteps br.sites);
          ("speedup", Float speedup) ]
  in
  write_bench "BENCH_kernel.json"
    ([ ("scan_executions", Int scan_execs);
       ("sweeps", Arr (List.map row rows)) ]
    @ domains_fields ~key:"campaign_domains" druns)

let chaos_bench () =
  section "Chaos: survival economy of the serving stack under injected faults";
  (* the cost of resilience: sweep the per-operation fault rate and
     measure what the serving stack pays — retries, recomputes,
     quarantines — to keep every surviving response byte-identical.
     rate 0 is the control: the shims are in place but silent, so its
     wall clock is the harness overhead floor *)
  let module Harness = Moard_cluster.Harness in
  let rates = if !quick then [ 0.08 ] else [ 0.0; 0.08; 0.25 ] in
  let seed = 7 and rounds = if !quick then 1 else 2 in
  let runs =
    List.map
      (fun rate ->
        let t = Unix.gettimeofday () in
        let r =
          Harness.run ~seed ~rounds ~rate ~ci_width:0.05 (Harness.daemon ())
        in
        let s = Unix.gettimeofday () -. t in
        let injected =
          List.fold_left (fun a (_, _, i) -> a + i) 0 r.Harness.fault_stats
        in
        note
          "rate %.2f: %d requests, %d identical, %d typed, %d transport, %d \
           faults injected, survived %b (%.1fs)"
          rate r.Harness.requests r.Harness.identical
          (List.fold_left (fun a (_, n) -> a + n) 0 r.Harness.typed_errors)
          r.Harness.transport_failures injected r.Harness.survived s;
        if not r.Harness.survived then
          failwith (Printf.sprintf "chaos: rate %.2f did not survive" rate);
        (rate, s, injected, r))
      rates
  in
  Printf.printf "\nall %d chaos rates survived: true\n" (List.length runs);
  let row (rate, s, injected, r) =
    Obj [ ("rate", Float rate); ("seconds", Float s);
          ("requests", Int r.Harness.requests);
          ("identical", Int r.Harness.identical);
          ("transport_failures", Int r.Harness.transport_failures);
          ("faults_injected", Int injected);
          ( "quarantined",
            Int (List.assoc "store_quarantined" r.Harness.health) );
          ("schedule_hash", Str r.Harness.schedule_hash);
          ("survived", Bool r.Harness.survived) ]
  in
  write_bench "BENCH_chaos.json"
    [ ("seed", Int seed); ("rounds", Int rounds);
      ("rates", Arr (List.map row runs)) ]

(* ------------------------------------------------------------------ *)

(* The cross-input-size predictor against holdout ground truth: fit on
   the registry's training sizes, extrapolate to the holdout size, then
   pay for the campaign the predictor avoided and compare. Reports the
   wall-clock of fit+predict against the holdout campaign and the
   per-object absolute error. Writes BENCH_predict.json (full mode only;
   --quick is the CI smoke test). *)

let predict_bench () =
  let module Predict = Moard_predict.Predict in
  let module Plan = Moard_campaign.Plan in
  let module Engine = Moard_campaign.Engine in
  let cases =
    if !quick then [ ("MM", "C") ]
    else
      [
        ("MM", "C");
        ("ABFT_MM", "C");
        ("PF", "xe");
        ("ABFT_PF", "xe");
        ("BT", "grid_points");
        ("BT", "u");
        ("SP", "rhoi");
        ("SP", "grid_points");
        ("LU", "u");
        ("LU", "rsd");
        ("LULESH", "m_elemBC");
        ("LULESH", "m_delv_zeta");
      ]
  in
  section "Cross-input-size prediction vs holdout campaign";
  let rows =
    List.map
      (fun (bench, obj) ->
        let e = Registry.find bench in
        let sizes = Registry.training_sizes e in
        let target = Registry.holdout_size e in
        let t = Unix.gettimeofday () in
        let p =
          Predict.run
            ~workloads:(List.map (fun n -> (n, e.Registry.workload_at n)) sizes)
            ~object_name:obj ~target ()
        in
        let predict_s = Unix.gettimeofday () -. t in
        let t = Unix.gettimeofday () in
        let ctx = Context.make (e.Registry.workload_at target) in
        let plan = Plan.make ctx ~objects:[ obj ] in
        let r = Engine.run ctx plan in
        let truth_s = Unix.gettimeofday () -. t in
        let o = r.Engine.objects.(0) in
        let truth = o.Engine.estimate in
        let err = Float.abs (p.Predict.advf -. truth) in
        let covered =
          p.Predict.advf_ci.Moard_stats.Confidence.lo <= truth
          && truth <= p.Predict.advf_ci.Moard_stats.Confidence.hi
        in
        note
          "%s/%s @%d: predicted %.4f [%.4f, %.4f] in %.2fs, truth %.4f in \
           %.2fs -> |err| %.4f%s (%.1fx faster)"
          bench obj target p.Predict.advf
          p.Predict.advf_ci.Moard_stats.Confidence.lo
          p.Predict.advf_ci.Moard_stats.Confidence.hi predict_s truth truth_s
          err
          (if covered then ", covered" else ", MISSED")
          (truth_s /. Float.max 1e-9 predict_s);
        (bench, obj, target, p, predict_s, truth, truth_s, err, covered))
      cases
  in
  let worst =
    List.fold_left (fun a (_, _, _, _, _, _, _, e, _) -> Float.max a e) 0.0 rows
  in
  let covered_n =
    List.length (List.filter (fun (_, _, _, _, _, _, _, _, c) -> c) rows)
  in
  Printf.printf "\nworst |err| %.4f; CI covered truth for %d/%d objects\n"
    worst covered_n (List.length rows);
  let row (bench, obj, target, p, predict_s, truth, truth_s, err, covered) =
    let ci = p.Predict.advf_ci in
    Obj [ ("benchmark", Str bench); ("object", Str obj); ("target", Int target);
          ("training_sizes", Arr (List.map (fun n -> Int n) p.Predict.sizes));
          ("predicted", Float p.Predict.advf);
          ( "ci",
            Arr [ Float ci.Moard_stats.Confidence.lo;
                  Float ci.Moard_stats.Confidence.hi ] );
          ("truth", Float truth); ("abs_error", Float err);
          ("covered", Bool covered); ("predict_seconds", Float predict_s);
          ("truth_seconds", Float truth_s);
          ("speedup", Float (truth_s /. Float.max 1e-9 predict_s)) ]
  in
  write_bench "BENCH_predict.json"
    [ ("worst_abs_error", Float worst); ("ci_covered", Int covered_n);
      ("objects", Arr (List.map row rows)) ]

(* ------------------------------------------------------------------ *)

(* The resilience-advisor benchmark: run the full advisor pipeline
   (rank, protect, re-measure) per benchmark, assert a second run is
   byte-identical, and report each object's Pareto front of protection
   plans — residual vulnerability against instruction overhead. Writes
   BENCH_advise.json (full mode only; --quick is the CI smoke test). *)

let advise_bench () =
  let module Advise = Moard_advise.Advise in
  let module Advise_report = Moard_report.Advise_report in
  let cases = if !quick then [ "MM" ] else [ "MM"; "CG" ] in
  section "Resilience advisor: protection plans and residual aDVF";
  let rows =
    List.map
      (fun bench ->
        let e = Registry.find bench in
        let w = e.Registry.workload () in
        let t = Unix.gettimeofday () in
        let r = Advise.run w in
        let advise_s = Unix.gettimeofday () -. t in
        let payload = Advise_report.stable_json r in
        let again = Advise_report.stable_json (Advise.run w) in
        if payload <> again then failwith "advise: report drifted on re-run";
        List.iter
          (fun (o : Advise.object_advice) ->
            note "%s/%s: vuln %.4f, contribution %.3g%s" bench
              o.Advise.object_name o.Advise.vulnerability
              o.Advise.contribution
              (match o.Advise.recommended with
              | None -> " (no plan recommended)"
              | Some id -> " -> " ^ id);
            List.iter
              (fun (p : Advise.plan_outcome) ->
                note "  %-18s residual %.4f reduction %8.1fx overhead %.2fx%s"
                  p.Advise.id p.Advise.vulnerability p.Advise.reduction
                  p.Advise.overhead
                  (if p.Advise.pareto then " [pareto]" else ""))
              o.Advise.plans)
          r.Advise.objects;
        note "%s advised in %.2fs (x2 for the determinism check)" bench
          advise_s;
        (bench, r, advise_s))
      cases
  in
  let plan_json (p : Advise.plan_outcome) =
    Obj [ ("plan", Str p.Advise.id);
          ("residual_vulnerability", Float p.Advise.vulnerability);
          ("reduction", Float p.Advise.reduction);
          ("overhead", Float p.Advise.overhead);
          ("pareto", Bool p.Advise.pareto) ]
  in
  let object_json (o : Advise.object_advice) =
    Obj [ ("object", Str o.Advise.object_name);
          ("vulnerability", Float o.Advise.vulnerability);
          ("contribution", Float o.Advise.contribution);
          ( "recommended",
            match o.Advise.recommended with None -> Null | Some id -> Str id );
          ("plans", Arr (List.map plan_json o.Advise.plans)) ]
  in
  let row (bench, (r : Advise.t), advise_s) =
    Obj [ ("benchmark", Str bench); ("seconds", Float advise_s);
          ("golden_steps", Int r.Advise.base_steps);
          ("objects", Arr (List.map object_json r.Advise.objects)) ]
  in
  write_bench "BENCH_advise.json" [ ("benchmarks", Arr (List.map row rows)) ]

(* The parallel-resilience benchmark: for every kernel with an SPMD port
   (MM, CG, LULESH), time the serial aDVF analysis against the port at
   one hart and at N harts, assert the one-hart port is bit-identical to
   serial, and report the shared vs hart-private split with its delta
   against the serial figure — the `moard parallel` comparison as a
   benchmark. Writes BENCH_parallel.json (full mode only; --quick is the
   CI smoke test). *)

let parallel_bench () =
  let module Hart_split = Moard_core.Hart_split in
  let harts = 3 in
  section
    (Printf.sprintf
       "Parallel resilience: serial vs SPMD port at %d harts (shared vs \
        hart-private aDVF)"
       harts);
  let ports =
    List.filter
      (fun (e : Registry.entry) -> e.Registry.parallel_at <> None)
      Registry.all
  in
  let ports = if !quick then [ Registry.find "MM" ] else ports in
  let rows =
    List.concat_map
      (fun (e : Registry.entry) ->
        let port = Option.get e.Registry.parallel_at in
        let size = e.Registry.default_size in
        let serial_ctx = Context.make (e.Registry.workload ()) in
        let par1_ctx = Context.make (port ~harts:1 size) in
        let parn_ctx = Context.make (port ~harts size) in
        List.map
          (fun obj ->
            let timed f =
              let t = Unix.gettimeofday () in
              let r = f () in
              (r, Unix.gettimeofday () -. t)
            in
            let serial, ss =
              timed (fun () ->
                  Model.analyze ~options serial_ctx ~object_name:obj)
            in
            let par1, s1 =
              timed (fun () ->
                  Model.analyze ~options par1_ctx ~object_name:obj)
            in
            let parn, sn =
              timed (fun () ->
                  Hart_split.analyze ~options parn_ctx ~object_name:obj)
            in
            let identical =
              serial.Advf.involvements = par1.Advf.involvements
              && Int64.bits_of_float serial.Advf.advf
                 = Int64.bits_of_float par1.Advf.advf
              && Int64.bits_of_float serial.Advf.masking_events
                 = Int64.bits_of_float par1.Advf.masking_events
            in
            note
              "%s/%s: serial %.4f (%.2fs) | port@1 %.4f (%.2fs) | port@%d \
               %.4f (%.2fs, %d/%d sites shared)"
              e.Registry.benchmark obj serial.Advf.advf ss par1.Advf.advf s1
              harts parn.Hart_split.total.Advf.advf sn
              parn.Hart_split.shared_sites parn.Hart_split.sites;
            if not identical then
              failwith
                (Printf.sprintf "parallel: %s/%s port@1 differs from serial"
                   e.Registry.benchmark obj);
            (e.Registry.benchmark, obj, serial, ss, par1, s1, parn, sn))
          e.Registry.objects)
      ports
  in
  let total_shared =
    List.fold_left
      (fun a (_, _, _, _, _, _, p, _) ->
        a + p.Hart_split.shared_sites)
      0 rows
  in
  Printf.printf
    "\n\
     port@1 bit-identical to serial for all %d objects: true\n\
     shared consumption sites across all ports at %d harts: %d\n"
    (List.length rows) harts total_shared;
  let advf_json ?seconds (r : Advf.report) =
    Obj
      ([ ("sites", Int r.Advf.involvements); ("advf", hex r.Advf.advf);
         ("advf_decimal", Float r.Advf.advf) ]
      @ Option.fold ~none:[] ~some:(fun s -> [ ("seconds", Float s) ]) seconds)
  in
  let part = Option.fold ~none:Null ~some:advf_json in
  let row (bench, obj, serial, ss, par1, s1, parn, sn) =
    let total = parn.Hart_split.total.Advf.advf in
    Obj [ ("benchmark", Str bench); ("object", Str obj);
          ("serial", advf_json ~seconds:ss serial);
          ("parallel_1", advf_json ~seconds:s1 par1);
          ("parallel_1_bit_identical", Bool true);
          ( "parallel_n",
            Obj [ ("sites", Int parn.Hart_split.sites);
                  ("shared_sites", Int parn.Hart_split.shared_sites);
                  ("advf", hex total); ("advf_decimal", Float total);
                  ("seconds", Float sn);
                  ("advf_delta_vs_serial", Float (total -. serial.Advf.advf));
                  ("shared", part parn.Hart_split.shared);
                  ("private", part parn.Hart_split.private_) ] ) ]
  in
  write_bench "BENCH_parallel.json"
    [ ("harts", Int harts); ("objects", Arr (List.map row rows)) ]

let experiments =
  [
    ("table1", table1);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("bound", bound);
    ("ablation", ablation);
    ("timing", timing);
    ("pipeline", pipeline);
    ("campaign", campaign);
    ("kernel", kernel_bench);
    ("parallel", parallel_bench);
    ("store", store_bench);
    ("chaos", chaos_bench);
    ("predict", predict_bench);
    ("advise", advise_bench);
  ]

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let quick_flags, names = List.partition (fun a -> a = "--quick") argv in
  quick := quick_flags <> [];
  let args =
    match names with [] -> List.map fst experiments | rest -> rest
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown experiment %S; known: %s\n" name
          (String.concat ", " (List.map fst experiments));
        exit 2)
    args;
  Printf.printf "\nAll requested experiments completed in %.1fs.\n" (elapsed ())
