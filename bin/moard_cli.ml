(* The MOARD command-line tool.

     moard list                          -- benchmark inventory (Table I)
     moard analyze CG -o r -o colidx     -- aDVF analysis of data objects
     moard exhaustive LULESH -o m_x      -- exhaustive fault injection
     moard rfi LULESH -o m_x -n 1000     -- random fault injection campaign
     moard trace CG --limit 40           -- dump the dynamic IR trace
     moard objects CG                    -- data objects and address ranges
     moard serve                         -- the moardd analysis daemon
     moard query advf CG -o r            -- cached query (daemon or offline)
     moard predict CG -o r --target 24    -- cross-input-size extrapolation
     moard advise MM                     -- protection plans + residual aDVF
     moard store stat|gc|fsck            -- result-store maintenance
     moard campaign fsck --journal J     -- verify a journal offline
     moard parallel MM --harts 4         -- serial vs SPMD-port resilience
     moard chaos --seed 7                -- fault-inject the daemon itself

   Exit codes: 0 success; 1 runtime error (analysis failure, I/O, a
   daemon that is not there); 2 usage error (unknown command, bad
   arguments, conflicting options). *)

open Cmdliner
module Registry = Moard_kernels.Registry
module Context = Moard_inject.Context
module Errmodel = Moard_bits.Errmodel
module Model = Moard_core.Model
module Advf = Moard_core.Advf
module Store = Moard_store.Store
module Query = Moard_store.Query
module Key = Moard_store.Key
module Daemon = Moard_server.Daemon
module Ops = Moard_server.Ops
module Client = Moard_server.Client
module Jsonx = Moard_server.Jsonx

(* A usage error discovered after parsing (e.g. conflicting options):
   reported like cmdliner's own and exits 2, where runtime failures
   exit 1. *)
exception Usage of string

let usage fmt = Printf.ksprintf (fun s -> raise (Usage s)) fmt

let entry_conv =
  let parse s =
    match Registry.find s with
    | e -> Ok e
    | exception Not_found ->
      Error
        (`Msg
           (Printf.sprintf "unknown benchmark %S (try: %s)" s
              (String.concat ", "
                 (List.map
                    (fun e -> e.Registry.benchmark)
                    Registry.all))))
  in
  let print ppf e = Format.pp_print_string ppf e.Registry.benchmark in
  Arg.conv (parse, print)

let bench_arg =
  Arg.(
    required
    & pos 0 (some entry_conv) None
    & info [] ~docv:"BENCHMARK" ~doc:"Benchmark name from the registry.")

let objects_arg =
  Arg.(
    value & opt_all string []
    & info [ "o"; "object" ] ~docv:"NAME"
        ~doc:"Target data object (repeatable; default: the benchmark's \
              Table-I objects).")

let setup_logs =
  let setup style_renderer level =
    Fmt_tty.setup_std_outputs ?style_renderer ();
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level level
  in
  Term.(const setup $ Fmt_cli.style_renderer () $ Logs_cli.level ())

let pick_objects (e : Registry.entry) = function
  | [] -> e.Registry.objects
  | objs -> objs

let errmodel_conv =
  let parse s =
    match Errmodel.of_string s with
    | Ok m -> Ok m
    | Error msg -> Error (`Msg msg)
  in
  let print ppf m = Format.pp_print_string ppf (Errmodel.to_string m) in
  Arg.conv (parse, print)

let error_model_arg =
  Arg.(
    value
    & opt errmodel_conv Errmodel.Single_bit
    & info [ "error-model" ] ~docv:"MODEL"
        ~doc:"Error model whose patterns are swept per fault site: \
              $(i,single-bit) (default, one flipped bit), $(i,double-bit) \
              (adjacent pair), $(i,byte-burst) (aligned 8-bit burst) or \
              $(i,whole-word) (every bit). Non-default models get their \
              own store keys, journal headers and report labels.")

let k_arg =
  Arg.(
    value
    & opt int Model.default_options.Model.k
    & info [ "k" ] ~doc:"Error-propagation window (paper: 50).")

let fi_budget_arg =
  Arg.(
    value
    & opt int Model.default_options.Model.fi_budget
    & info [ "fi-budget" ]
        ~doc:"Max deterministic fault-injection runs (-1 = unlimited).")

(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    Format.printf "%a@." Registry.pp_table1 ();
    Format.printf "Case studies: %s@."
      (String.concat ", "
         (List.map (fun e -> e.Registry.benchmark) Registry.case_studies))
  in
  Cmd.v (Cmd.info "list" ~doc:"Show the benchmark inventory (Table I).")
    Term.(const run $ setup_logs)

let optimize_flag =
  Arg.(
    value & flag
    & info [ "optimize"; "O2" ]
        ~doc:"Optimize the program (const-fold, copy-prop, DCE) before the \
              analysis -- the SVII-A code-optimization study.")

let parallel_ports =
  List.filter_map
    (fun e ->
      Option.map (fun _ -> e.Registry.benchmark) e.Registry.parallel_at)
    Registry.all

(* The registry workload at a hart count: 1 is the serial program;
   anything above needs the benchmark's SPMD port — asking for harts on a
   kernel without one is a usage error (exit 2), never a silent serial
   run. *)
let workload_for (e : Registry.entry) ~harts =
  if harts = 1 then e.Registry.workload ()
  else if harts < 1 || harts > Moard_vm.Machine.max_harts then
    usage "--harts %d: expected a count between 1 and %d" harts
      Moard_vm.Machine.max_harts
  else
    match e.Registry.parallel_at with
    | Some port -> port ~harts e.Registry.default_size
    | None ->
      usage "%s has no parallel port; --harts above 1 needs one of: %s"
        e.Registry.benchmark
        (String.concat ", " parallel_ports)

let harts_arg =
  Arg.(
    value & opt int 1
    & info [ "harts" ] ~docv:"N"
        ~doc:"Execute the benchmark's SPMD parallel port on $(docv) \
              cooperative harts (deterministic round-robin schedule, \
              shared memory, explicit barriers). Only benchmarks with a \
              parallel port accept $(docv) > 1 -- anywhere else it is a \
              usage error (exit 2). Default 1: the serial program.")

let make_ctx ?(harts = 1) (e : Registry.entry) ~optimize =
  let w = workload_for e ~harts in
  let w =
    if optimize then
      { w with
        Moard_inject.Workload.program =
          Moard_opt.Passes.optimize w.Moard_inject.Workload.program }
    else w
  in
  Context.make w

let analyze_cmd =
  let run () e objs k fi_budget no_cache optimize jobs no_batch model harts =
    let options =
      { Model.default_options with k; fi_budget; use_cache = not no_cache;
        batch = not no_batch; model }
    in
    (* One context -- and therefore one golden execution -- no matter how
       many objects or domains. *)
    let ctx = make_ctx ~harts e ~optimize in
    let tape = Context.tape ctx in
    Logs.info (fun m ->
        m "golden tape: %d events, %d bytes packed (%d golden execution%s)"
          (Moard_trace.Tape.length tape)
          (Moard_trace.Tape.packed_bytes tape)
          (Context.golden_executions ())
          (if Context.golden_executions () = 1 then "" else "s"));
    List.iter
      (fun obj ->
        let r =
          if jobs > 1 then
            Moard_parallel.Parallel_model.analyze_ctx ~options ~domains:jobs
              ctx ~object_name:obj
          else Model.analyze ~options ctx ~object_name:obj
        in
        Format.printf "%a@.@." Advf.pp_report r)
      (pick_objects e objs)
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs"; "domains" ] ~docv:"N"
          ~doc:"Analyze consumption sites on this many domains in parallel \
                (the golden run is still executed and traced only once).")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Disable the error-equivalence cache.")
  in
  let no_batch =
    Arg.(
      value & flag
      & info [ "no-batch" ]
          ~doc:"Disable the bit-parallel masking kernel and resolve every \
                error pattern individually (the scalar oracle). Reports \
                are byte-identical with or without this flag; only \
                wall-clock time changes. Differential-testing aid.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Compute aDVF for data objects of a benchmark (the model).")
    Term.(
      const run $ setup_logs $ bench_arg $ objects_arg $ k_arg $ fi_budget_arg
      $ no_cache $ optimize_flag $ jobs_arg $ no_batch $ error_model_arg
      $ harts_arg)

let exhaustive_cmd =
  let run () e objs stride model harts =
    let ctx = Context.make (workload_for e ~harts) in
    List.iter
      (fun obj ->
        let r =
          Moard_inject.Exhaustive.campaign ~model ~pattern_stride:stride ctx
            ~object_name:obj
        in
        Format.printf "%a@." Moard_inject.Exhaustive.pp_result r)
      (pick_objects e objs)
  in
  let stride =
    Arg.(
      value & opt int 1
      & info [ "stride" ]
          ~doc:"Sample every Nth bit position (1 = truly exhaustive).")
  in
  Cmd.v
    (Cmd.info "exhaustive"
       ~doc:"Exhaustive fault injection over all valid fault sites.")
    Term.(
      const run $ setup_logs $ bench_arg $ objects_arg $ stride
      $ error_model_arg $ harts_arg)

let rfi_cmd =
  let run () e objs tests seed =
    let ctx = Context.make (e.Registry.workload ()) in
    List.iter
      (fun obj ->
        let r =
          Moard_inject.Random_fi.campaign ~seed ~tests ctx ~object_name:obj
        in
        Format.printf "%a@." Moard_inject.Random_fi.pp_result r)
      (pick_objects e objs)
  in
  let tests =
    Arg.(
      value & opt int 1000
      & info [ "n"; "tests" ] ~doc:"Number of fault-injection tests.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  Cmd.v
    (Cmd.info "rfi" ~doc:"Traditional random fault injection (the baseline).")
    Term.(const run $ setup_logs $ bench_arg $ objects_arg $ tests $ seed)

let trace_cmd =
  let run () e limit offset =
    let ctx = Context.make (e.Registry.workload ()) in
    let tape = Context.tape ctx in
    let n = Moard_trace.Tape.length tape in
    Format.printf "golden trace: %d dynamic instructions@." n;
    let stop = match limit with 0 -> n | l -> min n (offset + l) in
    for t = offset to stop - 1 do
      Format.printf "%a@." Moard_trace.Event.pp (Moard_trace.Tape.get tape t)
    done
  in
  let limit =
    Arg.(
      value & opt int 50
      & info [ "limit" ] ~doc:"Events to print (0 = all).")
  in
  let offset =
    Arg.(value & opt int 0 & info [ "offset" ] ~doc:"First event to print.")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Dump the dynamic IR trace of the golden run.")
    Term.(const run $ setup_logs $ bench_arg $ limit $ offset)

let dump_ir_cmd =
  let run () e optimize =
    let w = e.Registry.workload () in
    let p = w.Moard_inject.Workload.program in
    let p = if optimize then Moard_opt.Passes.optimize p else p in
    print_string (Moard_ir.Text.to_string p)
  in
  Cmd.v
    (Cmd.info "dump-ir"
       ~doc:"Print a benchmark's program in the textual IR format.")
    Term.(const run $ setup_logs $ bench_arg $ optimize_flag)

let bound_cmd =
  let run () e objs samples =
    let ctx = Context.make (e.Registry.workload ()) in
    List.iter
      (fun obj ->
        Format.printf "%s:@." obj;
        List.iter
          (fun (p : Moard_core.Bound.point) ->
            Format.printf
              "  k=%-4d masked %d / survivors %d -> %.3f incorrect@."
              p.Moard_core.Bound.k p.Moard_core.Bound.masked_within_k
              p.Moard_core.Bound.survivors p.Moard_core.Bound.fraction_incorrect)
          (Moard_core.Bound.study ~samples ~k_values:[ 5; 10; 20; 50 ] ctx
             ~object_name:obj))
      (pick_objects e objs)
  in
  let samples =
    Arg.(
      value & opt int 125
      & info [ "samples" ] ~doc:"Random faults to examine per object.")
  in
  Cmd.v
    (Cmd.info "bound"
       ~doc:"The SIII-D propagation-bound study for a benchmark.")
    Term.(const run $ setup_logs $ bench_arg $ objects_arg $ samples)

let plan_cmd =
  let run () e budget fi_budget =
    let ctx = Context.make (e.Registry.workload ()) in
    let options = { Model.default_options with fi_budget } in
    let reports =
      List.map
        (fun o -> Model.analyze ~options ctx ~object_name:o)
        e.Registry.objects
    in
    let plan =
      Moard_core.Placement.plan ~budget
        (List.map (Moard_core.Placement.candidate ~cost:1.0) reports)
    in
    Format.printf "%a@." Moard_core.Placement.pp_plan plan
  in
  let budget =
    Arg.(
      value & opt float 1.0
      & info [ "budget" ]
          ~doc:"Total protection budget (each object costs 1.0).")
  in
  let fi_budget =
    Arg.(
      value & opt int 30_000
      & info [ "fi-budget" ] ~doc:"Fault-injection budget for the analysis.")
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Analyze a benchmark's target objects and plan which to \
             protect under a budget.")
    Term.(const run $ setup_logs $ bench_arg $ budget $ fi_budget)

(* ------------------------------------------------------------------ *)

module Plan = Moard_campaign.Plan
module Engine = Moard_campaign.Engine
module Journal = Moard_campaign.Journal
module Campaign_report = Moard_report.Campaign_report
module Predict = Moard_predict.Predict
module Predict_report = Moard_report.Predict_report
module Advise = Moard_advise.Advise
module Advise_report = Moard_report.Advise_report

let store_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:"Content-addressed result store directory.")

let open_store dir = Store.open_store ~dir ()

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign seed.")

let ci_width_arg =
  Arg.(
    value & opt float 0.02
    & info [ "ci-width" ] ~docv:"W"
        ~doc:"Target half-width of the confidence interval around each \
              object's masking estimate (the stopping rule).")

let confidence_arg =
  Arg.(
    value & opt float 0.95
    & info [ "confidence" ]
        ~doc:"Confidence level (0.80, 0.90, 0.95, 0.98 or 0.99).")

let batch_arg =
  Arg.(
    value & opt int 64
    & info [ "batch" ] ~doc:"Samples resolved between stopping checks.")

let max_samples_arg =
  Arg.(
    value & opt int (-1)
    & info [ "max-samples" ]
        ~doc:"Per-object sample cap (-1 = none; the population itself \
              always bounds the campaign).")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "domains" ] ~docv:"N"
        ~doc:"Resolve each batch's distinct injections on this many \
              domains. Reports are bit-identical for any value.")

let journal_arg =
  Arg.(
    value & opt (some string) None
    & info [ "journal" ] ~docv:"PATH"
        ~doc:"Journal file: every committed batch lands here, and a \
              killed campaign resumes from it with $(b,campaign resume).")

let out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "out" ] ~docv:"PATH"
        ~doc:"Write the machine-readable JSON report here.")

let stable_flag =
  Arg.(
    value & flag
    & info [ "stable" ]
        ~doc:"Strip the performance section from the JSON report, leaving \
              only the deterministic part (for golden-snapshot diffing).")

let emit_report r ~out ~stable =
  (match out with
  | Some path ->
    let oc = open_out path in
    output_string oc
      (if stable then Campaign_report.stable_json r else Campaign_report.json r);
    close_out oc
  | None -> ());
  Format.printf "%a@." Campaign_report.pp r

let campaign_plan_cmd =
  let run () e objs seed confidence ci_width batch max_samples model harts =
    let ctx = Context.make (workload_for e ~harts) in
    let plan =
      Plan.make ~model ~seed ~confidence ~ci_width ~batch ~max_samples ctx
        ~objects:(pick_objects e objs)
    in
    Format.printf
      "plan %s: workload %s%s%s, seed %d, confidence %g, target halfwidth \
       %g, batch %d@."
      (Plan.hash plan) plan.Plan.workload_name
      (if plan.Plan.model <> Errmodel.Single_bit then
         ", error model " ^ Errmodel.to_string plan.Plan.model
       else "")
      (if plan.Plan.harts <> 1 then
         Printf.sprintf " on %d harts" plan.Plan.harts
       else "")
      plan.Plan.seed
      plan.Plan.confidence plan.Plan.ci_width plan.Plan.batch;
    Array.iter
      (fun (o : Plan.objective) ->
        Format.printf "@.%s: population %d over %d sites@." o.Plan.object_name
          o.Plan.population (Array.length o.Plan.sites);
        Array.iter
          (fun (s : Plan.stratum) ->
            if s.Plan.population > 0 then
              Format.printf "  %-22s %d@." s.Plan.label s.Plan.population)
          o.Plan.strata)
      plan.Plan.objectives;
    Format.printf
      "@.worst-case samples to halfwidth %g at %g confidence: %d per object \
       (population permitting)@."
      plan.Plan.ci_width plan.Plan.confidence
      (Moard_stats.Confidence.tests_needed ~z:plan.Plan.z ~e:plan.Plan.ci_width
         ())
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Enumerate and stratify the fault-site population; print the \
             campaign design without running it.")
    Term.(
      const run $ setup_logs $ bench_arg $ objects_arg $ seed_arg
      $ confidence_arg $ ci_width_arg $ batch_arg $ max_samples_arg
      $ error_model_arg $ harts_arg)

let campaign_run_cmd =
  let run () e objs seed confidence ci_width batch max_samples domains journal
      store_dir out stable model harts =
    (match (journal, store_dir) with
    | Some _, Some _ ->
      usage
        "campaign run: --journal conflicts with --store (the store keeps \
         its own per-plan journal under <store>/journals)"
    | _ -> ());
    let w = workload_for e ~harts in
    let ctx = Context.make w in
    let plan =
      Plan.make ~model ~seed ~confidence ~ci_width ~batch ~max_samples ctx
        ~objects:(pick_objects e objs)
    in
    (* The journal must rebuild the same workload on resume; the default
       is left implicit so pre-existing journals keep resolving. *)
    let journal_meta =
      ("benchmark", e.Registry.benchmark)
      :: (if harts = 1 then [] else [ ("harts", string_of_int harts) ])
    in
    match store_dir with
    | Some dir ->
      let _, payload, status, r =
        Query.campaign (Some (open_store dir)) ~domains ~journal_meta
          ~ctx:(fun () -> ctx)
          ~program:w.Moard_inject.Workload.program ~plan ()
      in
      Logs.app (fun m ->
          m "campaign %s: %s (store %s)" (Plan.hash plan)
            (Query.status_name status) dir);
      (match r with
      | Some r -> emit_report r ~out ~stable
      | None ->
        (* Served straight from the store: the stored payload is the
           stable JSON (no perf section to print). *)
        (match out with
        | Some path ->
          let oc = open_out path in
          output_string oc payload;
          close_out oc
        | None -> print_string payload))
    | None ->
      let r = Engine.run ~domains ?journal ~journal_meta ctx plan in
      emit_report r ~out ~stable
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run a statistical fault-injection campaign: stratified \
             sampling without replacement, confidence-driven stopping, \
             parallel batches over one golden run. With $(b,--store) the \
             report is served from the result store when already known, \
             and stored (keyed by plan hash) when computed.")
    Term.(
      const run $ setup_logs $ bench_arg $ objects_arg $ seed_arg
      $ confidence_arg $ ci_width_arg $ batch_arg $ max_samples_arg
      $ domains_arg $ journal_arg $ store_dir_arg $ out_arg $ stable_flag
      $ error_model_arg $ harts_arg)

let required_journal =
  Arg.(
    required
    & opt (some string) None
    & info [ "journal" ] ~docv:"PATH" ~doc:"Journal of the campaign.")

(* Rebuild context and plan from a journal's meta header. *)
let setup_from_journal path =
  let meta = Journal.read_meta ~path () in
  let get k =
    match List.assoc_opt k meta with
    | Some v -> v
    | None -> failwith ("journal is missing meta key " ^ k)
  in
  let e = Registry.find (get "benchmark") in
  (* pre-parallel journals have no "harts" key: serial *)
  let harts =
    match List.assoc_opt "harts" meta with
    | None -> 1
    | Some s -> int_of_string s
  in
  let w = workload_for e ~harts in
  let ctx = Context.make w in
  let objects = String.split_on_char ',' (get "objects") in
  (* pre-model journals have no "model" key: single-bit *)
  let model =
    match List.assoc_opt "model" meta with
    | None -> Errmodel.Single_bit
    | Some s -> (
      match Errmodel.of_string s with
      | Ok m -> m
      | Error msg -> failwith ("journal meta: " ^ msg))
  in
  let plan =
    Plan.make ~model
      ~seed:(int_of_string (get "seed"))
      ~confidence:(float_of_string (get "confidence"))
      ~ci_width:(float_of_string (get "ci_width"))
      ~batch:(int_of_string (get "batch"))
      ~max_samples:(int_of_string (get "max_samples"))
      ctx ~objects
  in
  (ctx, plan, w.Moard_inject.Workload.program)

let campaign_resume_cmd =
  let run () journal domains store_dir out stable =
    let ctx, plan, program = setup_from_journal journal in
    let r = Engine.resume ~domains ~journal ctx plan in
    (match store_dir with
    | Some dir ->
      let complete =
        Array.for_all
          (fun (o : Engine.object_result) ->
            o.Engine.stopped <> Engine.Interrupted)
          r.Engine.objects
      in
      if complete then begin
        Store.put (open_store dir)
          ~key:(Key.campaign ~program ~plan)
          ~kind:Moard_store.Record.Campaign
          (Query.campaign_payload r);
        Logs.app (fun m -> m "stored campaign %s in %s" (Plan.hash plan) dir)
      end
      else
        Logs.warn (fun m ->
            m "campaign %s still interrupted; not stored" (Plan.hash plan))
    | None -> ());
    emit_report r ~out ~stable
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:"Resume a killed campaign from its journal. The final report \
             is bit-identical to an uninterrupted run of the same plan. \
             With $(b,--store) the completed report is written to the \
             result store.")
    Term.(
      const run $ setup_logs $ required_journal $ domains_arg $ store_dir_arg
      $ out_arg $ stable_flag)

let campaign_report_cmd =
  let run () journal out stable =
    let ctx, plan, _program = setup_from_journal journal in
    (* replay only: zero further batches *)
    let r = Engine.resume ~max_batches:0 ~journal ctx plan in
    emit_report r ~out ~stable
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Report the current state of a campaign from its journal, \
             without injecting anything.")
    Term.(const run $ setup_logs $ required_journal $ out_arg $ stable_flag)

let campaign_fsck_cmd =
  let run () journal =
    let r = Journal.fsck ~path:journal () in
    Format.printf "journal %s@." r.Journal.path;
    Format.printf "  header %s@."
      (if r.Journal.header_ok then
         Printf.sprintf "ok (schema v%d)" Journal.schema_version
       else "DAMAGED");
    (match r.Journal.plan_hash with
    | Some h -> Format.printf "  plan %s@." h
    | None -> ());
    List.iter (fun (k, v) -> Format.printf "  meta %s=%s@." k v) r.Journal.meta;
    Format.printf "  %d committed batch%s, %d record%s@." r.Journal.batches
      (if r.Journal.batches = 1 then "" else "es")
      r.Journal.records
      (if r.Journal.records = 1 then "" else "s");
    if r.Journal.torn_tail then
      Format.printf
        "  torn tail: trailing uncommitted bytes (a resume ignores them)@.";
    (match r.Journal.bad_line with
    | Some n ->
      Format.printf
        "  DAMAGED at line %d: replay trusts only the batches before it@." n
    | None -> ());
    if not r.Journal.header_ok || r.Journal.bad_line <> None then exit 1
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:"Verify a campaign journal offline -- header, per-batch \
             checksums, torn tail -- without injecting or recomputing \
             anything. Exits 1 if any committed batch fails its checksum.")
    Term.(const run $ setup_logs $ required_journal)

let parallel_cmd =
  let run () e objs harts k fi_budget out =
    if harts < 2 then
      usage "parallel: --harts must be at least 2 (got %d); harts=1 is \
             computed alongside for the comparison"
        harts;
    let port =
      match e.Registry.parallel_at with
      | Some port -> port
      | None ->
        usage "%s has no parallel port; try one of: %s" e.Registry.benchmark
          (String.concat ", " parallel_ports)
    in
    let options = { Model.default_options with k; fi_budget } in
    let objects = pick_objects e objs in
    (* Three golden runs: the serial kernel, the SPMD port at one hart
       (differentially equal to serial for the ported kernels), and the
       SPMD port at N harts, whose tape classifies shared state. *)
    let serial_ctx = Context.make (e.Registry.workload ()) in
    let par1_ctx = Context.make (port ~harts:1 e.Registry.default_size) in
    let parn_ctx = Context.make (port ~harts e.Registry.default_size) in
    let sharing = Moard_trace.Sharing.of_tape (Context.tape parn_ctx) in
    let rows =
      List.map
        (fun obj ->
          {
            Moard_report.Parallel_report.object_name = obj;
            serial = Model.analyze ~options serial_ctx ~object_name:obj;
            par1 = Model.analyze ~options par1_ctx ~object_name:obj;
            parn =
              Moard_core.Hart_split.analyze ~options parn_ctx
                ~object_name:obj;
          })
        objects
    in
    let t =
      {
        Moard_report.Parallel_report.benchmark = e.Registry.benchmark;
        harts;
        cells = Moard_trace.Sharing.cells sharing;
        shared_cells = Moard_trace.Sharing.shared_cells sharing;
        rows;
      }
    in
    (match out with
    | Some path ->
      let oc = open_out path in
      output_string oc (Moard_report.Parallel_report.json t);
      close_out oc
    | None -> ());
    Format.printf "%a@." Moard_report.Parallel_report.pp t
  in
  let harts =
    Arg.(
      value & opt int 2
      & info [ "harts" ] ~docv:"N"
          ~doc:"Hart count of the parallel configuration (at least 2; the \
                serial and one-hart columns are always computed).")
  in
  Cmd.v
    (Cmd.info "parallel"
       ~doc:"Compare a kernel's resilience serial vs its SPMD port: aDVF \
             per data object at harts=1 and harts=N, split into shared \
             and hart-private state on the N-hart golden tape.")
    Term.(
      const run $ setup_logs $ bench_arg $ objects_arg $ harts $ k_arg
      $ fi_budget_arg $ out_arg)

let campaign_cmd =
  Cmd.group
    (Cmd.info "campaign"
       ~doc:"Statistical fault-injection campaigns: parallel, resumable, \
             reproducible, with confidence-driven stopping (paper SV).")
    [ campaign_plan_cmd; campaign_run_cmd; campaign_resume_cmd;
      campaign_report_cmd; campaign_fsck_cmd ]

(* ------------------------------------------------------------------ *)
(* The serving stack: the moardd daemon, cached queries and result-store
   maintenance. *)

let socket_arg =
  Arg.(
    value
    & opt string Daemon.default_config.Daemon.socket
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket of the moardd daemon.")

let serve_cmd =
  let run () socket store_dir workers queue timeout =
    let cfg =
      {
        Daemon.default_config with
        Daemon.socket;
        store_dir =
          Option.value ~default:Daemon.default_config.Daemon.store_dir
            store_dir;
        workers;
        queue;
        timeout_s = timeout;
      }
    in
    Logs.app (fun m ->
        m "moardd %s listening on %s (store %s, %d workers, queue %d)"
          Moard_server.Version.version cfg.Daemon.socket
          cfg.Daemon.store_dir cfg.Daemon.workers cfg.Daemon.queue);
    Daemon.run cfg;
    Logs.app (fun m -> m "moardd drained and stopped")
  in
  let workers =
    Arg.(
      value
      & opt int Daemon.default_config.Daemon.workers
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains resolving queries in parallel.")
  in
  let queue =
    Arg.(
      value
      & opt int Daemon.default_config.Daemon.queue
      & info [ "queue" ] ~docv:"N"
          ~doc:"Bounded request queue: beyond this many pending requests \
                the daemon answers $(i,overloaded) instead of queueing \
                (explicit backpressure, no silent drops).")
  in
  let timeout =
    Arg.(
      value
      & opt float Daemon.default_config.Daemon.timeout_s
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-request timeout. A timed-out request still completes \
                in the background and warms the store.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run moardd: the concurrent analysis daemon serving cached \
             aDVF and campaign queries over a Unix socket. SIGTERM \
             drains gracefully (in-flight campaign batches are committed \
             to their journals before exit).")
    Term.(
      const run $ setup_logs $ socket_arg $ store_dir_arg $ workers $ queue
      $ timeout)

(* ---- predict ---- *)

let sizes_arg =
  Arg.(
    value & opt (list int) []
    & info [ "sizes" ] ~docv:"N,N,..."
        ~doc:"Training input sizes: a campaign runs at each (comma \
              separated; default: the benchmark's registered training \
              sizes). Order and duplicates are canonicalized away.")

let target_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "target" ] ~docv:"N"
        ~doc:"Input size to extrapolate to (default: the benchmark's \
              registered holdout size). No injection runs at this size.")

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Print the stable JSON payload on stdout instead of the \
              human report (byte-identical to daemon and store answers).")

let predict_sizes e = function
  | [] -> Registry.training_sizes e
  | sizes -> sizes

let predict_target e = function
  | Some t -> t
  | None -> Registry.holdout_size e

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let predict_cmd =
  let run () e objs sizes target seed confidence ci_width max_samples domains
      store_dir out json model =
    let sizes = predict_sizes e sizes in
    let target = predict_target e target in
    let store = Option.map open_store store_dir in
    List.iter
      (fun obj ->
        let _, payload, status, p =
          Query.predict store ~model ~seed ~confidence ~ci_width ~max_samples
            ~domains ~workload_at:e.Registry.workload_at ~object_name:obj
            ~sizes ~target ()
        in
        Option.iter
          (fun dir ->
            Logs.app (fun m ->
                m "predict %s/%s: %s (store %s)" e.Registry.benchmark obj
                  (Query.status_name status) dir))
          store_dir;
        Option.iter (fun path -> write_file path payload) out;
        if json then print_string payload
        else
          match p with
          | Some p -> Format.printf "%a@." Predict_report.pp p
          | None ->
            (* served from the store: only the stable payload exists *)
            print_string payload)
      (pick_objects e objs)
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:"Extrapolate an object's aDVF to an input size never \
             fault-injected: fit per-stratum outcome rates from campaigns \
             at small training sizes (level 1), fit each stratum's \
             population growth across those sizes (level 2), and combine \
             at the target with propagated confidence intervals. With \
             $(b,--store) the prediction is cached by its training \
             programs and parameters.")
    Term.(
      const run $ setup_logs $ bench_arg $ objects_arg $ sizes_arg
      $ target_arg $ seed_arg $ confidence_arg $ ci_width_arg
      $ max_samples_arg $ domains_arg $ store_dir_arg $ out_arg $ json_flag
      $ error_model_arg)

(* ---- advise ---- *)

let advise_cmd =
  let run () e objs seed confidence ci_width max_samples domains store_dir out
      json model =
    let objects = pick_objects e objs in
    let wl = e.Registry.workload () in
    let emit payload =
      Option.iter (fun path -> write_file path payload) out;
      if json then print_string payload
    in
    match store_dir with
    | Some dir ->
      let _, payload, status =
        Query.advise (Some (open_store dir)) ~model ~seed ~confidence
          ~ci_width ~max_samples ~domains ~workload:wl ~objects ()
      in
      Logs.app (fun m ->
          m "advise %s: %s (store %s)" e.Registry.benchmark
            (Query.status_name status) dir);
      emit payload;
      if not json then print_string payload
    | None ->
      let r =
        Advise.run ~model ~seed ~confidence ~ci_width ~max_samples ~domains
          ~objects wl
      in
      emit (Advise_report.stable_json r);
      if not json then Format.printf "%a@." Advise_report.pp r
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:"The resilience advisor: rank the benchmark's data objects by \
             expected SDC contribution ((1 - aDVF) x size x access rate), \
             apply every applicable protection transform (ABFT checksums, \
             duplication with compare, address clamps) as a \
             behaviour-preserving IR rewrite, and re-measure each \
             protected variant under the same seeded campaign. Emits a \
             per-object Pareto front over (residual vulnerability, \
             instruction overhead) with a recommended plan. With \
             $(b,--store) the report is cached by program, objects and \
             campaign parameters.")
    Term.(
      const run $ setup_logs $ bench_arg $ objects_arg $ seed_arg
      $ confidence_arg $ ci_width_arg $ max_samples_arg $ domains_arg
      $ store_dir_arg $ out_arg $ json_flag $ error_model_arg)

(* ---- query ---- *)

let offline_flag =
  Arg.(
    value & flag
    & info [ "offline" ]
        ~doc:"Answer the request in-process through the daemon's own op \
              table instead of asking a daemon (one golden run per \
              benchmark). With $(b,--store) the local store caches the \
              result; the printed payload is byte-identical either way.")

let meta_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "meta" ] ~docv:"PATH"
        ~doc:"Write the response headers here, one JSON line per request \
              in request order (cache status, key, server; with \
              $(b,--offline), the daemon's header plus \"offline\": true) \
              -- the payloads on stdout stay clean for diffing.")

(* Send each request to the server on [socket], or with [offline] answer
   it through the op table in-process; print each payload. *)
let run_queries ~socket ~offline ~store_dir ~meta reqs =
  let answer =
    if offline then
      let env = Ops.offline ?store:(Option.map open_store store_dir) () in
      fun req ->
        match Ops.answer env req with
        | Jsonx.Obj fields, payload ->
          (Jsonx.Obj (fields @ [ ("offline", Jsonx.Bool true) ]), payload)
        | reply -> reply
    else fun req -> Client.rpc ~socket req
  in
  let meta = Option.map open_out meta in
  Fun.protect
    ~finally:(fun () -> Option.iter close_out meta)
    (fun () ->
      List.iter
        (fun req ->
          let header, payload = answer req in
          (match Client.error_of header with
          | Some (code, msg) ->
            failwith
              (Printf.sprintf "%s: %s: %s"
                 (if offline then "offline" else "daemon")
                 code msg)
          | None -> ());
          Option.iter
            (fun oc -> output_string oc (Jsonx.to_string header ^ "\n"))
            meta;
          match payload with
          | Some p -> print_string p
          | None -> failwith "response carried no payload")
        reqs)

(* present only for non-default models, so request bytes (and the keys
   derived from them) stay identical for single-bit queries *)
let model_fields model =
  if model <> Errmodel.Single_bit then
    [ ("error_model", Jsonx.Str (Errmodel.to_string model)) ]
  else []

let request op (e : Registry.entry) fields model =
  Jsonx.Obj
    ((("op", Jsonx.Str op) :: ("benchmark", Jsonx.Str e.Registry.benchmark)
     :: fields)
    @ model_fields model)

let strings l = Jsonx.Arr (List.map (fun s -> Jsonx.Str s) l)

(* Each query subcommand is a term building its requests. The commands
   are constructors over the socket argument: the same terms serve both
   [moard query] (daemon socket default) and [moard cluster query] (proxy
   socket default) -- same bytes either way, which is the point. *)
let query_cmds socket_arg =
  let cmd name ~doc requests =
    let run () reqs socket offline store_dir meta =
      run_queries ~socket ~offline ~store_dir ~meta reqs
    in
    Cmd.v (Cmd.info name ~doc)
      Term.(
        const run $ setup_logs $ requests $ socket_arg $ offline_flag
        $ store_dir_arg $ meta_arg)
  in
  let advf e objs k fi_budget model =
    List.map
      (fun obj ->
        request "advf" e
          [
            ("object", Jsonx.Str obj);
            ("k", Jsonx.Int k);
            ("fi_budget", Jsonx.Int fi_budget);
          ]
          model)
      (pick_objects e objs)
  in
  let campaign e objs seed confidence ci_width batch max_samples model =
    [
      request "campaign" e
        [
          ("objects", strings (pick_objects e objs));
          ("seed", Jsonx.Int seed);
          ("confidence", Jsonx.Float confidence);
          ("ci_width", Jsonx.Float ci_width);
          ("batch", Jsonx.Int batch);
          ("max_samples", Jsonx.Int max_samples);
        ]
        model;
    ]
  in
  let predict e objs sizes target seed confidence ci_width max_samples model =
    List.map
      (fun obj ->
        request "predict" e
          [
            ("object", Jsonx.Str obj);
            ( "sizes",
              Jsonx.Arr
                (List.map (fun n -> Jsonx.Int n) (predict_sizes e sizes)) );
            ("target", Jsonx.Int (predict_target e target));
            ("seed", Jsonx.Int seed);
            ("confidence", Jsonx.Float confidence);
            ("ci_width", Jsonx.Float ci_width);
            ("max_samples", Jsonx.Int max_samples);
          ]
          model)
      (pick_objects e objs)
  in
  let advise e objs seed confidence ci_width max_samples model =
    [
      request "advise" e
        [
          ("objects", strings (pick_objects e objs));
          ("seed", Jsonx.Int seed);
          ("confidence", Jsonx.Float confidence);
          ("ci_width", Jsonx.Float ci_width);
          ("max_samples", Jsonx.Int max_samples);
        ]
        model;
    ]
  in
  [
    cmd "advf"
      ~doc:"Query an aDVF summary (canonical JSON payload on stdout). \
            Against a daemon the result is served from the store when \
            warm; $(b,--offline) computes the byte-identical payload \
            locally."
      Term.(
        const advf $ bench_arg $ objects_arg $ k_arg $ fi_budget_arg
        $ error_model_arg);
    cmd "campaign"
      ~doc:"Query a campaign report (the stable JSON payload on stdout): \
            run by the daemon and cached by plan hash, or computed \
            $(b,--offline)."
      Term.(
        const campaign $ bench_arg $ objects_arg $ seed_arg $ confidence_arg
        $ ci_width_arg $ batch_arg $ max_samples_arg $ error_model_arg);
    cmd "predict"
      ~doc:"Query a cross-input-size prediction (the stable JSON payload \
            on stdout): computed and cached by the daemon, or \
            $(b,--offline) with identical bytes."
      Term.(
        const predict $ bench_arg $ objects_arg $ sizes_arg $ target_arg
        $ seed_arg $ confidence_arg $ ci_width_arg $ max_samples_arg
        $ error_model_arg);
    cmd "advise"
      ~doc:"Query a resilience-advisor report (the stable JSON payload on \
            stdout): computed and cached by the daemon, or $(b,--offline) \
            with identical bytes."
      Term.(
        const advise $ bench_arg $ objects_arg $ seed_arg $ confidence_arg
        $ ci_width_arg $ max_samples_arg $ error_model_arg);
  ]

let stat_cmd socket_arg ~doc =
  let run () socket =
    let header, _ =
      Client.rpc ~socket (Jsonx.Obj [ ("op", Jsonx.Str "stat") ])
    in
    (match Client.error_of header with
    | Some (code, msg) -> failwith (Printf.sprintf "daemon: %s: %s" code msg)
    | None -> ());
    print_endline (Jsonx.to_string header)
  in
  Cmd.v (Cmd.info "stat" ~doc) Term.(const run $ setup_logs $ socket_arg)

let query_stat_doc =
  "Daemon and store statistics (one JSON object on stdout)."

let query_cmd =
  Cmd.group
    (Cmd.info "query"
       ~doc:"Cached queries against a moardd daemon (or $(b,--offline)): \
             identical bytes either way, so the two modes can be diffed.")
    (query_cmds socket_arg @ [ stat_cmd socket_arg ~doc:query_stat_doc ])

(* ---- store maintenance ---- *)

let required_store =
  Arg.(
    required
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR" ~doc:"Result-store directory.")

let store_stat_cmd =
  let run () dir =
    Format.printf "%a@." Store.pp_stats (Store.stat (open_store dir))
  in
  Cmd.v
    (Cmd.info "stat" ~doc:"Entry counts, bytes and hit/corruption counters.")
    Term.(const run $ setup_logs $ required_store)

let store_gc_cmd =
  let run () dir max_age =
    let removed = Store.gc (open_store dir) ?max_age_s:max_age () in
    Format.printf "removed %d file%s@." removed
      (if removed = 1 then "" else "s")
  in
  let max_age =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-age" ] ~docv:"SECONDS"
          ~doc:"Also remove entries older than this. Without it, gc only \
                sweeps torn temporary files and undecodable names. \
                Entries touched by a live handle are never removed.")
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:"Sweep the store: torn writes always; cold entries with \
             $(b,--max-age).")
    Term.(const run $ setup_logs $ required_store $ max_age)

let store_fsck_cmd =
  let run () dir quarantine =
    let r = Store.fsck ~quarantine (open_store dir) in
    Format.printf "scanned %d record%s: %d valid, %d damaged, %d quarantined@."
      r.Store.scanned
      (if r.Store.scanned = 1 then "" else "s")
      r.Store.valid
      (List.length r.Store.damaged)
      r.Store.moved;
    List.iter
      (fun (key, why) -> Format.printf "  %s: %s@." key why)
      r.Store.damaged;
    if r.Store.damaged <> [] then exit 1
  in
  let quarantine =
    Arg.(
      value & flag
      & info [ "quarantine" ]
          ~doc:"Move damaged record files to $(i,<store>/quarantine/) \
                instead of leaving them in place.")
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:"Verify every record on disk offline (decode + checksum, no \
             recomputation). Exits 1 if any record is damaged.")
    Term.(const run $ setup_logs $ required_store $ quarantine)

let store_cmd =
  Cmd.group
    (Cmd.info "store"
       ~doc:"Maintenance of the content-addressed result store.")
    [ store_stat_cmd; store_gc_cmd; store_fsck_cmd ]

(* ---- the chaos harness ---- *)

let chaos_cmd =
  let module Harness = Moard_cluster.Harness in
  let run () seed rounds rate classes benchmark ci_width store_dir =
    let r =
      Harness.run ~seed ~rounds ~rate ~benchmark ~ci_width
        (Harness.daemon
           ?classes:(match classes with [] -> None | l -> Some l)
           ?store_dir ())
    in
    print_endline (Jsonx.to_string (Harness.to_json r));
    if not r.Harness.survived then begin
      Logs.err (fun m ->
          m "chaos: invariant violated (diverged %d, hung %d)"
            r.Harness.diverged r.Harness.hung);
      exit 1
    end
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Chaos-plan seed.")
  in
  let rounds =
    Arg.(
      value & opt int 3
      & info [ "rounds" ]
          ~doc:"Rounds of advf/campaign/report/stat requests to issue.")
  in
  let rate =
    Arg.(
      value & opt float 0.08
      & info [ "rate" ] ~docv:"P"
          ~doc:"Fault probability per shimmed operation.")
  in
  let classes =
    Arg.(
      value & opt_all string []
      & info [ "class" ] ~docv:"NAME"
          ~doc:"Fault class to enable: $(i,store), $(i,journal), \
                $(i,protocol) or $(i,pool) (repeatable; default: all \
                four).")
  in
  let benchmark =
    Arg.(
      value & pos 0 string "MM"
      & info [] ~docv:"BENCHMARK"
          ~doc:"Benchmark the chaos requests target (default MM, the \
                smallest).")
  in
  let ci_width =
    Arg.(
      value & opt float 0.05
      & info [ "ci-width" ] ~docv:"W"
          ~doc:"Campaign stopping half-width used by the chaos requests.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Turn the fault injector on the serving stack itself: run a \
             seeded, reproducible fault-injection campaign against an \
             in-process moardd (faulty disk, faulty sockets, raising and \
             slow jobs) and verify that every response is either a typed \
             error or byte-identical to the fault-free baseline. Prints \
             the survival report as JSON; exits 1 if the invariant broke. \
             With $(b,--store) the daemon's store directory is kept for \
             post-mortem.")
    Term.(
      const run $ setup_logs $ seed $ rounds $ rate $ classes $ benchmark
      $ ci_width $ store_dir_arg)

(* ---- cluster serving ---- *)

module Cluster_proxy = Moard_cluster.Proxy
module Cluster_local = Moard_cluster.Local

let cluster_socket_arg =
  Arg.(
    value
    & opt string (Cluster_proxy.default_config ~shards:[]).Cluster_proxy.socket
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix socket of the cluster proxy.")

let cluster_serve_cmd =
  let run () socket joins shards root replication vnodes hedge_after warm_off
      workers queue timeout =
    let tune cfg =
      {
        cfg with
        Cluster_proxy.socket;
        replication;
        vnodes;
        hedge_after_s = hedge_after;
        warm_auto = not warm_off;
      }
    in
    match joins with
    | _ :: _ ->
      if shards <> None then
        usage "cluster serve: --shards and --join are mutually exclusive";
      let shard_list =
        List.map (fun (name, socket) -> { Cluster_proxy.name; socket }) joins
      in
      Logs.app (fun m ->
          m "moard cluster %s listening on %s (%d joined shards, R=%d)"
            Moard_server.Version.version socket (List.length shard_list)
            replication);
      Cluster_proxy.run
        (tune (Cluster_proxy.default_config ~shards:shard_list));
      Logs.app (fun m -> m "cluster proxy drained and stopped")
    | [] ->
      let shards = Option.value ~default:2 shards in
      let c =
        Cluster_local.start ~workers ~queue ~timeout_s:timeout ~root ~shards
          ~tune ()
      in
      Logs.app (fun m ->
          m "moard cluster %s listening on %s (%d local shards under %s, R=%d)"
            Moard_server.Version.version
            (Cluster_local.socket c)
            shards root replication);
      Moard_server.Serving.await_signal (Atomic.make false);
      Cluster_local.stop c;
      Logs.app (fun m -> m "cluster drained and stopped")
  in
  let joins =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string string) []
      & info [ "join" ] ~docv:"NAME=SOCKET"
          ~doc:"Serve over an externally started moardd shard (repeatable). \
                Without any, the command starts $(b,--shards) local shard \
                daemons itself.")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"N"
          ~doc:"Local shard daemons to start (default 2); conflicts with \
                $(b,--join).")
  in
  let root =
    Arg.(
      value & opt string "moard-cluster"
      & info [ "root" ] ~docv:"DIR"
          ~doc:"Directory for local shard sockets and stores.")
  in
  let replication =
    Arg.(
      value & opt int 2
      & info [ "replication" ] ~docv:"R"
          ~doc:"Length of each key's owner chain on the hash ring: a dead \
                or partitioned shard degrades to recompute on the next \
                replica, never to a wrong answer.")
  in
  let vnodes =
    Arg.(
      value & opt int 64
      & info [ "vnodes" ] ~docv:"N"
          ~doc:"Virtual nodes per shard on the consistent-hash ring.")
  in
  let hedge_after =
    Arg.(
      value
      & opt (some float) None
      & info [ "hedge-after" ] ~docv:"SECONDS"
          ~doc:"Fixed hedging deadline: an idempotent forward slower than \
                this is raced against the replica. Default: adaptive, 2x \
                the p95 of recent forward latencies.")
  in
  let warm_off =
    Arg.(
      value & flag
      & info [ "no-warm" ]
          ~doc:"Disable auto-warming of sibling registry objects after a \
                computed aDVF response.")
  in
  let workers =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains per local shard daemon.")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:"Bounded request queue per local shard daemon.")
  in
  let timeout =
    Arg.(
      value & opt float 600.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-request timeout on local shard daemons.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the cluster: N sharded moardd instances behind a \
             consistent-hash proxy speaking the moardd protocol. The \
             proxy coalesces identical concurrent requests, hedges slow \
             forwards onto the replica, fails over around dead shards and \
             warms hot objects in idle slots; every served payload is \
             byte-identical to the offline CLI or a typed error. SIGTERM \
             drains gracefully.")
    Term.(
      const run $ setup_logs $ cluster_socket_arg $ joins $ shards $ root
      $ replication $ vnodes $ hedge_after $ warm_off $ workers $ queue
      $ timeout)

let cluster_stat_cmd =
  stat_cmd cluster_socket_arg
    ~doc:"Cluster statistics (one JSON object on stdout): ring layout, \
          proxy counters — forwards, coalesced, hedged, hedge wins, \
          failovers, retries, warming — and each shard's own stat or its \
          unreachability."

let cluster_warm_cmd =
  let run () socket e objs =
    let objs = pick_objects e objs in
    List.iter
      (fun obj ->
        let header, _ =
          Client.rpc ~socket
            (Jsonx.Obj
               [
                 ("op", Jsonx.Str "warm");
                 ("benchmark", Jsonx.Str e.Registry.benchmark);
                 ("object", Jsonx.Str obj);
               ])
        in
        (match Client.error_of header with
        | Some (code, msg) ->
          failwith (Printf.sprintf "cluster: %s: %s" code msg)
        | None -> ());
        print_endline (Jsonx.to_string header))
      objs
  in
  Cmd.v
    (Cmd.info "warm"
       ~doc:"Queue aDVF precomputation of a benchmark's objects on their \
             owning shards (acknowledged immediately; shards compute in \
             idle slots). $(b,cluster stat) shows queue drain.")
    Term.(const run $ setup_logs $ cluster_socket_arg $ bench_arg $ objects_arg)

let cluster_chaos_cmd =
  let module Harness = Moard_cluster.Harness in
  let run () seed rounds rate shards benchmark ci_width downtime =
    let r =
      Harness.run ~seed ~rounds ~rate ~benchmark ~ci_width
        (Harness.cluster ~shards ~crash_downtime:downtime ())
    in
    print_endline (Jsonx.to_string (Harness.to_json r));
    if not r.Harness.survived then begin
      Logs.err (fun m ->
          m "cluster chaos: invariant violated (diverged %d, hung %d)"
            r.Harness.diverged r.Harness.hung);
      exit 1
    end
  in
  let seed =
    Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Chaos-plan seed.")
  in
  let rounds =
    Arg.(
      value & opt int 2
      & info [ "rounds" ]
          ~doc:"Rounds of advf/campaign/report/stat requests to issue.")
  in
  let rate =
    Arg.(
      value & opt float 0.08
      & info [ "rate" ] ~docv:"P"
          ~doc:"Fault probability per inter-node operation, and per \
                request for shard-crash and partition trials.")
  in
  let shards =
    Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N" ~doc:"Shard count.")
  in
  let benchmark =
    Arg.(
      value & pos 0 string "MM"
      & info [] ~docv:"BENCHMARK"
          ~doc:"Benchmark the chaos requests target (default MM, the \
                smallest).")
  in
  let ci_width =
    Arg.(
      value & opt float 0.2
      & info [ "ci-width" ] ~docv:"W"
          ~doc:"Campaign stopping half-width used by the chaos requests.")
  in
  let downtime =
    Arg.(
      value & opt int 3
      & info [ "crash-downtime" ] ~docv:"N"
          ~doc:"Requests a crashed shard stays down before restarting.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Turn the fault injector on the cluster: corrupted inter-node \
             frames, shard crash-stops with later restarts, and \
             proxy-shard partitions, against an in-process cluster. \
             Verifies that every response is a typed error or \
             byte-identical to the fault-free baseline; the report \
             (printed as JSON) is deterministic per seed. Exits 1 if the \
             invariant broke.")
    Term.(
      const run $ setup_logs $ seed $ rounds $ rate $ shards $ benchmark
      $ ci_width $ downtime)

let cluster_cmd =
  Cmd.group
    (Cmd.info "cluster"
       ~doc:"Sharded moardd serving: consistent-hash routing with \
             replication, request coalescing, hedged requests and \
             background store warming behind one proxy socket.")
    [
      cluster_serve_cmd;
      Cmd.group
        (Cmd.info "query"
           ~doc:"The moardd query commands pointed at the cluster proxy: \
                 same protocol, same bytes, sharded serving.")
        (query_cmds cluster_socket_arg
        @ [ stat_cmd cluster_socket_arg ~doc:query_stat_doc ]);
      cluster_stat_cmd;
      cluster_warm_cmd;
      cluster_chaos_cmd;
    ]

let objects_cmd =
  let run () e =
    let ctx = Context.make (e.Registry.workload ()) in
    Format.printf "%a@." Moard_trace.Registry.pp
      (Moard_vm.Machine.registry (Context.machine ctx));
    Format.printf "targets: %s@."
      (String.concat ", " e.Registry.objects)
  in
  Cmd.v
    (Cmd.info "objects"
       ~doc:"List every data object of a benchmark with its address range.")
    Term.(const run $ setup_logs $ bench_arg)

(* One exit-code convention for every command, documented in --help:
   0 success, 1 runtime error, 2 usage error. cmdliner handles parse
   errors (2); everything raised at run time funnels through here. *)
let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info 1
      ~doc:
        "on runtime errors: analysis failures, I/O errors, a rejected \
         journal, a daemon that is not there.";
    Cmd.Exit.info 2
      ~doc:
        "on usage errors: unknown commands, bad arguments, conflicting \
         options.";
  ]

let main =
  Cmd.group
    (Cmd.info "moard" ~version:Moard_server.Version.version ~exits
       ~doc:
         "MOARD: modeling application resilience to transient faults on \
          data objects (IPDPS'19 reproduction).")
    [
      list_cmd; analyze_cmd; exhaustive_cmd; rfi_cmd; trace_cmd; objects_cmd;
      dump_ir_cmd; bound_cmd; plan_cmd; campaign_cmd; parallel_cmd;
      predict_cmd; advise_cmd; serve_cmd; query_cmd; store_cmd; chaos_cmd;
      cluster_cmd;
    ]

let () =
  match Cmd.eval_value ~catch:false main with
  | Ok (`Ok ()) | Ok `Version | Ok `Help -> exit 0
  (* Our terms never evaluate to [Error `Term] themselves (runtime
     failures raise, and [~catch:false] lets them through), so both
     cmdliner error variants are command-line problems. *)
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit 1
  | exception Usage msg ->
    Printf.eprintf "moard: %s\n%!" msg;
    exit 2
  | exception e ->
    let msg =
      match e with
      | Failure m -> m
      | Not_found ->
        "not found — check the data-object name (`moard objects BENCHMARK` \
         lists them)"
      | Sys_error m -> m
      | Invalid_argument m -> m
      | Journal.Rejected m -> "journal rejected: " ^ m
      | Predict.Refused r ->
        "prediction refused: " ^ Predict.refusal_message r
      | Moard_server.Protocol.Protocol_error m -> "protocol error: " ^ m
      | Unix.Unix_error (err, fn, arg) ->
        Printf.sprintf "%s%s: %s" fn
          (if arg = "" then "" else " " ^ arg)
          (Unix.error_message err)
      | e -> Printexc.to_string e
    in
    Printf.eprintf "moard: error: %s\n%!" msg;
    exit 1
