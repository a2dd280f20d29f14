module Derive = Moard_analysis.Derive
module Masking = Moard_analysis.Masking
module Propagation = Moard_analysis.Propagation
module Verdict = Moard_analysis.Verdict
module Context = Moard_inject.Context
module Exec = Moard_inject.Exec
module Outcome = Moard_inject.Outcome
module Consume = Moard_trace.Consume
module Tape = Moard_trace.Tape
module Pattern = Moard_bits.Pattern
module Errmodel = Moard_bits.Errmodel
module Ps = Moard_bits.Patternset

type options = {
  k : int;
  shadow_cap : int;
  fi_budget : int;
  use_cache : bool;
  batch : bool;
  model : Errmodel.t;
}

let default_options =
  {
    k = 50;
    shadow_cap = 256;
    fi_budget = -1;
    use_cache = true;
    batch = true;
    model = Errmodel.Single_bit;
  }

let init_of_changed (out : Masking.changed_out) =
  match out with
  | Masking.To_reg { frame; reg; value } ->
    Propagation.From_reg { frame; reg; value }
  | Masking.To_mem { addr; value; ty } ->
    Propagation.From_mem { addr; value; ty }

(* Attribution per §III-C/E: an overshadow candidate that ends up
   tolerated is operation-level value overshadowing; otherwise a
   numerically identical outcome is propagation-level masking (rare, per
   the bounding argument) and an acceptable one is algorithm-level
   masking. *)
let fi_verdict ~overshadow (o : Outcome.t) =
  match o with
  | (Outcome.Same | Outcome.Acceptable) when overshadow ->
    Verdict.Masked (Verdict.Operation, Verdict.Overshadow)
  | Outcome.Same -> Verdict.Masked (Verdict.Propagation, Verdict.Other)
  | Outcome.Acceptable -> Verdict.Masked (Verdict.Algorithm, Verdict.Other)
  | Outcome.Incorrect | Outcome.Crashed _ -> Verdict.Not_masked

(* A verdict-cache entry: a site's (or one pattern's) verdicts, each
   weighing 1/[lanes] in the accumulator, and how many later sites copied
   them. A lane resolved by a job is filled in when the job runs; the
   copies reach the accumulator after the walk, so none waits. *)
type entry = { lanes : int; verdicts : Verdict.t array; mutable copies : int }

(* A fault injection the walk has decided on, and the lanes waiting for
   its outcome, each with its overshadow candidacy. *)
type job = {
  site : Consume.t;
  pattern : Pattern.t;
  resume : bool;
  key : Context.ekey option;
  mutable waiting : (entry * int * bool) list;
}

let analyze ?(options = default_options) ?(domains = 1) ?site_filter ?cancel
    ctx ~object_name =
  let model = options.model in
  let tape = Context.tape ctx in
  let w = Context.workload ctx in
  let obj = Context.object_of ctx object_name in
  let outputs =
    List.map (Context.object_of ctx) w.Moard_inject.Workload.outputs
  in
  let acc = Advf.create ~model object_name in
  let add e b v stage =
    Advf.add_pattern acc ~lanes:e.lanes ~stage v;
    e.verdicts.(b) <- v
  in
  (* Verdict caches: per pattern for the scalar walk; per site class for
     the batched walk, holding the whole per-lane verdict vector. The
     scalar cache only ever hits in full-site groups — two sites share
     one pattern's key iff they share every pattern's key — so the class
     cache reproduces its hit pattern exactly. *)
  let vcache : (Context.ekey, entry) Hashtbl.t = Hashtbl.create 4096 in
  let scache : (Context.ekey, entry) Hashtbl.t = Hashtbl.create 1024 in
  (* Every injection is decided here, in scan order, and none is read
     here: the budget counts decided runs and the memo is keyed by the
     fault's equivalence class, so no decision depends on when or on
     which domain a job runs. The memo holds the outcomes of the jobs
     that have run and the jobs still to run. *)
  let outcomes : (Context.ekey, Outcome.t) Hashtbl.t = Hashtbl.create 4096 in
  let pending : (Context.ekey, job) Hashtbl.t = Hashtbl.create 256 in
  let fi_runs = ref 0 and fi_hits = ref 0 in
  let unit_jobs = ref [] and queued = ref [] and nqueued = ref 0 in
  (* decided jobs that wait before they run: one on one domain, 256 per
     domain on several *)
  let batch = if domains <= 1 then 1 else 256 * domains in
  let run_queued () =
    let units = Array.of_list (List.rev !queued) in
    queued := [];
    nqueued := 0;
    let results =
      Exec.run ?cancel ~domains ctx
        (fun _ ctx ->
          List.map (fun j ->
              Context.inject ~resume:j.resume ctx
                (Context.fault_of_site j.site j.pattern)))
        units
    in
    Array.iteri
      (fun u ->
        List.iter2
          (fun job o ->
            Option.iter
              (fun key ->
                Hashtbl.remove pending key;
                Hashtbl.replace outcomes key o)
              job.key;
            List.iter
              (fun (e, b, overshadow) ->
                add e b (fi_verdict ~overshadow o) Advf.Fi)
              job.waiting)
          units.(u))
      results
  in
  (* A unit is one site's jobs, so its lanes share one checkpoint on
     whichever worker runs it; several domains run batches of units that
     span sites. One domain runs each job as soon as it is decided: that
     is the injection sequence of a walk that injects inline, and no job
     lives past its own run. *)
  let end_unit () =
    if !unit_jobs <> [] then begin
      queued := List.rev !unit_jobs :: !queued;
      nqueued := !nqueued + List.length !unit_jobs;
      unit_jobs := []
    end;
    if !nqueued >= batch then run_queued ()
  in
  (* Lane [b] of [e] gets its verdict now when the budget is spent or
     the class has run, else once its job has run. *)
  let fi ~resume rsite pattern ~overshadow e b =
    if options.fi_budget >= 0 && !fi_runs >= options.fi_budget then
      add e b Verdict.Not_masked Advf.Gave_up
    else
      let key =
        if options.use_cache then Some (Context.ekey ctx rsite pattern)
        else None
      in
      match Option.bind key (Hashtbl.find_opt outcomes) with
      | Some o ->
        incr fi_hits;
        add e b (fi_verdict ~overshadow o) Advf.Fi
      | None -> (
        match Option.bind key (Hashtbl.find_opt pending) with
        | Some job ->
          incr fi_hits;
          job.waiting <- (e, b, overshadow) :: job.waiting
        | None ->
          incr fi_runs;
          let job =
            { site = rsite; pattern; resume; key;
              waiting = [ (e, b, overshadow) ] }
          in
          Option.iter (fun key -> Hashtbl.replace pending key job) key;
          unit_jobs := job :: !unit_jobs;
          if domains <= 1 then end_unit ())
  in
  (* Read-modify-write: the fault scenario coincides with the fault at
     the statement's deriving read — one statement, one fault — so a
     store involvement takes that site's verdicts. *)
  let redirect (site : Consume.t) =
    let e = Tape.get tape site.Consume.event_idx in
    match site.Consume.kind with
    | Consume.Store_dest -> (
      match Derive.store_rmw_source ~tape e with
      | Some (idx, slot) ->
        ( { site with Consume.event_idx = idx; kind = Consume.Read { slot } },
          Tape.get tape idx )
      | None -> (site, e))
    | Consume.Read _ -> (site, e)
  in
  (* Stage 2 for a pattern the operation passes on changed; stage 3 when
     the bounded replay cannot decide. *)
  let replay ~resume rsite out ~overshadow pattern e b =
    match
      Propagation.replay ~tape ~k:options.k ~shadow_cap:options.shadow_cap
        ~outputs ~start:rsite.Consume.event_idx ~init:(init_of_changed out)
    with
    | Propagation.Masked _ when overshadow ->
      add e b (Verdict.Masked (Verdict.Operation, Verdict.Overshadow)) Advf.Prop
    | Propagation.Masked kind ->
      add e b (Verdict.Masked (Verdict.Propagation, kind)) Advf.Prop
    | Propagation.Crash_certain _ -> add e b Verdict.Not_masked Advf.Prop
    | Propagation.Unresolved _ -> fi ~resume rsite (pattern ()) ~overshadow e b
  in
  (* Sites stream off a whole-tape cursor and their verdicts fold into the
     accumulator online — neither a site list nor a verdict list is ever
     materialized. [site_filter] sees each site's enumeration index. *)
  let scalar_patterns site =
    let patterns = Errmodel.patterns model site.Consume.width in
    let lanes = List.length patterns in
    List.iter
      (fun pattern ->
        let key =
          if options.use_cache then Some (Context.ekey ctx site pattern)
          else None
        in
        match Option.bind key (Hashtbl.find_opt vcache) with
        | Some e -> e.copies <- e.copies + 1
        | None -> (
          let e = { lanes; verdicts = [| Verdict.Not_masked |]; copies = 0 } in
          Option.iter (fun key -> Hashtbl.replace vcache key e) key;
          let rsite, re = redirect site in
          match Masking.analyze re rsite.Consume.kind pattern with
          | Masking.Masked kind ->
            add e 0 (Verdict.Masked (Verdict.Operation, kind)) Advf.Op
          | Masking.Crash_certain _ -> add e 0 Verdict.Not_masked Advf.Op
          | Masking.Divergent ->
            fi ~resume:false rsite pattern ~overshadow:false e 0
          | Masking.Changed { out; overshadow } ->
            replay ~resume:false rsite out ~overshadow (fun () -> pattern) e 0))
      patterns
  in
  (* Lane-parallel per-site path: classify the whole error-model pattern
     set in one [Masking.analyze_all] call, absorb the masked and crash
     sets by popcount, and walk only the changed/divergent survivors
     through the unchanged propagation/fault-injection sequence — in
     ascending lane order, so cache and budget consumption (and hence the
     report) are byte-identical to the scalar stream. *)
  let batched_patterns site =
    (* a site's class is the class of its lane-0 pattern *)
    let key =
      if options.use_cache then
        Some (Context.ekey ctx site (Errmodel.pattern_at model site.width 0))
      else None
    in
    match Option.bind key (Hashtbl.find_opt scache) with
    | Some e -> e.copies <- e.copies + 1
    | None ->
      let rsite, re = redirect site in
      let v = Masking.analyze_all ~model re rsite.Consume.kind in
      if v.Masking.width <> site.Consume.width then
        (* A width-changing delegation would desynchronize the pattern
           sets; fall back to the scalar per-pattern walk. *)
        scalar_patterns site
      else begin
        let n = v.Masking.lanes in
        let e =
          { lanes = n; verdicts = Array.make n Verdict.Not_masked; copies = 0 }
        in
        let masked_v = Verdict.Masked (Verdict.Operation, v.Masking.mask_kind) in
        Ps.iter (fun b -> e.verdicts.(b) <- masked_v) v.Masking.masked;
        Advf.add_pattern_set acc ~lanes:n ~stage:Advf.Op
          ~count:(Ps.count v.Masking.masked) masked_v;
        Advf.add_pattern_set acc ~lanes:n ~stage:Advf.Op
          ~count:(Ps.count v.Masking.crash) Verdict.Not_masked;
        Ps.iter
          (fun b ->
            let pattern () = Errmodel.pattern_at model v.Masking.width b in
            if Ps.mem v.Masking.divergent b then
              fi ~resume:true rsite (pattern ()) ~overshadow:false e b
            else
              replay ~resume:true rsite (Masking.changed_out v b)
                ~overshadow:(Ps.mem v.Masking.overshadow b) pattern e b)
          (Ps.union v.Masking.changed v.Masking.divergent);
        Option.iter (fun key -> Hashtbl.replace scache key e) key
      end
  in
  let process site =
    (* the per-site cancellation point: a timed-out or abandoned request
       stops here instead of sweeping the remaining sites *)
    (match cancel with Some c -> Moard_chaos.Cancel.check c | None -> ());
    Advf.add_involvement acc;
    if options.batch then batched_patterns site else scalar_patterns site;
    end_unit ()
  in
  Consume.iter_sites ~segment:(Context.segment ctx)
    (Tape.Cursor.of_tape tape) obj
    (fun i site ->
      match site_filter with
      | Some keep when not (keep i) -> ()
      | _ -> process site);
  run_queued ();
  let copies _ e =
    Array.iter
      (fun v ->
        Advf.add_pattern_set acc ~lanes:e.lanes ~stage:Advf.Cached
          ~count:e.copies v)
      e.verdicts
  in
  List.iter (Hashtbl.iter copies) [ vcache; scache ];
  Advf.report acc ~fi_runs:!fi_runs ~fi_cache_hits:!fi_hits

let analyze_targets ?options ctx =
  let w = Context.workload ctx in
  List.map
    (fun object_name -> analyze ?options ctx ~object_name)
    w.Moard_inject.Workload.targets
