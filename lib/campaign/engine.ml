module Context = Moard_inject.Context
module Outcome = Moard_inject.Outcome
module Resolve = Moard_inject.Resolve
module Confidence = Moard_stats.Confidence
module Pattern = Moard_bits.Pattern
module Errmodel = Moard_bits.Errmodel

let code_of_outcome = function
  | Outcome.Same -> 0
  | Outcome.Acceptable -> 1
  | Outcome.Incorrect -> 2
  | Outcome.Crashed _ -> 3

let code_names = [| "same"; "acceptable"; "incorrect"; "crashed" |]
let success_code c = c = 0 || c = 1

type stop_reason = Ci_target | Exhausted | Max_samples | Interrupted

let stop_reason_name = function
  | Ci_target -> "ci-target"
  | Exhausted -> "exhausted"
  | Max_samples -> "max-samples"
  | Interrupted -> "interrupted"

type stratum_result = {
  label : string;
  population : int;
  samples : int;
  successes : int;
  by_code : int array;
  lo : float;
  hi : float;
  exhausted : bool;
}

type object_result = {
  object_name : string;
  population : int;
  sites : int;
  samples : int;
  runs : int;
  cache_hits : int;
  by_code : int array;
  estimate : float;
  lo : float;
  hi : float;
  halfwidth : float;
  stopped : stop_reason;
  strata : stratum_result array;
}

type perf = {
  wall_seconds : float;
  inject_seconds : float;
  per_domain_runs : int array;
}

type result = {
  plan_hash : string;
  workload_name : string;
  model : Errmodel.t;
  seed : int;
  confidence : float;
  ci_width : float;
  domains : int;
  objects : object_result array;
  perf : perf;
}

(* ------------------------------------------------------------------ *)

type obj_state = {
  n : int array;
  ok : int array;
  by_code : int array;
  stratum_codes : int array array;  (** per stratum, counts per outcome code *)
  memo : (Context.ekey, int) Hashtbl.t;
  mutable samples : int;
  mutable runs : int;
  mutable hits : int;
}

let init_state (po : Plan.objective) =
  let ns = Array.length po.Plan.strata in
  {
    n = Array.make ns 0;
    ok = Array.make ns 0;
    by_code = Array.make 4 0;
    stratum_codes = Array.init ns (fun _ -> Array.make 4 0);
    memo = Hashtbl.create 1024;
    samples = 0;
    runs = 0;
    hits = 0;
  }

(* The combined interval: per-stratum Wilson intervals (exact point for an
   exhausted stratum — sampling is without replacement, so n = N means the
   stratum is fully resolved), combined population-weighted. The combined
   interval covers whenever every per-stratum interval covers, so it is
   conservative at the configured level. An unsampled stratum contributes
   its full-ignorance interval [0, 1]. *)
let combined (po : Plan.objective) st z =
  let totalf = float_of_int po.Plan.population in
  let est = ref 0.0 and lo = ref 0.0 and hi = ref 0.0 in
  Array.iteri
    (fun s (ps : Plan.stratum) ->
      if ps.Plan.population > 0 then begin
        let w = float_of_int ps.Plan.population /. totalf in
        let n = st.n.(s) and ok = st.ok.(s) in
        let p_hat =
          if n > 0 then float_of_int ok /. float_of_int n else 0.5
        in
        let l, h =
          if n = ps.Plan.population then (p_hat, p_hat)
          else
            let i = Confidence.wilson ~z ~n ~successes:ok () in
            (i.Confidence.lo, i.Confidence.hi)
        in
        est := !est +. (w *. p_hat);
        lo := !lo +. (w *. l);
        hi := !hi +. (w *. h)
      end)
    po.Plan.strata;
  (!est, !lo, !hi)

let stop_state (plan : Plan.t) (po : Plan.objective) st =
  let exhausted =
    Array.for_all Fun.id
      (Array.mapi (fun s (ps : Plan.stratum) -> st.n.(s) = ps.Plan.population)
         po.Plan.strata)
  in
  if exhausted then Some Exhausted
  else
    let _, lo, hi = combined po st plan.Plan.z in
    if (hi -. lo) /. 2.0 <= plan.Plan.ci_width then Some Ci_target
    else if plan.Plan.max_samples >= 0 && st.samples >= plan.Plan.max_samples
    then Some Max_samples
    else None

(* ------------------------------------------------------------------ *)

(* Resolve the distinct faults of a batch on {!Moard_inject.Exec}.
   Injection outcomes are a pure function of the fault, so the result is
   independent of how jobs are dealt to domains — the root of the
   domains=1 ≡ domains=N guarantee.

   With [batch] on, the jobs of a batch are grouped by consumption site and
   each group goes through one batched kernel sweep ({!Resolve.site}
   restricted to the sampled bits), which executes the workload only for
   the bits the kernel cannot decide. Outcomes — and hence codes, journal
   records and every statistic — are identical to per-job injection; only
   wall-clock and the shard-local run counters (which nothing downstream
   reads) change. The unit of work is then the site (up to 64 patterns);
   without [batch] it is the single job. *)
let run_jobs ctx ~model ~domains ~batch
    (jobs : (Context.ekey * Moard_trace.Consume.t * int) array) =
  let nj = Array.length jobs in
  let out = Array.make nj 0 in
  let per = Array.make domains 0 in
  if nj > 0 then begin
    (* units of (job index, bit): whole sites in first-appearance
       (= canonical job) order, or one job each *)
    let units =
      if batch then begin
        let groups = Hashtbl.create 64 and order = ref [] in
        Array.iteri
          (fun i (_, site, bit) ->
            match Hashtbl.find_opt groups site with
            | Some l -> l := (i, bit) :: !l
            | None ->
              let l = ref [ (i, bit) ] in
              Hashtbl.replace groups site l;
              order := (site, l) :: !order)
          jobs;
        Array.of_list
          (List.rev_map (fun (site, l) -> (site, List.rev !l)) !order)
      end
      else Array.mapi (fun i (_, site, bit) -> (site, [ (i, bit) ])) jobs
    in
    let resolve w sh ((site : Moard_trace.Consume.t), members) =
      per.(w) <- per.(w) + List.length members;
      if batch then
        let lanes =
          List.fold_left
            (fun acc (_, b) -> Moard_bits.Patternset.add acc b)
            Moard_bits.Patternset.empty members
        in
        let outs = Resolve.site ~model ~lanes sh site in
        List.map (fun (_, b) -> code_of_outcome outs.(b)) members
      else
        List.map
          (fun (_, b) ->
            let pattern = Errmodel.pattern_at model site.width b in
            code_of_outcome
              (Context.inject sh (Context.fault_of_site site pattern)))
          members
    in
    (* the batch's own shard: [ctx] may be shared with other requests *)
    let codes =
      Moard_inject.Exec.run ~domains (Context.shard ctx) resolve units
    in
    Array.iteri
      (fun u (_, members) ->
        List.iter2 (fun (i, _) c -> out.(i) <- c) members codes.(u))
      units
  end;
  (out, per)

let apply_sample st ~stratum ~code =
  st.n.(stratum) <- st.n.(stratum) + 1;
  if success_code code then st.ok.(stratum) <- st.ok.(stratum) + 1;
  st.by_code.(code) <- st.by_code.(code) + 1;
  st.stratum_codes.(stratum).(code) <- st.stratum_codes.(stratum).(code) + 1;
  st.samples <- st.samples + 1

let run_batch ctx (plan : Plan.t) oi st ~domains ~batch ~writer ~per_domain
    ~inject_seconds =
  let po = plan.Plan.objectives.(oi) in
  let ns = Array.length po.Plan.strata in
  let remaining =
    Array.init ns (fun s -> po.Plan.strata.(s).Plan.population - st.n.(s))
  in
  let budget =
    if plan.Plan.max_samples >= 0 then
      min plan.Plan.batch (plan.Plan.max_samples - st.samples)
    else plan.Plan.batch
  in
  (* give every never-sampled stratum its first sample before splitting
     the rest proportionally: the combined interval cannot tighten past a
     stratum still at full ignorance *)
  let alloc = Array.make ns 0 in
  let left = ref budget in
  for s = 0 to ns - 1 do
    if !left > 0 && st.n.(s) = 0 && remaining.(s) > 0 then begin
      alloc.(s) <- 1;
      remaining.(s) <- remaining.(s) - 1;
      decr left
    end
  done;
  let prop = Plan.allocate ~budget:!left remaining in
  Array.iteri (fun s a -> alloc.(s) <- alloc.(s) + a) prop;
  (* the batch's samples, stratum-major — the canonical order the journal
     records and every configuration reproduces *)
  let entries = ref [] in
  for s = ns - 1 downto 0 do
    for j = alloc.(s) - 1 downto 0 do
      let index = st.n.(s) + j in
      let site_i, bit = Plan.sample_member po ~stratum:s ~index in
      entries := (s, index, po.Plan.sites.(site_i), bit) :: !entries
    done
  done;
  let entries = !entries in
  (* dedupe by error-equivalence class: the first member of a class runs,
     the rest are cache hits counted as resolved samples *)
  let job_of = Hashtbl.create 64 in
  let jobs = ref [] and njobs = ref 0 in
  let described =
    List.map
      (fun (s, index, site, bit) ->
        let key =
          Context.ekey ctx site
            (Errmodel.pattern_at plan.Plan.model site.Moard_trace.Consume.width
               bit)
        in
        let fresh =
          (not (Hashtbl.mem st.memo key)) && not (Hashtbl.mem job_of key)
        in
        if fresh then begin
          Hashtbl.replace job_of key !njobs;
          jobs := (key, site, bit) :: !jobs;
          incr njobs
        end;
        (s, index, key, fresh))
      entries
  in
  let jobs = Array.of_list (List.rev !jobs) in
  let t = Unix.gettimeofday () in
  let codes, per = run_jobs ctx ~model:plan.Plan.model ~domains ~batch jobs in
  inject_seconds := !inject_seconds +. (Unix.gettimeofday () -. t);
  Array.iteri (fun w c -> per_domain.(w) <- per_domain.(w) + c) per;
  Array.iteri (fun i (key, _, _) -> Hashtbl.replace st.memo key codes.(i)) jobs;
  let records =
    List.map
      (fun (s, index, key, fresh) ->
        let code = Hashtbl.find st.memo key in
        apply_sample st ~stratum:s ~code;
        if fresh then st.runs <- st.runs + 1 else st.hits <- st.hits + 1;
        (s, index, code))
      described
  in
  match writer with
  | Some w -> Journal.commit_batch w ~obj:oi records
  | None -> ()

(* ------------------------------------------------------------------ *)

let replay_records ctx (plan : Plan.t) states records =
  List.iter
    (fun (r : Journal.record) ->
      if r.Journal.obj < 0 || r.Journal.obj >= Array.length plan.Plan.objectives
      then raise (Journal.Rejected "journal: objective index out of range");
      let po = plan.Plan.objectives.(r.Journal.obj) in
      let st = states.(r.Journal.obj) in
      if
        r.Journal.stratum < 0
        || r.Journal.stratum >= Array.length po.Plan.strata
        || r.Journal.sample <> st.n.(r.Journal.stratum)
      then raise (Journal.Rejected "journal: records out of order");
      (* recompute the equivalence class so the memo — and with it the
         run/hit split of the continuation — rebuilds exactly as the
         interrupted run left it *)
      let site_i, bit =
        Plan.sample_member po ~stratum:r.Journal.stratum ~index:r.Journal.sample
      in
      let site = po.Plan.sites.(site_i) in
      let key =
        Context.ekey ctx site
          (Errmodel.pattern_at plan.Plan.model site.Moard_trace.Consume.width
             bit)
      in
      if Hashtbl.mem st.memo key then st.hits <- st.hits + 1
      else begin
        Hashtbl.replace st.memo key r.Journal.code;
        st.runs <- st.runs + 1
      end;
      apply_sample st ~stratum:r.Journal.stratum ~code:r.Journal.code)
    records

let meta_of (plan : Plan.t) extra =
  (* the "model" key is written only for non-default models, keeping
     single-bit journal headers byte-identical to the pre-model format *)
  (if plan.Plan.model <> Errmodel.Single_bit then
     [ ("model", Errmodel.to_string plan.Plan.model) ]
   else [])
  @ [
    ("workload", plan.Plan.workload_name);
    ("seed", string_of_int plan.Plan.seed);
    ("confidence", Printf.sprintf "%h" plan.Plan.confidence);
    ("ci_width", Printf.sprintf "%h" plan.Plan.ci_width);
    ("batch", string_of_int plan.Plan.batch);
    ("max_samples", string_of_int plan.Plan.max_samples);
    ( "objects",
      String.concat ","
        (Array.to_list
           (Array.map
              (fun (o : Plan.objective) -> o.Plan.object_name)
              plan.Plan.objectives)) );
  ]
  @ extra

let run_internal ~domains ~batch ~max_batches ~should_stop ~cancel ~writer
    ~replayed ctx (plan : Plan.t) ~plan_hash =
  let t0 = Unix.gettimeofday () in
  (* a tripped cancel token is the same signal as should_stop: finish
     the committed batch, report Interrupted, leave the journal for
     resume — cancellation must never tear campaign state *)
  let should_stop () =
    should_stop ()
    || match cancel with
       | Some c -> Moard_chaos.Cancel.cancelled c
       | None -> false
  in
  let domains = max 1 domains in
  let states = Array.map init_state plan.Plan.objectives in
  replay_records ctx plan states replayed;
  let per_domain = Array.make domains 0 in
  let inject_seconds = ref 0.0 in
  let batches = ref 0 in
  let objects =
    Array.mapi
      (fun oi (po : Plan.objective) ->
        let st = states.(oi) in
        let stopped = ref None in
        while !stopped = None do
          match stop_state plan po st with
          | Some r -> stopped := Some r
          | None ->
            if
              (match max_batches with Some m -> !batches >= m | None -> false)
              || should_stop ()
            then stopped := Some Interrupted
            else begin
              run_batch ctx plan oi st ~domains ~batch ~writer ~per_domain
                ~inject_seconds;
              incr batches
            end
        done;
        let est, lo, hi = combined po st plan.Plan.z in
        {
          object_name = po.Plan.object_name;
          population = po.Plan.population;
          sites = Array.length po.Plan.sites;
          samples = st.samples;
          runs = st.runs;
          cache_hits = st.hits;
          by_code = Array.copy st.by_code;
          estimate = est;
          lo;
          hi;
          halfwidth = (hi -. lo) /. 2.0;
          stopped = Option.get !stopped;
          strata =
            Array.mapi
              (fun s (ps : Plan.stratum) ->
                {
                  label = ps.Plan.label;
                  population = ps.Plan.population;
                  samples = st.n.(s);
                  successes = st.ok.(s);
                  by_code = Array.copy st.stratum_codes.(s);
                  lo =
                    (if st.n.(s) = ps.Plan.population && st.n.(s) > 0 then
                       float_of_int st.ok.(s) /. float_of_int st.n.(s)
                     else
                       (Confidence.wilson ~z:plan.Plan.z ~n:st.n.(s)
                          ~successes:st.ok.(s) ())
                         .Confidence.lo);
                  hi =
                    (if st.n.(s) = ps.Plan.population && st.n.(s) > 0 then
                       float_of_int st.ok.(s) /. float_of_int st.n.(s)
                     else
                       (Confidence.wilson ~z:plan.Plan.z ~n:st.n.(s)
                          ~successes:st.ok.(s) ())
                         .Confidence.hi);
                  exhausted = st.n.(s) = ps.Plan.population;
                })
              po.Plan.strata;
        })
      plan.Plan.objectives
  in
  Option.iter Journal.close writer;
  {
    plan_hash;
    workload_name = plan.Plan.workload_name;
    model = plan.Plan.model;
    seed = plan.Plan.seed;
    confidence = plan.Plan.confidence;
    ci_width = plan.Plan.ci_width;
    domains;
    objects;
    perf =
      {
        wall_seconds = Unix.gettimeofday () -. t0;
        inject_seconds = !inject_seconds;
        per_domain_runs = per_domain;
      };
  }

let never () = false

let run ?(domains = 1) ?(batch = true) ?journal ?(journal_meta = [])
    ?max_batches ?(should_stop = never) ?cancel ?fx ctx plan =
  let plan_hash = Plan.hash plan in
  let writer =
    Option.map
      (fun path ->
        Journal.create ?fx ~path ~plan_hash ~meta:(meta_of plan journal_meta)
          ())
      journal
  in
  run_internal ~domains ~batch ~max_batches ~should_stop ~cancel ~writer
    ~replayed:[] ctx plan ~plan_hash

let resume ?(domains = 1) ?(batch = true) ?max_batches ?(should_stop = never)
    ?cancel ?fx ~journal ctx plan =
  let plan_hash = Plan.hash plan in
  let replayed = Journal.replay ?fx ~path:journal ~plan_hash () in
  let writer = Some (Journal.reopen ?fx ~path:journal ~plan_hash ()) in
  run_internal ~domains ~batch ~max_batches ~should_stop ~cancel ~writer
    ~replayed ctx plan ~plan_hash
