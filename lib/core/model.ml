module Derive = Moard_analysis.Derive
module Masking = Moard_analysis.Masking
module Propagation = Moard_analysis.Propagation
module Verdict = Moard_analysis.Verdict
module Context = Moard_inject.Context
module Outcome = Moard_inject.Outcome
module Consume = Moard_trace.Consume
module Tape = Moard_trace.Tape
module Event = Moard_trace.Event
module Bitval = Moard_bits.Bitval
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

type vkey = {
  k_iid : Moard_ir.Iid.t;
  k_site : int;  (* slot, or -1 for store destination *)
  k_reads : int64 array;
  k_bits : int list;
}

let vkey_of tape (site : Consume.t) pattern =
  let e = Tape.get tape site.Consume.event_idx in
  {
    k_iid = e.Event.iid;
    k_site =
      (match site.Consume.kind with
      | Consume.Read { slot } -> slot
      | Consume.Store_dest -> -1);
    k_reads =
      Array.map (fun (r : Event.read) -> (r.value : Bitval.t).bits) e.Event.reads;
    k_bits = Pattern.bits_of pattern;
  }

let init_of_changed (out : Masking.changed_out) =
  match out with
  | Masking.To_reg { frame; reg; value } ->
    Propagation.From_reg { frame; reg; value }
  | Masking.To_mem { addr; value; ty } ->
    Propagation.From_mem { addr; value; ty }

let analyze ?(options = default_options) ?site_filter ?cancel ctx ~object_name =
  let model = options.model in
  let tape = Context.tape ctx in
  let w = Context.workload ctx in
  let obj = Context.object_of ctx object_name in
  let outputs =
    List.map (Context.object_of ctx) w.Moard_inject.Workload.outputs
  in
  let acc = Advf.create ~model object_name in
  let vcache : (vkey, Verdict.t * Advf.stage) Hashtbl.t =
    Hashtbl.create 4096
  in
  (* Batched path: one cache entry per site *class* (instruction identity,
     slot, clean operand words) holding the whole per-bit verdict vector.
     The scalar [vcache] only ever hits in full-site groups — two sites
     share one pattern's key iff they share every pattern's key — so
     class-level caching reproduces its hit pattern exactly. *)
  let scache : (vkey, Verdict.t array) Hashtbl.t = Hashtbl.create 1024 in
  let class_key_of (site : Consume.t) =
    let e = Tape.get tape site.Consume.event_idx in
    {
      k_iid = e.Event.iid;
      k_site =
        (match site.Consume.kind with
        | Consume.Read { slot } -> slot
        | Consume.Store_dest -> -1);
      k_reads =
        Array.map
          (fun (r : Event.read) -> (r.value : Bitval.t).bits)
          e.Event.reads;
      k_bits = [];
    }
  in
  let fi_runs0 = Context.runs ctx and fi_hits0 = Context.cache_hits ctx in
  let budget_left () =
    options.fi_budget < 0 || Context.runs ctx - fi_runs0 < options.fi_budget
  in
  (* Resolve by deterministic fault injection; attribution per §III-C/E:
     an overshadow candidate that ends up tolerated is operation-level
     value overshadowing; otherwise a numerically identical outcome is
     propagation-level masking (rare, per the bounding argument) and an
     acceptable one is algorithm-level masking. *)
  let fi ?(resume = false) site pattern ~overshadow =
    if not (budget_left ()) then (Verdict.Not_masked, Advf.Gave_up)
    else
      let verdict =
        match
          Context.inject_at ~use_cache:options.use_cache ~resume ctx site
            pattern
        with
        | Outcome.Same ->
          if overshadow then Verdict.Masked (Verdict.Operation, Verdict.Overshadow)
          else Verdict.Masked (Verdict.Propagation, Verdict.Other)
        | Outcome.Acceptable ->
          if overshadow then Verdict.Masked (Verdict.Operation, Verdict.Overshadow)
          else Verdict.Masked (Verdict.Algorithm, Verdict.Other)
        | Outcome.Incorrect | Outcome.Crashed _ -> Verdict.Not_masked
      in
      (verdict, Advf.Fi)
  in
  let rec resolve (site : Consume.t) pattern =
    let e = Tape.get tape site.Consume.event_idx in
    match site.Consume.kind with
    | Consume.Store_dest when Derive.store_rmw_source ~tape e <> None ->
      (* Read-modify-write: the fault scenario coincides with the fault at
         the statement's deriving read — one statement, one fault — so the
         store involvement shares that site's verdict. *)
      let idx, slot = Option.get (Derive.store_rmw_source ~tape e) in
      resolve
        { site with Consume.event_idx = idx; kind = Consume.Read { slot } }
        pattern
    | _ ->
    match Masking.analyze e site.Consume.kind pattern with
    | Masking.Masked kind -> (Verdict.Masked (Verdict.Operation, kind), Advf.Op)
    | Masking.Crash_certain _ -> (Verdict.Not_masked, Advf.Op)
    | Masking.Divergent -> fi site pattern ~overshadow:false
    | Masking.Changed { out; overshadow } -> (
      match
        Propagation.replay ~tape ~k:options.k ~shadow_cap:options.shadow_cap
          ~outputs ~start:site.Consume.event_idx ~init:(init_of_changed out)
      with
      | Propagation.Masked kind ->
        if overshadow then
          (Verdict.Masked (Verdict.Operation, Verdict.Overshadow), Advf.Prop)
        else (Verdict.Masked (Verdict.Propagation, kind), Advf.Prop)
      | Propagation.Crash_certain _ -> (Verdict.Not_masked, Advf.Prop)
      | Propagation.Unresolved _ -> fi site pattern ~overshadow)
  in
  (* Sites stream off a whole-tape cursor and their verdicts fold into the
     accumulator online — neither a site list nor a verdict list is ever
     materialized. [site_filter] sees each site's enumeration index. *)
  let scalar_patterns site =
    let patterns = Errmodel.patterns model site.Consume.width in
    let lanes = List.length patterns in
    List.iter
      (fun pattern ->
        let verdict, stage =
          if not options.use_cache then resolve site pattern
          else
            let key = vkey_of tape site pattern in
            match Hashtbl.find_opt vcache key with
            | Some (v, _) -> (v, Advf.Cached)
            | None ->
              let v, s = resolve site pattern in
              Hashtbl.replace vcache key (v, s);
              (v, s)
        in
        Advf.add_pattern acc ~lanes ~stage verdict)
      patterns
  in
  (* Mirror [resolve]'s read-modify-write delegation once per site — the
     redirection is pattern-independent. *)
  let rec redirect (site : Consume.t) =
    let e = Tape.get tape site.Consume.event_idx in
    match site.Consume.kind with
    | Consume.Store_dest when Derive.store_rmw_source ~tape e <> None ->
      let idx, slot = Option.get (Derive.store_rmw_source ~tape e) in
      redirect
        { site with Consume.event_idx = idx; kind = Consume.Read { slot } }
    | _ -> (site, e)
  in
  (* Lane-parallel per-site path: classify the whole error-model pattern
     set in one [Masking.analyze_all] call, absorb the masked and crash
     sets by popcount, and walk only the changed/divergent survivors
     through the unchanged propagation/fault-injection sequence — in
     ascending lane order, so cache and budget consumption (and hence the
     report) are byte-identical to the scalar stream. *)
  let batched_patterns site =
    let stream_cached verdicts =
      let lanes = Array.length verdicts in
      Array.iter
        (fun v -> Advf.add_pattern acc ~lanes ~stage:Advf.Cached v)
        verdicts
    in
    match
      if options.use_cache then Hashtbl.find_opt scache (class_key_of site)
      else None
    with
    | Some verdicts -> stream_cached verdicts
    | None ->
      let rsite, re = redirect site in
      let v = Masking.analyze_all ~model re rsite.Consume.kind in
      if v.Masking.width <> site.Consume.width then
        (* A width-changing delegation would desynchronize the pattern
           sets; fall back to the scalar per-pattern walk. *)
        scalar_patterns site
      else begin
        let n = v.Masking.lanes in
        let verdicts = Array.make n Verdict.Not_masked in
        let masked_v = Verdict.Masked (Verdict.Operation, v.Masking.mask_kind) in
        Ps.iter (fun b -> verdicts.(b) <- masked_v) v.Masking.masked;
        Advf.add_pattern_set acc ~lanes:n ~stage:Advf.Op
          ~count:(Ps.count v.Masking.masked) masked_v;
        Advf.add_pattern_set acc ~lanes:n ~stage:Advf.Op
          ~count:(Ps.count v.Masking.crash) Verdict.Not_masked;
        Ps.iter
          (fun b ->
            let verdict, stage =
              if Ps.mem v.Masking.divergent b then
                fi ~resume:true rsite
                  (Errmodel.pattern_at model v.Masking.width b)
                  ~overshadow:false
              else
                let out, overshadow =
                  Masking.changed_out_at ~model re rsite.Consume.kind ~lane:b
                in
                match
                  Propagation.replay ~tape ~k:options.k
                    ~shadow_cap:options.shadow_cap ~outputs
                    ~start:rsite.Consume.event_idx ~init:(init_of_changed out)
                with
                | Propagation.Masked kind ->
                  if overshadow then
                    ( Verdict.Masked (Verdict.Operation, Verdict.Overshadow),
                      Advf.Prop )
                  else (Verdict.Masked (Verdict.Propagation, kind), Advf.Prop)
                | Propagation.Crash_certain _ -> (Verdict.Not_masked, Advf.Prop)
                | Propagation.Unresolved _ ->
                  fi ~resume:true rsite
                    (Errmodel.pattern_at model v.Masking.width b)
                    ~overshadow
            in
            verdicts.(b) <- verdict;
            Advf.add_pattern acc ~lanes:n ~stage verdict)
          (Ps.union v.Masking.changed v.Masking.divergent);
        if options.use_cache then
          Hashtbl.replace scache (class_key_of site) verdicts
      end
  in
  let process site =
    (* the per-site cancellation point: a timed-out or abandoned request
       stops here instead of sweeping the remaining sites *)
    (match cancel with Some c -> Moard_chaos.Cancel.check c | None -> ());
    Advf.add_involvement acc;
    if options.batch then batched_patterns site
    else scalar_patterns site
  in
  Consume.iter_sites ~segment:(Context.segment ctx)
    (Tape.Cursor.of_tape tape) obj
    (fun i site ->
      match site_filter with
      | Some keep when not (keep i) -> ()
      | _ -> process site);
  Advf.report acc
    ~fi_runs:(Context.runs ctx - fi_runs0)
    ~fi_cache_hits:(Context.cache_hits ctx - fi_hits0)

let analyze_targets ?options ctx =
  let w = Context.workload ctx in
  List.map
    (fun object_name -> analyze ?options ctx ~object_name)
    w.Moard_inject.Workload.targets
