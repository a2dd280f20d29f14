(* The traced run: a per-layer ledger of where a cold query's time goes,
   and what each serving hop costs.

   Spans are recorded from this file only, around the calls the harness
   makes into each layer: the decomposed walk below replays
   [Model.analyze]'s batched path through public calls (site enumeration,
   read-modify-write redirection, the lane-parallel mask kernel,
   propagation replay, fault injection with checkpoint resume, the aDVF
   accumulator and renderer). Its payload is compared byte for byte with
   [Query.advf_payload] on the same object, which is also timed untraced
   so the tracing overhead is measured rather than assumed. *)

module Registry = Moard_kernels.Registry
module Context = Moard_inject.Context
module Outcome = Moard_inject.Outcome
module Model = Moard_core.Model
module Advf = Moard_core.Advf
module Verdict = Moard_analysis.Verdict
module Masking = Moard_analysis.Masking
module Propagation = Moard_analysis.Propagation
module Derive = Moard_analysis.Derive
module Consume = Moard_trace.Consume
module Tape = Moard_trace.Tape
module Event = Moard_trace.Event
module Errmodel = Moard_bits.Errmodel
module Ps = Moard_bits.Patternset
module Query = Moard_store.Query
module Store = Moard_store.Store
module Key = Moard_store.Key
module Record = Moard_store.Record
module Jsonx = Moard_server.Jsonx
module Client = Moard_server.Client
module Daemon = Moard_server.Daemon
module Local = Moard_cluster.Local
module W = Workloads

let now = Util.now

(* ---------------- spans ---------------- *)

type span = {
  id : int;
  name : string;
  qid : int;  (** the query this span belongs to *)
  parent : int;  (** id of the enclosing span, -1 at a root *)
  start : float;
  stop : float;
}

type frame = { fid : int; mutable children : float  (** time in child spans *) }

(* Spans of the first pass, newest first: what the ledger file keeps.
   Later passes only feed [totals], so the file stays small however
   many passes a run makes. *)
let spans : span list ref = ref []

(* (name, pass) -> summed self time (a span's duration minus its
   children's) and summed duration *)
let totals : (string * int, float * float) Hashtbl.t = Hashtbl.create 64
let count = ref 0
let open_frames = ref []
let pass = ref 0
let qid = ref 0

let span name f =
  let id = !count in
  incr count;
  let fr = { fid = id; children = 0. } in
  let parent = match !open_frames with p :: _ -> p.fid | [] -> -1 in
  open_frames := fr :: !open_frames;
  let start = now () in
  Fun.protect
    ~finally:(fun () ->
      let stop = now () in
      let d = stop -. start in
      open_frames := List.tl !open_frames;
      (match !open_frames with p :: _ -> p.children <- p.children +. d | [] -> ());
      let k = (name, !pass) in
      let self, total = Option.value ~default:(0., 0.) (Hashtbl.find_opt totals k) in
      Hashtbl.replace totals k (self +. d -. fr.children, total +. d);
      if !pass = 0 then spans := { id; name; qid = !qid; parent; start; stop } :: !spans)
    f

let times name p = Option.value ~default:(0., 0.) (Hashtbl.find_opt totals (name, p))

let spans_json () =
  Jsonx.Arr
    (List.map
       (fun s ->
         Jsonx.Arr
           [
             Jsonx.Int s.id;
             Jsonx.Str s.name;
             Jsonx.Int s.qid;
             Jsonx.Int s.parent;
             Jsonx.Float s.start;
             Jsonx.Float s.stop;
           ])
       (List.sort (fun a b -> compare a.id b.id) !spans))

(* ---------------- work counters ---------------- *)

type counters = {
  mutable golden_steps : int;
  mutable tape_bytes : int;
  mutable sites : int;
  mutable mask_calls : int;
  mutable lanes : int;
  mutable analytic : int;  (** masked + crash lanes *)
  mutable class_hits : int;
  mutable replays : int;
  mutable prop_resolved : int;
  unresolved : (string, int) Hashtbl.t;
  mutable inject_calls : int;
  mutable inject_runs : int;
  mutable inject_same : int;
  mutable inject_hits : int;
  mutable inject_steps : int;
  mutable payload_bytes : int;
}

let c =
  {
    golden_steps = 0;
    tape_bytes = 0;
    sites = 0;
    mask_calls = 0;
    lanes = 0;
    analytic = 0;
    class_hits = 0;
    replays = 0;
    prop_resolved = 0;
    unresolved = Hashtbl.create 8;
    inject_calls = 0;
    inject_runs = 0;
    inject_same = 0;
    inject_hits = 0;
    inject_steps = 0;
    payload_bytes = 0;
  }

(* ---------------- the decomposed walk ---------------- *)

exception Scalar_fallback

let init_of_changed = function
  | Masking.To_reg { frame; reg; value } -> Propagation.From_reg { frame; reg; value }
  | Masking.To_mem { addr; value; ty } -> Propagation.From_mem { addr; value; ty }

(* [Model.analyze] with [batch = true] and no legacy [multi] families,
   spelled out through public calls with a span around each layer. A
   site whose redirection changes the operand width would take the
   model's scalar walk, which this walk does not mirror: it raises
   [Scalar_fallback] and the fidelity check reports it. *)
let analyze ~(options : Model.options) ctx ~object_name =
  let model = options.Model.model in
  let tape = Context.tape ctx in
  let w = Context.workload ctx in
  let obj = Context.object_of ctx object_name in
  let outputs = List.map (Context.object_of ctx) w.Moard_inject.Workload.outputs in
  let acc = Advf.create ~model object_name in
  let scache = Hashtbl.create 1024 in
  let class_key (site : Consume.t) =
    let e = Tape.get tape site.Consume.event_idx in
    ( e.Event.iid,
      (match site.Consume.kind with
      | Consume.Read { slot } -> slot
      | Consume.Store_dest -> -1),
      Array.map
        (fun (r : Event.read) -> r.Event.value.Moard_bits.Bitval.bits)
        e.Event.reads )
  in
  let runs0 = Context.runs ctx and hits0 = Context.cache_hits ctx in
  let steps0 = Context.inject_steps ctx in
  let budget_left () =
    options.Model.fi_budget < 0 || Context.runs ctx - runs0 < options.Model.fi_budget
  in
  let fi site pattern ~overshadow =
    if not (budget_left ()) then (Verdict.Not_masked, Advf.Gave_up)
    else begin
      let r0 = Context.runs ctx in
      let outcome =
        span "inject.fi" (fun () ->
            Context.inject_at ~use_cache:options.Model.use_cache ~resume:true ctx
              site pattern)
      in
      c.inject_calls <- c.inject_calls + 1;
      if Context.runs ctx > r0 then begin
        c.inject_runs <- c.inject_runs + 1;
        if outcome = Outcome.Same then c.inject_same <- c.inject_same + 1
      end;
      let verdict =
        match outcome with
        | Outcome.Same ->
          if overshadow then Verdict.Masked (Verdict.Operation, Verdict.Overshadow)
          else Verdict.Masked (Verdict.Propagation, Verdict.Other)
        | Outcome.Acceptable ->
          if overshadow then Verdict.Masked (Verdict.Operation, Verdict.Overshadow)
          else Verdict.Masked (Verdict.Algorithm, Verdict.Other)
        | Outcome.Incorrect | Outcome.Crashed _ -> Verdict.Not_masked
      in
      (verdict, Advf.Fi)
    end
  in
  let rec redirect (site : Consume.t) =
    let e = Tape.get tape site.Consume.event_idx in
    match site.Consume.kind with
    | Consume.Store_dest when Derive.store_rmw_source ~tape e <> None ->
      let idx, slot = Option.get (Derive.store_rmw_source ~tape e) in
      redirect { site with Consume.event_idx = idx; kind = Consume.Read { slot } }
    | _ -> (site, e)
  in
  let lane_verdict re rsite (v : Masking.verdicts) b =
    let pattern () = Errmodel.pattern_at model v.Masking.width b in
    if Ps.mem v.Masking.divergent b then fi rsite (pattern ()) ~overshadow:false
    else
      let out, overshadow =
        span "masking.kernel" (fun () ->
            Masking.changed_out_at ~model re rsite.Consume.kind ~lane:b)
      in
      c.replays <- c.replays + 1;
      match
        span "propagation.replay" (fun () ->
            Propagation.replay ~tape ~k:options.Model.k
              ~shadow_cap:options.Model.shadow_cap ~outputs
              ~start:rsite.Consume.event_idx ~init:(init_of_changed out))
      with
      | Propagation.Masked kind ->
        c.prop_resolved <- c.prop_resolved + 1;
        if overshadow then
          (Verdict.Masked (Verdict.Operation, Verdict.Overshadow), Advf.Prop)
        else (Verdict.Masked (Verdict.Propagation, kind), Advf.Prop)
      | Propagation.Crash_certain _ ->
        c.prop_resolved <- c.prop_resolved + 1;
        (Verdict.Not_masked, Advf.Prop)
      | Propagation.Unresolved why ->
        let k = Propagation.reason_name why in
        Hashtbl.replace c.unresolved k
          (1 + Option.value ~default:0 (Hashtbl.find_opt c.unresolved k));
        fi rsite (pattern ()) ~overshadow
  in
  let process site =
    Advf.add_involvement acc;
    c.sites <- c.sites + 1;
    match
      if options.Model.use_cache then Hashtbl.find_opt scache (class_key site)
      else None
    with
    | Some verdicts ->
      c.class_hits <- c.class_hits + 1;
      let lanes = Array.length verdicts in
      Array.iter (fun v -> Advf.add_pattern acc ~lanes ~stage:Advf.Cached v) verdicts
    | None ->
      let rsite, re = redirect site in
      let v =
        span "masking.kernel" (fun () ->
            Masking.analyze_all ~model re rsite.Consume.kind)
      in
      if v.Masking.width <> site.Consume.width then raise Scalar_fallback;
      let n = v.Masking.lanes in
      c.mask_calls <- c.mask_calls + 1;
      c.lanes <- c.lanes + n;
      c.analytic <- c.analytic + Ps.count v.Masking.masked + Ps.count v.Masking.crash;
      let verdicts = Array.make n Verdict.Not_masked in
      let masked_v = Verdict.Masked (Verdict.Operation, v.Masking.mask_kind) in
      Ps.iter (fun b -> verdicts.(b) <- masked_v) v.Masking.masked;
      Advf.add_pattern_set acc ~lanes:n ~stage:Advf.Op
        ~count:(Ps.count v.Masking.masked) masked_v;
      Advf.add_pattern_set acc ~lanes:n ~stage:Advf.Op
        ~count:(Ps.count v.Masking.crash) Verdict.Not_masked;
      Ps.iter
        (fun b ->
          let verdict, stage = lane_verdict re rsite v b in
          verdicts.(b) <- verdict;
          Advf.add_pattern acc ~lanes:n ~stage verdict)
        (Ps.union v.Masking.changed v.Masking.divergent);
      if options.Model.use_cache then Hashtbl.replace scache (class_key site) verdicts
  in
  span "consume.enum" (fun () ->
      Consume.iter_sites ~segment:(Context.segment ctx)
        (Tape.Cursor.of_tape tape) obj
        (fun _ site -> process site));
  c.inject_hits <- c.inject_hits + (Context.cache_hits ctx - hits0);
  c.inject_steps <- c.inject_steps + (Context.inject_steps ctx - steps0);
  span "report.render" (fun () ->
      let r =
        Advf.report acc
          ~fi_runs:(Context.runs ctx - runs0)
          ~fi_cache_hits:(Context.cache_hits ctx - hits0)
      in
      Moard_report.Advf_report.json ~model r)

(* One traced cold query, laid out as the untraced one: build the
   workload, run it golden, analyze a fresh shard, render. *)
let traced_query (t : W.target) =
  incr qid;
  span "query" (fun () ->
      let w =
        span "registry.build" (fun () -> (Registry.find t.W.bench).Registry.workload ())
      in
      let ctx = span "context.make" (fun () -> Context.make w) in
      c.golden_steps <- c.golden_steps + Context.golden_steps ctx;
      c.tape_bytes <- c.tape_bytes + Tape.packed_bytes (Context.tape ctx);
      match analyze ~options:(W.options t) (Context.shard ctx) ~object_name:t.W.obj with
      | p -> Some p
      | exception Scalar_fallback -> None)

(* ---------------- serving probes ---------------- *)

let med_ms n f = 1000. *. Util.median (List.init n (fun _ -> snd (Util.time f)))

(* Medians over [n] calls each: the protocol round trip, an advf hit
   straight to a one-worker daemon, the same hit through a 2-shard
   proxy, and the registry and store calls a daemon hit makes. *)
let probes ~n ~expected =
  let t = W.probe_target in
  let req = W.request "advf" t in
  let timed_hits ~socket =
    let conn = Client.connect ~timeout_s:120. ~socket () in
    Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
    let hit () =
      let h, p = Client.request conn req in
      match p with
      | Some p when Client.error_of h = None && W.matches expected t p -> ()
      | _ -> failwith ("probe answered wrong: " ^ Jsonx.to_string h)
    in
    hit ();
    let floor = med_ms n (fun () -> ignore (Client.request conn (W.op "version"))) in
    (floor, med_ms n hit)
  in
  let d, socket = W.start_daemon (Util.scratch "probe-daemon") in
  let floor, daemon_hit = timed_hits ~socket in
  Daemon.stop d;
  let cl = W.start_cluster "probe-cluster" in
  (* the first request computes and auto-warms the object's siblings;
     that warming must drain before hits are timed *)
  ignore (W.rpc (Local.socket cl) req);
  ignore (W.drain (Local.socket cl));
  let _, proxy_hit = timed_hits ~socket:(Local.socket cl) in
  W.stop_cluster "probe-cluster" cl;
  let e = Registry.find t.W.bench in
  let build = med_ms n (fun () -> ignore (e.Registry.workload ())) in
  let program = (e.Registry.workload ()).Moard_inject.Workload.program in
  let options = W.options t in
  let key = Key.advf ~program ~object_name:t.W.obj ~options in
  let key_ms =
    med_ms n (fun () -> ignore (Key.advf ~program ~object_name:t.W.obj ~options))
  in
  let payload = W.compute_payload t in
  let sdir = Util.scratch "probe-store" in
  let st = Store.open_store ~dir:sdir () in
  let put_ms = med_ms n (fun () -> Store.put st ~key ~kind:Record.Advf payload) in
  let get_memory_ms = med_ms n (fun () -> ignore (Store.get st ~key ~kind:Record.Advf)) in
  let keys = List.init n (fun i -> Key.of_parts [ ("perf-probe", string_of_int i) ]) in
  List.iter (fun key -> Store.put st ~key ~kind:Record.Advf payload) keys;
  (* a second handle on the same directory starts with an empty LRU, so
     each first lookup reads and verifies the record on disk *)
  let fresh = Store.open_store ~dir:sdir () in
  let get_disk_ms =
    1000.
    *. Util.median
         (List.map
            (fun key ->
              snd (Util.time (fun () -> ignore (Store.get fresh ~key ~kind:Record.Advf))))
            keys)
  in
  let s = Store.stat st in
  [
    Util.metric "protocol.rpc_floor_ms" "ms" floor;
    Util.metric "daemon.hit_ms" "ms" daemon_hit;
    Util.metric "daemon.pool_wait_ms" "ms"
      (daemon_hit -. floor -. key_ms -. build -. get_memory_ms);
    Util.metric "proxy.hit_ms" "ms" proxy_hit;
    Util.metric "proxy.hop_ms" "ms" (proxy_hit -. daemon_hit);
    Util.metric "store.key_ms" "ms" key_ms;
    Util.metric "store.put_ms" "ms" put_ms;
    Util.metric "store.get_memory_ms" "ms" get_memory_ms;
    Util.metric "store.get_disk_ms" "ms" get_disk_ms;
    Util.metric "store.record_bytes" "bytes"
      (float_of_int s.Store.disk_bytes /. float_of_int s.Store.entries);
  ]

(* ---------------- one traced run ---------------- *)

(* Passes over the workload's objects until the next one would overrun
   [seconds] (at least one, at most 25). Each pass answers every object
   twice, traced through the decomposed walk and untraced through
   [Query.advf_payload], alternating which goes first. Layer times are
   medians over passes; work counts are per pass. Returns the result
   line (per-layer metrics) and the detail the ledger file keeps
   besides. *)
let run ~seconds ~quick (w : W.t) =
  let expected = W.load_expected () in
  let ts = W.targets_of (if quick then w.W.quick else w.W.shape) in
  W.check_covered expected ts;
  let s0 = Masking.scan_executions () in
  let untraced_s = Hashtbl.create 8 and golden = ref 0 in
  let wrong = ref 0 and mismatched = ref 0 in
  let one_pass p =
    pass := p;
    List.iteri
      (fun i (t : W.target) ->
        let untraced () =
          let ctx = Context.make ((Registry.find t.W.bench).Registry.workload ()) in
          let payload, d =
            Util.time (fun () ->
                Query.advf_payload ~options:(W.options t) ctx ~object_name:t.W.obj)
          in
          Hashtbl.replace untraced_s p
            (d +. Option.value ~default:0. (Hashtbl.find_opt untraced_s p));
          if not (W.matches expected t payload) then incr wrong;
          payload
        in
        let traced () =
          let g0 = Context.golden_executions () in
          let q = traced_query t in
          golden := !golden + (Context.golden_executions () - g0);
          q
        in
        let payload, traced =
          if (i + p) mod 2 = 0 then
            let payload = untraced () in
            (payload, traced ())
          else
            let q = traced () in
            (untraced (), q)
        in
        match traced with
        | Some q when q = payload ->
          c.payload_bytes <- c.payload_bytes + String.length q
        | _ ->
          incr mismatched;
          Util.log "  fidelity: decomposed payload of %s differs from \
                    Query.advf_payload"
            (W.label t))
      ts
  in
  let t0 = now () in
  let rec go p last =
    if p > 0 && (quick || p = 25 || now () -. t0 +. last > seconds) then p
    else
      let (), d = Util.time (fun () -> one_pass p) in
      go (p + 1) d
  in
  let passes = go 0 0. in
  let med f = Util.median (List.init passes f) in
  let self name = 1000. *. med (fun p -> fst (times name p)) in
  let traced p =
    snd (times "consume.enum" p) +. snd (times "report.render" p)
  in
  let untraced p = Hashtbl.find untraced_s p in
  let compute_ms = 1000. *. med untraced in
  let overhead = med (fun p -> (traced p /. untraced p) -. 1.) in
  let fi_ms = self "inject.fi" in
  Util.log "  %d passes; inject.fi is %.1f%% of traced analysis time and \
            %.1f%% of untraced compute; tracing overhead %+.1f%%"
    passes
    (100. *. med (fun p -> fst (times "inject.fi" p) /. traced p))
    (100. *. fi_ms /. compute_ms)
    (100. *. overhead);
  let per_pass v = float_of_int v /. float_of_int passes in
  let cnt name v = Util.metric name "count" (per_pass v) in
  let share name a b = Util.metric name "ratio" (Util.ratio a b) in
  let ms name v = Util.metric name "ms" v in
  let unresolved = Hashtbl.fold (fun _ v acc -> acc + v) c.unresolved 0 in
  let layers =
    [
      ms "registry.build_ms" (self "registry.build");
      ms "context.golden_ms" (self "context.make");
      cnt "context.golden_steps" c.golden_steps;
      cnt "context.golden_executions" !golden;
      Util.metric "context.tape_bytes" "bytes" (per_pass c.tape_bytes);
      ms "consume.enum_ms" (self "consume.enum");
      cnt "consume.sites" c.sites;
      ms "masking.kernel_ms" (self "masking.kernel");
      cnt "masking.calls" c.mask_calls;
      cnt "masking.lanes" c.lanes;
      share "masking.analytic_share" c.analytic c.lanes;
      cnt "model.class_hits" c.class_hits;
      share "model.class_hit_share" c.class_hits c.sites;
      ms "propagation.replay_ms" (self "propagation.replay");
      cnt "propagation.replays" c.replays;
      share "propagation.resolved_share" c.prop_resolved c.replays;
      cnt "propagation.unresolved" unresolved;
      ms "inject.fi_ms" fi_ms;
      cnt "inject.calls" c.inject_calls;
      cnt "inject.runs" c.inject_runs;
      cnt "inject.steps" c.inject_steps;
      Util.metric "inject.steps_per_run" "count"
        (Util.ratio c.inject_steps c.inject_runs);
      ms "inject.ms_per_run" (fi_ms /. per_pass (max 1 c.inject_runs));
      share "inject.same_share" c.inject_same c.inject_runs;
      ms "report.render_ms" (self "report.render");
      Util.metric "report.payload_bytes" "bytes" (per_pass c.payload_bytes);
      ms "query.compute_ms" compute_ms;
      Util.metric "trace.overhead_share" "ratio" overhead;
      Util.metric "trace.fidelity" "ratio" (if !mismatched = 0 then 1. else 0.);
    ]
  in
  let serving = probes ~n:(if quick then 20 else 300) ~expected in
  (* zero on some workloads, so kept out of the result line *)
  let detail =
    ms "query.harness_ms" (self "query")
    :: cnt "inject.cache_hits" c.inject_hits
    :: Hashtbl.fold
         (fun k v acc -> cnt ("propagation.unresolved." ^ k) v :: acc)
         c.unresolved []
  in
  ( {
      Util.correct =
        !wrong = 0 && !golden = passes * List.length ts
        && Masking.scan_executions () = s0;
      attempted = passes * List.length ts;
      failed = !wrong;
      metrics = layers @ serving;
    },
    detail )
