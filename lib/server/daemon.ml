module Registry = Moard_kernels.Registry
module Context = Moard_inject.Context
module Model = Moard_core.Model
module Plan = Moard_campaign.Plan
module Store = Moard_store.Store
module Query = Moard_store.Query
module Key = Moard_store.Key
module Chaos = Moard_chaos.Chaos
module Cancel = Moard_chaos.Cancel
module Monotime = Moard_chaos.Monotime

type config = {
  socket : string;
  store_dir : string;
  workers : int;
  queue : int;
  timeout_s : float;
  lru_entries : int;
  lru_bytes : int;
  batch : bool;
  shims : Chaos.shims;
}

let default_config =
  {
    socket = "moardd.sock";
    store_dir = ".moard-store";
    workers = max 1 (Domain.recommended_domain_count () - 1);
    queue = 64;
    timeout_s = 300.0;
    lru_entries = 256;
    lru_bytes = 64 * 1024 * 1024;
    batch = true;
    shims = Chaos.passthrough;
  }

type state = {
  cfg : config;
  st : Store.t;
  pool : Pool.t;
  cm : Mutex.t;  (* guards [ctxs] *)
  ctxs : (string, Context.t) Hashtbl.t;
}

type t = state Serving.t

let store t = (Serving.state t).st
let pool t = (Serving.state t).pool

(* One golden run per program, whoever asks first; the lock makes the
   make single-flight (concurrent first requests for the same benchmark
   must not both execute the golden run). *)
let ctx_of d (e : Registry.entry) =
  Mutex.lock d.cm;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock d.cm)
    (fun () ->
      match Hashtbl.find_opt d.ctxs e.Registry.benchmark with
      | Some ctx -> ctx
      | None ->
        let ctx = Context.make (e.Registry.workload ()) in
        Hashtbl.replace d.ctxs e.Registry.benchmark ctx;
        ctx)

(* ---------------- request handling ---------------- *)

exception Bad_request = Serving.Bad_request

let field_str = Serving.field_str
let entry_of = Serving.entry_of

let geti req name d =
  Option.value ~default:d (Jsonx.int (Jsonx.member name req))

let getf req name d =
  Option.value ~default:d (Jsonx.float (Jsonx.member name req))

(* An absent "error_model" field means single-bit, so requests predating
   the field keep producing byte-identical keys and payloads. *)
let model_of req =
  match Jsonx.str (Jsonx.member "error_model" req) with
  | None -> Moard_bits.Errmodel.Single_bit
  | Some s -> (
    match Moard_bits.Errmodel.of_string s with
    | Ok m -> m
    | Error msg -> raise (Bad_request msg))

(* [batch] selects the resolution engine, not the analysis: payload bytes
   (and the store key) are the same either way, so it comes from the
   daemon's own configuration, never from the request. *)
let options_of req ~batch =
  {
    Model.default_options with
    Model.k = geti req "k" Model.default_options.Model.k;
    Model.fi_budget =
      geti req "fi_budget" Model.default_options.Model.fi_budget;
    Model.batch;
    Model.model = model_of req;
  }

let objects_of req (e : Registry.entry) =
  match Jsonx.list (Jsonx.member "objects" req) with
  | None | Some [] -> e.Registry.objects
  | Some xs ->
    List.map
      (function
        | Jsonx.Str s -> s
        | _ -> raise (Bad_request "objects must be an array of strings"))
      xs

let plan_of req ctx (e : Registry.entry) =
  Plan.make ~model:(model_of req) ~seed:(geti req "seed" 42)
    ~confidence:(getf req "confidence" 0.95)
    ~ci_width:(getf req "ci_width" 0.02) ~batch:(geti req "batch" 64)
    ~max_samples:(geti req "max_samples" (-1))
    ctx ~objects:(objects_of req e)

let serve_result ~op ~key ~status extra payload =
  ( Protocol.ok
      ([
         ("op", Jsonx.Str op);
         ("key", Jsonx.Str (Key.to_hex key));
         ("served", Jsonx.Str (Query.status_name status));
         ("cached", Jsonx.Bool (Query.is_hit status));
       ]
      @ extra),
    Some payload )

(* The three compute ops. Each returns (header, payload option).
   [cancel] trips when the awaiting connection gives up on us: compute
   paths poll it per site / per batch and abandon the work. *)
let compute t ~cancel req op =
  let d = Serving.state t in
  match op with
  | "advf" ->
    let e = entry_of req in
    let object_name = field_str req "object" in
    let options = options_of req ~batch:d.cfg.batch in
    let program = (e.Registry.workload ()).Moard_inject.Workload.program in
    let key = Key.advf ~program ~object_name ~options in
    let payload, status =
      Query.advf d.st ~options ~cancel
        ~ctx:(fun () -> ctx_of d e)
        ~program ~object_name ()
    in
    serve_result ~op ~key ~status
      [
        ("benchmark", Jsonx.Str e.Registry.benchmark);
        ("object", Jsonx.Str object_name);
      ]
      payload
  | "campaign" | "report" ->
    let e = entry_of req in
    let program = (e.Registry.workload ()).Moard_inject.Workload.program in
    (* the plan needs the fault-site population, hence the golden run *)
    let ctx = ctx_of d e in
    let plan = plan_of req ctx e in
    let key = Key.campaign ~program ~plan in
    let extra = [ ("benchmark", Jsonx.Str e.Registry.benchmark) ] in
    if op = "campaign" then begin
      let domains = geti req "domains" 1 in
      let payload, status, result =
        Query.campaign d.st ~domains ~batch:d.cfg.batch
          ~should_stop:(fun () -> Serving.stopping t)
          ~cancel ~fx:d.cfg.shims.Chaos.journal_fx
          ~journal_meta:[ ("benchmark", e.Registry.benchmark) ]
          ~ctx:(fun () -> ctx)
          ~program ~plan ()
      in
      let complete =
        match result with
        | None -> true
        | Some r ->
          not
            (Array.exists
               (fun (o : Moard_campaign.Engine.object_result) ->
                 o.Moard_campaign.Engine.stopped
                 = Moard_campaign.Engine.Interrupted)
               r.Moard_campaign.Engine.objects)
      in
      serve_result ~op ~key ~status
        (extra @ [ ("complete", Jsonx.Bool complete) ])
        payload
    end
    else begin
      (* report: read-only — the store, else the journal, else not-found *)
      match Store.get d.st ~key ~kind:Moard_store.Record.Campaign with
      | Some (payload, where) ->
        let status =
          match where with
          | Store.Memory -> Query.Memory_hit
          | Store.Disk -> Query.Disk_hit
        in
        serve_result ~op ~key ~status
          (extra @ [ ("complete", Jsonx.Bool true) ])
          payload
      | None ->
        let journal =
          Filename.concat (Store.journal_dir d.st)
            (Key.to_hex key ^ ".journal")
        in
        if not (Sys.file_exists journal) then
          ( Protocol.error ~code:"not-found"
              ~message:
                "no stored report and no journal for this campaign key",
            None )
        else
          let r =
            Moard_campaign.Engine.resume ~max_batches:0
              ~fx:d.cfg.shims.Chaos.journal_fx ~journal ctx plan
          in
          let payload = Query.campaign_payload r in
          serve_result ~op ~key ~status:Query.Computed
            (extra @ [ ("complete", Jsonx.Bool false) ])
            payload
    end
  | "predict" ->
    let e = entry_of req in
    let object_name = field_str req "object" in
    let sizes =
      match Jsonx.list (Jsonx.member "sizes" req) with
      | None | Some [] -> Registry.training_sizes e
      | Some xs ->
        List.map
          (function
            | Jsonx.Int n -> n
            | _ -> raise (Bad_request "sizes must be an array of integers"))
          xs
    in
    let target = geti req "target" (Registry.holdout_size e) in
    let model = model_of req in
    let seed = geti req "seed" 42 in
    let confidence = getf req "confidence" 0.95 in
    let ci_width = getf req "ci_width" 0.02 in
    let max_samples = geti req "max_samples" (-1) in
    let domains = geti req "domains" 1 in
    let sizes = Moard_predict.Predict.canonical_sizes sizes in
    (* predictions key on (size, program) pairs, not the daemon's shared
       per-benchmark context (which is pinned to the default size) *)
    let programs =
      List.map
        (fun n ->
          (n, (e.Registry.workload_at n).Moard_inject.Workload.program))
        sizes
    in
    let key =
      Key.predict ~programs ~object_name ~model ~seed ~confidence ~ci_width
        ~max_samples ~target
    in
    let payload, status, _ =
      Query.predict d.st ~model ~seed ~confidence ~ci_width ~max_samples
        ~domains ~batch:d.cfg.batch ~cancel
        ~workload_at:e.Registry.workload_at ~object_name ~sizes ~target ()
    in
    serve_result ~op ~key ~status
      [
        ("benchmark", Jsonx.Str e.Registry.benchmark);
        ("object", Jsonx.Str object_name);
        ("target", Jsonx.Int target);
      ]
      payload
  | "advise" ->
    let e = entry_of req in
    let model = model_of req in
    let seed = geti req "seed" 42 in
    let confidence = getf req "confidence" 0.95 in
    let ci_width = getf req "ci_width" 0.02 in
    let max_samples = geti req "max_samples" (-1) in
    let domains = geti req "domains" 1 in
    let wl = e.Registry.workload () in
    let objects = objects_of req e in
    let key =
      Key.advise ~program:wl.Moard_inject.Workload.program ~objects ~model
        ~seed ~confidence ~ci_width ~max_samples
    in
    let payload, status =
      Query.advise d.st ~model ~seed ~confidence ~ci_width ~max_samples
        ~domains ~batch:d.cfg.batch ~cancel ~workload:wl ~objects ()
    in
    serve_result ~op ~key ~status
      [ ("benchmark", Jsonx.Str e.Registry.benchmark) ]
      payload
  | _ -> (Protocol.error ~code:"bad-request" ~message:("unknown op " ^ op), None)

let stat_response t =
  let d = Serving.state t in
  let c = Serving.counters t in
  let s = Store.stat d.st in
  Protocol.ok
    [
      ("op", Jsonx.Str "stat");
      ("server", Jsonx.Str Version.version);
      ("proto", Jsonx.Int Protocol.version);
      ("uptime_s", Jsonx.Float (Serving.uptime_s t));
      ( "store",
        Jsonx.Obj
          [
            ("dir", Jsonx.Str (Store.dir d.st));
            ("entries", Jsonx.Int s.Store.entries);
            ("disk_bytes", Jsonx.Int s.Store.disk_bytes);
            ("lru_entries", Jsonx.Int s.Store.lru_entries);
            ("lru_bytes", Jsonx.Int s.Store.lru_bytes);
            ("lru_evictions", Jsonx.Int s.Store.lru_evictions);
            ("mem_hits", Jsonx.Int s.Store.mem_hits);
            ("disk_hits", Jsonx.Int s.Store.disk_hits);
            ("misses", Jsonx.Int s.Store.misses);
            ("corrupt", Jsonx.Int s.Store.corrupt);
            ("quarantined", Jsonx.Int s.Store.quarantined);
            ("put_failures", Jsonx.Int s.Store.put_failures);
            ("puts", Jsonx.Int s.Store.puts);
          ] );
      ( "pool",
        Jsonx.Obj
          ([
             ("workers", Jsonx.Int (Pool.workers d.pool));
             ("queued", Jsonx.Int (Pool.queued d.pool));
             ("running", Jsonx.Int (Pool.running d.pool));
             ("executed", Jsonx.Int (Pool.executed d.pool));
             ("rejected", Jsonx.Int (Pool.rejected d.pool));
             ("failed", Jsonx.Int (Pool.failed d.pool));
           ]
          @
          match Pool.last_error d.pool with
          | None -> []
          | Some e -> [ ("last_error", Jsonx.Str e) ]) );
      ("contexts", Jsonx.Int (Hashtbl.length d.ctxs));
      ("golden_executions", Jsonx.Int (Context.golden_executions ()));
      ("served", Jsonx.Int c.Serving.served);
      ("errors", Jsonx.Int c.Serving.errors);
      ("coalesced", Jsonx.Int c.Serving.coalesced);
      ( "warming",
        Jsonx.Obj
          [
            ("queued", Jsonx.Int (Serving.warm_queued t));
            ("busy", Jsonx.Bool c.Serving.warm_busy);
            ("warmed", Jsonx.Int c.Serving.warmed);
            ("errors", Jsonx.Int c.Serving.warm_errors);
          ] );
    ]

(* The awaiting client hung up (clean EOF or a reset): readable socket
   with nothing to peek.  Pipelined bytes (> 0) mean it is still there. *)
let client_gone fd =
  match Unix.select [ fd ] [] [] 0. with
  | [], _, _ -> false
  | _ -> (
    match Unix.recv fd (Bytes.create 1) 0 1 [ Unix.MSG_PEEK ] with
    | 0 -> true
    | _ -> false
    | exception Unix.Unix_error _ -> true)

(* Run one compute op through the pool. Pooled ops hand a job to a
   worker domain and poll the slot under a monotonic request deadline;
   when it passes — or the requesting connection dies with nobody
   coalesced behind it — the job's cancel token trips and the
   computation abandons the sweep at its next per-site/per-batch check:
   the worker frees instead of running a result nobody is waiting for
   to completion. *)
let run_pooled t ~fd ~deadline_s ~lone op req =
  let d = Serving.state t in
  let timeout_s = Option.value ~default:d.cfg.timeout_s deadline_s in
  let slot = Atomic.make None in
  let fill r = ignore (Atomic.compare_and_set slot None (Some r)) in
  let cancel = Cancel.create ~deadline_s:timeout_s () in
  let job () =
    let r =
      try compute t ~cancel req op with
      | Bad_request msg ->
        (Protocol.error ~code:"bad-request" ~message:msg, None)
      | Moard_predict.Predict.Refused r ->
        ( Protocol.error ~code:"refused"
            ~message:(Moard_predict.Predict.refusal_message r),
          None )
      | Cancel.Cancelled why ->
        (* nobody is waiting by now; fill the slot anyway so the
           invariant — every accepted job resolves its slot — holds
           unconditionally *)
        ( Protocol.error ~code:"cancelled"
            ~message:("request abandoned: " ^ why),
          None )
      | Invalid_argument msg | Failure msg ->
        (Protocol.error ~code:"internal" ~message:msg, None)
      | e ->
        (Protocol.error ~code:"internal" ~message:(Printexc.to_string e), None)
    in
    fill r
  in
  (* the pool's on_error hook guarantees a typed response even when
     the job dies outside compute's own handlers (e.g. a chaos-
     injected raise in the job shim): the client must never be left
     to wait out the full timeout on a silent failure *)
  let on_error e =
    fill
      ( Protocol.error ~code:"internal"
          ~message:("job failed: " ^ Printexc.to_string e),
        None )
  in
  match Pool.submit ~on_error d.pool job with
  | `Overloaded ->
    ( Protocol.error ~code:"overloaded"
        ~message:
          (Printf.sprintf "queue full (%d pending); retry later" d.cfg.queue),
      None )
  | `Draining ->
    (Protocol.error ~code:"draining" ~message:"daemon is shutting down", None)
  | `Accepted ->
    let deadline = Monotime.now () +. timeout_s in
    let rec await n =
      match Atomic.get slot with
      | Some r -> r
      | None ->
        if Monotime.now () > deadline then begin
          Cancel.cancel cancel;
          ( Protocol.error ~code:"timeout"
              ~message:
                (Printf.sprintf
                   "request exceeded %gs (the computation was cancelled; \
                    partial campaign batches remain journalled for resume)"
                   timeout_s),
            None )
        end
        else if
          (* every ~100 ms: a hedged-away or dead client frees its
             worker, unless coalesced followers still want the result *)
          n mod 20 = 0
          && (match fd with Some fd -> client_gone fd | None -> false)
          && lone ()
        then begin
          Cancel.cancel cancel;
          ( Protocol.error ~code:"cancelled"
              ~message:"client went away; computation abandoned",
            None )
        end
        else begin
          Thread.delay 0.005;
          await (n + 1)
        end
    in
    await 1

let hooks =
  {
    Serving.version = [];
    stat = stat_response;
    compute = run_pooled;
    (* the queued precompute is the advf request itself, so live
       queries for the same key coalesce onto the warm compute *)
    warm_item =
      (fun _ _ req ->
        match req with
        | Jsonx.Obj fields ->
          let drop k = List.mem k [ "op"; "proto"; "req_fnv" ] in
          Jsonx.Obj
            (("op", Jsonx.Str "advf")
            :: List.filter (fun (k, _) -> not (drop k)) fields)
        | _ -> assert false (* entry_of proved req is an object *));
    (* Warms run deadline-free: the per-request timeout protects a
       waiting client, and a warm has none — expiring it would burn the
       whole compute and silently leave the object cold (the dedup table
       never requeues). *)
    warm =
      (fun t req ->
        Serving.is_ok
          (fst (Serving.dispatch t ~deadline_s:Float.infinity req)));
    (* only when no client work is queued or running *)
    idle = (fun d -> Pool.queued d.pool = 0 && Pool.running d.pool = 0);
  }

let start cfg =
  let cfg = { cfg with workers = max 1 cfg.workers; queue = max 1 cfg.queue } in
  let st =
    Store.open_store ~lru_entries:cfg.lru_entries ~lru_bytes:cfg.lru_bytes
      ~fx:cfg.shims.Chaos.store_fx ~dir:cfg.store_dir ()
  in
  Serving.start ~socket:cfg.socket ~sock:cfg.shims.Chaos.sock
    (fun () ->
      {
        cfg;
        st;
        pool =
          Pool.create ~wrap:cfg.shims.Chaos.wrap_job ~workers:cfg.workers
            ~queue:cfg.queue ();
        cm = Mutex.create ();
        ctxs = Hashtbl.create 8;
      })
    hooks

let stop t =
  (* in-flight requests finish, then the pool drains *)
  Serving.stop t ~drain:(fun () -> Pool.drain (pool t));
  (* Everything the daemon held (golden contexts and their tapes, the
     store's LRU, the pool) became garbage at once. Collect it now, so
     a process that runs daemons one after another (a local cluster,
     the test suite, the perf harness's served-mixed rounds) does not
     stack each stopped daemon's heap on the next one's until the
     major GC catches up. *)
  Gc.full_major ()

let run cfg = Serving.run (start cfg) ~stop
