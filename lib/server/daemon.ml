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

(* A single-flight entry: the leader computes, followers block on the
   condition until the leader publishes the shared response. *)
type flight = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable waiters : int;
  mutable fresult : (Jsonx.t * string option) option;
}

type t = {
  cfg : config;
  st : Store.t;
  pool : Pool.t;
  listen : Unix.file_descr;
  stop_flag : bool Atomic.t;
  m : Mutex.t;
  conns_done : Condition.t;
  ctxs : (string, Context.t) Hashtbl.t;
  flights : (string, flight) Hashtbl.t;
  warm_q : Jsonx.t Queue.t;
  warm_seen : (string, unit) Hashtbl.t;
  mutable warm_busy : bool;
  mutable warmed : int;
  mutable warm_errors : int;
  mutable coalesced : int;
  mutable conns : int;
  mutable served : int;
  mutable errors : int;
  mutable accept_thread : Thread.t option;
  mutable warm_thread : Thread.t option;
  mutable stopped : bool;
  started_at : float;
}

let stopping t = Atomic.get t.stop_flag
let store t = t.st
let pool t = t.pool

(* One golden run per program, whoever asks first; the lock makes the
   make single-flight (concurrent first requests for the same benchmark
   must not both execute the golden run). *)
let ctx_of t (e : Registry.entry) =
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      match Hashtbl.find_opt t.ctxs e.Registry.benchmark with
      | Some ctx -> ctx
      | None ->
        let ctx = Context.make (e.Registry.workload ()) in
        Hashtbl.replace t.ctxs e.Registry.benchmark ctx;
        ctx)

(* ---------------- request handling ---------------- *)

(* Two requests are the same work iff their canonical signatures match:
   top-level fields sorted, transport decoration (proto, checksum)
   stripped.  The same string doubles as the integrity-checksum input
   on inter-node hops — field reordering in flight is not corruption. *)
let signature_of req = Jsonx.signature ~drop:[ "proto"; "req_fnv" ] req

(* A proxy stamps "req_fnv" on forwarded requests; a flipped bit in the
   header frame that still parses as JSON would otherwise compute the
   wrong object and break byte-identity silently.  Verified before any
   work, so the typed refusal is always safe to resend. *)
let integrity_error req =
  match Jsonx.str (Jsonx.member "req_fnv" req) with
  | None -> None
  | Some announced ->
    let actual = Protocol.fnv_hex (signature_of req) in
    if String.equal announced actual then None
    else
      Some
        (Protocol.error ~code:"integrity"
           ~message:
             (Printf.sprintf
                "request checksum mismatch (%s announced, %s received): \
                 refused before dispatch"
                announced actual))

exception Bad_request of string

let field_str req name =
  match Jsonx.str (Jsonx.member name req) with
  | Some s -> s
  | None -> raise (Bad_request (Printf.sprintf "missing string field %S" name))

let entry_of req =
  let benchmark = field_str req "benchmark" in
  match Registry.find benchmark with
  | e -> e
  | exception Not_found ->
    raise (Bad_request (Printf.sprintf "unknown benchmark %S" benchmark))

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
  let get name d = Option.value ~default:d (Jsonx.int (Jsonx.member name req)) in
  {
    Model.default_options with
    Model.k = get "k" Model.default_options.Model.k;
    Model.fi_budget = get "fi_budget" Model.default_options.Model.fi_budget;
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
  let geti name d = Option.value ~default:d (Jsonx.int (Jsonx.member name req)) in
  let getf name d =
    Option.value ~default:d (Jsonx.float (Jsonx.member name req))
  in
  Plan.make ~model:(model_of req) ~seed:(geti "seed" 42)
    ~confidence:(getf "confidence" 0.95)
    ~ci_width:(getf "ci_width" 0.02) ~batch:(geti "batch" 64)
    ~max_samples:(geti "max_samples" (-1))
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
  match op with
  | "advf" ->
    let e = entry_of req in
    let object_name = field_str req "object" in
    let options = options_of req ~batch:t.cfg.batch in
    let program = (e.Registry.workload ()).Moard_inject.Workload.program in
    let key = Key.advf ~program ~object_name ~options in
    let payload, status =
      Query.advf t.st ~options ~cancel
        ~ctx:(fun () -> ctx_of t e)
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
    let ctx = ctx_of t e in
    let plan = plan_of req ctx e in
    let key = Key.campaign ~program ~plan in
    let extra = [ ("benchmark", Jsonx.Str e.Registry.benchmark) ] in
    if op = "campaign" then begin
      let domains =
        Option.value ~default:1 (Jsonx.int (Jsonx.member "domains" req))
      in
      let payload, status, result =
        Query.campaign t.st ~domains ~batch:t.cfg.batch
          ~should_stop:(fun () -> Atomic.get t.stop_flag)
          ~cancel ~fx:t.cfg.shims.Chaos.journal_fx
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
      match Store.get t.st ~key ~kind:Moard_store.Record.Campaign with
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
          Filename.concat (Store.journal_dir t.st)
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
              ~fx:t.cfg.shims.Chaos.journal_fx ~journal ctx plan
          in
          let payload = Query.campaign_payload r in
          serve_result ~op ~key ~status:Query.Computed
            (extra @ [ ("complete", Jsonx.Bool false) ])
            payload
    end
  | "predict" ->
    let e = entry_of req in
    let object_name = field_str req "object" in
    let geti name d =
      Option.value ~default:d (Jsonx.int (Jsonx.member name req))
    in
    let getf name d =
      Option.value ~default:d (Jsonx.float (Jsonx.member name req))
    in
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
    let target = geti "target" (Registry.holdout_size e) in
    let model = model_of req in
    let seed = geti "seed" 42 in
    let confidence = getf "confidence" 0.95 in
    let ci_width = getf "ci_width" 0.02 in
    let max_samples = geti "max_samples" (-1) in
    let domains = geti "domains" 1 in
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
      Query.predict t.st ~model ~seed ~confidence ~ci_width ~max_samples
        ~domains ~batch:t.cfg.batch ~cancel
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
    let geti name d =
      Option.value ~default:d (Jsonx.int (Jsonx.member name req))
    in
    let getf name d =
      Option.value ~default:d (Jsonx.float (Jsonx.member name req))
    in
    let model = model_of req in
    let seed = geti "seed" 42 in
    let confidence = getf "confidence" 0.95 in
    let ci_width = getf "ci_width" 0.02 in
    let max_samples = geti "max_samples" (-1) in
    let domains = geti "domains" 1 in
    let wl = e.Registry.workload () in
    let objects = objects_of req e in
    let key =
      Key.advise ~program:wl.Moard_inject.Workload.program ~objects ~model
        ~seed ~confidence ~ci_width ~max_samples
    in
    let payload, status =
      Query.advise t.st ~model ~seed ~confidence ~ci_width ~max_samples
        ~domains ~batch:t.cfg.batch ~cancel ~workload:wl ~objects ()
    in
    serve_result ~op ~key ~status
      [ ("benchmark", Jsonx.Str e.Registry.benchmark) ]
      payload
  | _ -> (Protocol.error ~code:"bad-request" ~message:("unknown op " ^ op), None)

let stat_response t =
  let s = Store.stat t.st in
  Protocol.ok
    [
      ("op", Jsonx.Str "stat");
      ("server", Jsonx.Str Version.version);
      ("proto", Jsonx.Int Protocol.version);
      ("uptime_s", Jsonx.Float (Monotime.now () -. t.started_at));
      ( "store",
        Jsonx.Obj
          [
            ("dir", Jsonx.Str (Store.dir t.st));
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
             ("workers", Jsonx.Int (Pool.workers t.pool));
             ("queued", Jsonx.Int (Pool.queued t.pool));
             ("running", Jsonx.Int (Pool.running t.pool));
             ("executed", Jsonx.Int (Pool.executed t.pool));
             ("rejected", Jsonx.Int (Pool.rejected t.pool));
             ("failed", Jsonx.Int (Pool.failed t.pool));
           ]
          @
          match Pool.last_error t.pool with
          | None -> []
          | Some e -> [ ("last_error", Jsonx.Str e) ]) );
      ("contexts", Jsonx.Int (Hashtbl.length t.ctxs));
      ("golden_executions", Jsonx.Int (Context.golden_executions ()));
      ("served", Jsonx.Int t.served);
      ("errors", Jsonx.Int t.errors);
      ("coalesced", Jsonx.Int t.coalesced);
      ( "warming",
        Jsonx.Obj
          [
            ("queued", Jsonx.Int (Queue.length t.warm_q));
            ("busy", Jsonx.Bool t.warm_busy);
            ("warmed", Jsonx.Int t.warmed);
            ("errors", Jsonx.Int t.warm_errors);
          ] );
    ]

(* ---------------- warming ---------------- *)

(* "warm" acknowledges immediately and queues an advf precompute; the
   warm thread drains the queue only while the pool is otherwise idle,
   so warming never competes with a live client request for a worker. *)
let enqueue_warm t req =
  match integrity_error req with
  | Some e -> (e, None)
  | None -> (
    match
      let e = entry_of req in
      let object_name = field_str req "object" in
      (e, object_name)
    with
    | exception Bad_request msg ->
      (Protocol.error ~code:"bad-request" ~message:msg, None)
    | e, object_name ->
      let inner =
        match req with
        | Jsonx.Obj fields ->
          Jsonx.Obj
            (List.filter_map
               (fun (k, v) ->
                 match k with
                 | "proto" | "req_fnv" -> None
                 | "op" -> Some (k, Jsonx.Str "advf")
                 | _ -> Some (k, v))
               fields)
        | _ -> assert false (* entry_of above proved req is an object *)
      in
      let sgn = signature_of inner in
      Mutex.lock t.m;
      let fresh = not (Hashtbl.mem t.warm_seen sgn) in
      if fresh then begin
        Hashtbl.replace t.warm_seen sgn ();
        Queue.push inner t.warm_q
      end;
      Mutex.unlock t.m;
      ( Protocol.ok
          [
            ("op", Jsonx.Str "warm");
            ("benchmark", Jsonx.Str e.Registry.benchmark);
            ("object", Jsonx.Str object_name);
            ("queued", Jsonx.Bool fresh);
          ],
        None ))

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
let run_pooled t ?fd ?deadline_s fl req op =
  let timeout_s = Option.value ~default:t.cfg.timeout_s deadline_s in
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
  match Pool.submit ~on_error t.pool job with
  | `Overloaded ->
    ( Protocol.error ~code:"overloaded"
        ~message:
          (Printf.sprintf "queue full (%d pending); retry later" t.cfg.queue),
      None )
  | `Draining ->
    (Protocol.error ~code:"draining" ~message:"daemon is shutting down", None)
  | `Accepted ->
    let deadline = Monotime.now () +. timeout_s in
    let lone () =
      Mutex.lock fl.fm;
      let w = fl.waiters in
      Mutex.unlock fl.fm;
      w = 0
    in
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

(* A coalesced follower serves the leader's bytes but says so: the
   response is a hit from the follower's point of view whatever the
   leader had to do to produce it. *)
let coalesced_header = function
  | Jsonx.Obj fields
    when List.assoc_opt "status" fields = Some (Jsonx.Str "ok") ->
    Jsonx.Obj
      (List.map
         (fun (k, v) ->
           match k with
           | "served" -> (k, Jsonx.Str "coalesced")
           | "cached" -> (k, Jsonx.Bool true)
           | _ -> (k, v))
         fields)
  | h -> h

(* Dispatch one request to a response.  Compute ops are single-flight
   on the canonical request signature: concurrent identical requests
   elect one leader, everyone else blocks for the leader's response. *)
let dispatch t ?fd ?deadline_s req =
  match Jsonx.int (Jsonx.member "proto" req) with
  | Some p when p <> Protocol.version ->
    ( Protocol.error ~code:"proto-mismatch"
        ~message:
          (Printf.sprintf "server speaks protocol %d, client sent %d"
             Protocol.version p),
      None )
  | _ -> (
    match Jsonx.str (Jsonx.member "op" req) with
    | None -> (Protocol.error ~code:"bad-request" ~message:"missing op", None)
    | Some "version" ->
      ( Protocol.ok
          [
            ("op", Jsonx.Str "version");
            ("server", Jsonx.Str Version.version);
            ("proto", Jsonx.Int Protocol.version);
          ],
        None )
    | Some "stat" -> (stat_response t, None)
    | Some "warm" -> enqueue_warm t req
    | Some (("advf" | "campaign" | "report" | "predict" | "advise") as op) -> (
      match integrity_error req with
      | Some e -> (e, None)
      | None -> (
        let sgn = signature_of req in
        let role =
          Mutex.lock t.m;
          let r =
            match Hashtbl.find_opt t.flights sgn with
            | Some fl ->
              Mutex.lock fl.fm;
              fl.waiters <- fl.waiters + 1;
              Mutex.unlock fl.fm;
              `Follow fl
            | None ->
              let fl =
                {
                  fm = Mutex.create ();
                  fc = Condition.create ();
                  waiters = 0;
                  fresult = None;
                }
              in
              Hashtbl.replace t.flights sgn fl;
              `Lead fl
          in
          Mutex.unlock t.m;
          r
        in
        match role with
        | `Follow fl ->
          Mutex.lock fl.fm;
          while fl.fresult = None do
            Condition.wait fl.fc fl.fm
          done;
          let header, payload = Option.get fl.fresult in
          Mutex.unlock fl.fm;
          Mutex.lock t.m;
          t.coalesced <- t.coalesced + 1;
          Mutex.unlock t.m;
          (coalesced_header header, payload)
        | `Lead fl ->
          let resolve r =
            Mutex.lock t.m;
            Hashtbl.remove t.flights sgn;
            Mutex.unlock t.m;
            Mutex.lock fl.fm;
            fl.fresult <- Some r;
            Condition.broadcast fl.fc;
            Mutex.unlock fl.fm;
            r
          in
          (* the leader must always publish — a raising leader would
             leave followers blocked forever *)
          (match run_pooled t ?fd ?deadline_s fl req op with
          | r -> resolve r
          | exception e ->
            ignore
              (resolve
                 ( Protocol.error ~code:"internal"
                     ~message:(Printexc.to_string e),
                   None ));
            raise e)))
    | Some op ->
      (Protocol.error ~code:"bad-request" ~message:("unknown op " ^ op), None))

(* ---------------- connection & accept loops ---------------- *)

let bump t ok =
  Mutex.lock t.m;
  if ok then t.served <- t.served + 1 else t.errors <- t.errors + 1;
  Mutex.unlock t.m

let is_ok = function
  | Jsonx.Obj fields -> List.assoc_opt "status" fields = Some (Jsonx.Str "ok")
  | _ -> false

(* Drain the warm queue through the normal dispatch path (so live
   queries for the same key coalesce onto the warm compute), one item
   at a time, only when no client work is queued or running.  Warms run
   deadline-free: the per-request timeout protects a waiting client,
   and a warm has none — expiring it would burn the whole compute and
   silently leave the object cold (the dedup table never requeues). *)
let warm_loop t () =
  while not (stopping t) do
    let item =
      Mutex.lock t.m;
      let it =
        if
          (not (Queue.is_empty t.warm_q))
          && Pool.queued t.pool = 0
          && Pool.running t.pool = 0
        then Some (Queue.pop t.warm_q)
        else None
      in
      (match it with Some _ -> t.warm_busy <- true | None -> ());
      Mutex.unlock t.m;
      it
    in
    match item with
    | None -> Thread.delay 0.02
    | Some req ->
      let header, _ = dispatch t ~deadline_s:Float.infinity req in
      Mutex.lock t.m;
      t.warm_busy <- false;
      if is_ok header then t.warmed <- t.warmed + 1
      else t.warm_errors <- t.warm_errors + 1;
      Mutex.unlock t.m
  done

let handle_conn t fd =
  let sock = t.cfg.shims.Chaos.sock in
  let rec loop () =
    if not (stopping t) then begin
      (* short select ticks keep the drain responsive on idle connections *)
      match Unix.select [ fd ] [] [] 0.25 with
      | [], _, _ -> loop ()
      | _ -> (
        match Protocol.recv ~sock fd with
        | None -> ()
        | Some (req, _payload) ->
          let header, payload = dispatch t ~fd req in
          bump t (is_ok header);
          Protocol.send ~sock fd ?payload header;
          loop ())
    end
  in
  (try loop () with
  | Protocol.Protocol_error msg ->
    (* answer malformed framing if the socket still writes, then drop *)
    (try
       Protocol.send ~sock fd (Protocol.error ~code:"bad-request" ~message:msg)
     with _ -> ());
    bump t false
  | Unix.Unix_error _ | Sys_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Mutex.lock t.m;
  t.conns <- t.conns - 1;
  Condition.broadcast t.conns_done;
  Mutex.unlock t.m

let accept_loop t () =
  while not (stopping t) do
    match Unix.select [ t.listen ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept t.listen with
      | fd, _ ->
        Mutex.lock t.m;
        t.conns <- t.conns + 1;
        Mutex.unlock t.m;
        ignore (Thread.create (fun () -> handle_conn t fd) ())
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ())
  done

let start cfg =
  let cfg = { cfg with workers = max 1 cfg.workers; queue = max 1 cfg.queue } in
  (* a write on a dead client connection must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let st =
    Store.open_store ~lru_entries:cfg.lru_entries ~lru_bytes:cfg.lru_bytes
      ~fx:cfg.shims.Chaos.store_fx ~dir:cfg.store_dir ()
  in
  if Sys.file_exists cfg.socket then Unix.unlink cfg.socket;
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_UNIX cfg.socket);
  Unix.listen listen 64;
  let t =
    {
      cfg;
      st;
      pool =
        Pool.create ~wrap:cfg.shims.Chaos.wrap_job ~workers:cfg.workers
          ~queue:cfg.queue ();
      listen;
      stop_flag = Atomic.make false;
      m = Mutex.create ();
      conns_done = Condition.create ();
      ctxs = Hashtbl.create 8;
      flights = Hashtbl.create 16;
      warm_q = Queue.create ();
      warm_seen = Hashtbl.create 64;
      warm_busy = false;
      warmed = 0;
      warm_errors = 0;
      coalesced = 0;
      conns = 0;
      served = 0;
      errors = 0;
      accept_thread = None;
      warm_thread = None;
      stopped = false;
      started_at = Monotime.now ();
    }
  in
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  t.warm_thread <- Some (Thread.create (warm_loop t) ());
  t

let stop t =
  Atomic.set t.stop_flag true;
  Mutex.lock t.m;
  let first = not t.stopped in
  t.stopped <- true;
  Mutex.unlock t.m;
  if first then begin
    Option.iter Thread.join t.accept_thread;
    (* in-flight requests finish (their campaign batches commit to the
       journal via the engine's should_stop hook), then the pool drains *)
    Mutex.lock t.m;
    while t.conns > 0 do
      Condition.wait t.conns_done t.m
    done;
    Mutex.unlock t.m;
    (* the warm thread exits at its next stopping check; an in-flight
       warm campaign stops at a batch boundary via should_stop *)
    Option.iter Thread.join t.warm_thread;
    Pool.drain t.pool;
    (try Unix.close t.listen with Unix.Unix_error _ -> ());
    if Sys.file_exists t.cfg.socket then (
      try Unix.unlink t.cfg.socket with Unix.Unix_error _ -> ());
    (* Everything the daemon held (golden contexts and their tapes, the
       store's LRU, the pool) became garbage at once. Collect it now, so
       a process that runs daemons one after another (a local cluster,
       the test suite, the perf harness's served-mixed rounds) does not
       stack each stopped daemon's heap on the next one's until the
       major GC catches up. *)
    Gc.full_major ()
  end

let run cfg =
  let t = start cfg in
  let quit _ = Atomic.set t.stop_flag true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
  Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
  while not (stopping t) do
    Thread.delay 0.2
  done;
  stop t
