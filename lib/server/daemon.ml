module Context = Moard_inject.Context
module Store = Moard_store.Store
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
    shims = Chaos.passthrough;
  }

type state = {
  cfg : config;
  st : Store.t;
  pool : Pool.t;
  context : Moard_kernels.Registry.entry -> Context.t;
  contexts : unit -> int;
}

type t = state Serving.t

let store t = (Serving.state t).st
let pool t = (Serving.state t).pool

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
      ("contexts", Jsonx.Int (d.contexts ()));
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
let run_pooled t ~fd ~deadline_s ~lone _op req =
  let d = Serving.state t in
  let timeout_s = Option.value ~default:d.cfg.timeout_s deadline_s in
  let slot = Atomic.make None in
  let fill r = ignore (Atomic.compare_and_set slot None (Some r)) in
  let cancel = Cancel.create ~deadline_s:timeout_s () in
  let env =
    {
      Ops.store = Some d.st;
      context = d.context;
      cancel = Some cancel;
      should_stop = (fun () -> Serving.stopping t);
      journal_fx = d.cfg.shims.Chaos.journal_fx;
    }
  in
  let job () =
    let r =
      try Ops.answer env req with
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
        | _ -> assert false (* Ops.entry_of proved req is an object *));
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
      let context, contexts = Ops.golden_contexts () in
      {
        cfg;
        st;
        pool =
          Pool.create ~wrap:cfg.shims.Chaos.wrap_job ~workers:cfg.workers
            ~queue:cfg.queue ();
        context;
        contexts;
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
