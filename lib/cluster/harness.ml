module Chaos = Moard_chaos.Chaos
module Rng = Moard_chaos.Rng
module Monotime = Moard_chaos.Monotime
module Registry = Moard_kernels.Registry
module Context = Moard_inject.Context
module Model = Moard_core.Model
module Plan = Moard_campaign.Plan
module Engine = Moard_campaign.Engine
module Store = Moard_store.Store
module Query = Moard_store.Query
module Jsonx = Moard_server.Jsonx
module Client = Moard_server.Client
module Protocol = Moard_server.Protocol
module Daemon = Moard_server.Daemon
module Pool = Moard_server.Pool

(* A started target: where the client connects, what runs around each
   request, how it stops, and its own report fields. *)
type session = {
  socket : string;
  before : unit -> unit;  (* crash/partition trials *)
  after : unit -> unit;  (* heal *)
  stop : unit -> unit;  (* raising means not a clean stop *)
  events : unit -> (string * int) list;  (* rendered after [hung] *)
  health : unit -> (string * int) list;  (* read after [stop] *)
  cleanup : survived:bool -> unit;
}

type target = {
  shape : (string * Jsonx.t) list;  (* rendered after [rate] *)
  scopes : Chaos.scope list;  (* fault scopes enabled *)
  reported : Chaos.scope list;  (* scopes listed in [fault_stats] *)
  timeout_s : float;  (* the client's per-request timeout *)
  start : Chaos.t -> session;
}

type report = {
  seed : int;
  rounds : int;
  rate : float;
  shape : (string * Jsonx.t) list;
  requests : int;
  identical : int;
  ok_dynamic : int;
  partial : int;
  typed_errors : (string * int) list;
  transport_failures : int;
  diverged : int;
  hung : int;
  events : (string * int) list;
  fault_stats : (string * int * int) list;
  schedule_hash : string;
  health : (string * int) list;
  survived : bool;
}

let to_json r =
  let ints = List.map (fun (k, n) -> (k, Jsonx.Int n)) in
  Jsonx.Obj
    ([
       ("seed", Jsonx.Int r.seed);
       ("rounds", Jsonx.Int r.rounds);
       ("rate", Jsonx.Float r.rate);
     ]
    @ r.shape
    @ [
        ("requests", Jsonx.Int r.requests);
        ("identical", Jsonx.Int r.identical);
        ("ok_dynamic", Jsonx.Int r.ok_dynamic);
        ("partial", Jsonx.Int r.partial);
        ("typed_errors", Jsonx.Obj (ints r.typed_errors));
        ("transport_failures", Jsonx.Int r.transport_failures);
        ("diverged", Jsonx.Int r.diverged);
        ("hung", Jsonx.Int r.hung);
      ]
    @ ints r.events
    @ [
        ( "faults",
          Jsonx.Arr
            (List.map
               (fun (s, ops, injected) ->
                 Jsonx.Obj
                   [
                     ("scope", Jsonx.Str s);
                     ("ops", Jsonx.Int ops);
                     ("injected", Jsonx.Int injected);
                   ])
               r.fault_stats) );
        ("schedule_hash", Jsonx.Str r.schedule_hash);
      ]
    @ ints r.health
    @ [ ("survived", Jsonx.Bool r.survived) ])

let fresh_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

let rm_quiet path = try rm_rf path with Unix.Unix_error _ | Sys_error _ -> ()

(* ---------------- targets ---------------- *)

let all_classes = [ "store"; "journal"; "protocol"; "pool" ]

let scopes_of_class = function
  | "store" -> [ Chaos.Store_read; Chaos.Store_write ]
  | "journal" -> [ Chaos.Journal_read; Chaos.Journal_write ]
  | "protocol" -> [ Chaos.Sock_recv; Chaos.Sock_send ]
  | "pool" -> [ Chaos.Job ]
  | c -> invalid_arg ("Harness.daemon: unknown fault class " ^ c)

let daemon ?(classes = all_classes) ?store_dir () =
  {
    shape =
      [ ("classes", Jsonx.Arr (List.map (fun c -> Jsonx.Str c) classes)) ];
    scopes = List.concat_map scopes_of_class classes;
    reported = Chaos.all_scopes;
    timeout_s = 5.0;
    start =
      (fun chaos ->
        let keep_store, store_dir =
          match store_dir with
          | Some d ->
            if not (Sys.file_exists d) then Unix.mkdir d 0o755;
            (true, d)
          | None -> (false, fresh_dir "moard-chaos-store")
        in
        let sock_dir = fresh_dir "moard-chaos-sock" in
        let socket = Filename.concat sock_dir "moardd.sock" in
        let d =
          Daemon.start
            {
              Daemon.default_config with
              Daemon.socket;
              store_dir;
              workers = 1;
              queue = 16;
              timeout_s = 20.0;
              (* an empty LRU sends every warm lookup to the (faulty) disk *)
              lru_entries = 0;
              shims = Chaos.shims chaos;
            }
        in
        {
          socket;
          before = ignore;
          after = ignore;
          stop = (fun () -> Daemon.stop d);
          events = (fun () -> []);
          health =
            (fun () ->
              let s = Store.stat (Daemon.store d) in
              [
                ("store_quarantined", s.Store.quarantined);
                ("store_put_failures", s.Store.put_failures);
                ("pool_failed", Pool.failed (Daemon.pool d));
              ]);
          cleanup =
            (fun ~survived ->
              rm_quiet sock_dir;
              if (not keep_store) && survived then rm_quiet store_dir);
        });
  }

let cluster_scopes =
  [ Chaos.Inter_send; Chaos.Inter_recv; Chaos.Shard_crash;
    Chaos.Shard_partition ]

(* Determinism at cluster scale: hedging is disabled (a fixed deadline
   no forward outlives), warming is off, the inter-node fault menus
   carry no timing faults, and crash/partition victims come from
   dedicated streams. *)
let cluster ?(shards = 2) ?(crash_downtime = 3) () =
  {
    shape = [ ("shards", Jsonx.Int shards) ];
    scopes = cluster_scopes;
    reported = cluster_scopes;
    timeout_s = 15.0;
    start =
      (fun chaos ->
        let seed = Chaos.seed chaos in
        (* victim selection streams, disjoint from every scope stream *)
        let crash_rng = Rng.of_path ~seed [ 9001 ] in
        let part_rng = Rng.of_path ~seed [ 9002 ] in
        let pm = Mutex.create () in
        let partitions : (string, int) Hashtbl.t = Hashtbl.create 4 in
        let is_partitioned name =
          Mutex.lock pm;
          let r =
            Option.value ~default:0 (Hashtbl.find_opt partitions name) > 0
          in
          Mutex.unlock pm;
          r
        in
        let root = fresh_dir "moard-cluster-chaos" in
        let cluster =
          Local.start ~root ~shards ~workers:1 ~queue:16 ~timeout_s:20.
            ~tune:(fun c ->
              {
                c with
                Proxy.hedge_after_s = Some 1e6;  (* hedging off: serial legs *)
                warm_auto = false;
                rpc_timeout_s = 10.;
                attempts = 3;
                base_delay_s = 0.02;
                max_delay_s = 0.3;
                seed;
                sock = Chaos.internode_sock chaos;
                partitioned = is_partitioned;
              })
            ()
        in
        let crash_events = ref 0
        and restarts = ref 0
        and partition_events = ref 0 in
        let down_for = Array.make shards 0 in  (* requests until restart; 0 = alive *)
        (* one crash trial and one partition trial per request, before it *)
        let inject_topology () =
          (match Chaos.draw chaos Chaos.Shard_crash with
          | Some Chaos.Crash ->
            let v = Rng.next_int crash_rng shards in
            if Local.alive cluster v then begin
              Local.crash cluster v;
              down_for.(v) <- crash_downtime;
              incr crash_events
            end
          | _ -> ());
          match Chaos.draw chaos Chaos.Shard_partition with
          | Some (Chaos.Partition n) ->
            let v = Rng.next_int part_rng shards in
            let name = Printf.sprintf "shard%d" v in
            Mutex.lock pm;
            Hashtbl.replace partitions name
              (max n (Option.value ~default:0 (Hashtbl.find_opt partitions name)));
            Mutex.unlock pm;
            incr partition_events
          | _ -> ()
        in
        let heal_topology () =
          for v = 0 to shards - 1 do
            if down_for.(v) > 0 then begin
              down_for.(v) <- down_for.(v) - 1;
              if down_for.(v) = 0 then begin
                Local.restart cluster v;
                incr restarts
              end
            end
          done;
          Mutex.lock pm;
          Hashtbl.iter
            (fun name n -> Hashtbl.replace partitions name (max 0 (n - 1)))
            (Hashtbl.copy partitions);
          Mutex.unlock pm
        in
        {
          socket = Local.socket cluster;
          before = inject_topology;
          after = heal_topology;
          stop = (fun () -> Local.stop cluster);
          events =
            (fun () ->
              [
                ("crash_events", !crash_events);
                ("restarts", !restarts);
                ("partition_events", !partition_events);
              ]);
          health = (fun () -> []);
          cleanup = (fun ~survived -> if survived then rm_quiet root);
        });
  }

(* ---------------- the run ---------------- *)

(* Requests that never came back inside this bound count as hung — with
   socket timeouts armed on every connection this should be impossible,
   which is exactly why it is the invariant. *)
let hang_bound_s = 60.0

let run ?(rate = 0.08) ?(benchmark = "MM") ~seed ~rounds ~ci_width target =
  let e =
    match Registry.find benchmark with
    | e -> e
    | exception Not_found ->
      invalid_arg ("Harness.run: unknown benchmark " ^ benchmark)
  in
  (* Fault-free baselines, computed offline before any fault can fire.
     Daemon workers analyze on fresh shards of an identical golden
     context, so under zero faults these are the exact served bytes. *)
  let ctx = Context.make (e.Registry.workload ()) in
  let options = { Model.default_options with Model.batch = true } in
  let advf_baselines =
    List.map
      (fun o -> (o, Query.advf_payload ~options ctx ~object_name:o))
      e.Registry.objects
  in
  let plan =
    Plan.make ~seed:42 ~confidence:0.95 ~ci_width ~batch:64 ~max_samples:(-1)
      ctx ~objects:e.Registry.objects
  in
  let campaign_baseline = Query.campaign_payload (Engine.run ctx plan) in
  let chaos =
    Chaos.make
      ~rates:(fun s -> if List.mem s target.scopes then rate else 0.)
      ~seed ()
  in
  let s = target.start chaos in
  let requests = ref 0
  and identical = ref 0
  and ok_dynamic = ref 0
  and partial = ref 0
  and transport = ref 0
  and diverged = ref 0
  and hung = ref 0 in
  let typed : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let issue ?baseline req =
    s.before ();
    incr requests;
    let t0 = Monotime.now () in
    let outcome =
      try
        Some
          (Client.rpc_retry ~attempts:4 ~base_delay_s:0.02 ~max_delay_s:0.3
             ~timeout_s:target.timeout_s ~seed:(seed + !requests)
             ~socket:s.socket req)
      with Protocol.Protocol_error _ | Unix.Unix_error _ | Sys_error _ -> None
    in
    if Monotime.now () -. t0 > hang_bound_s then incr hung;
    (match outcome with
    | None -> incr transport
    | Some (header, payload) -> (
      match Client.error_of header with
      | Some (code, _) ->
        Hashtbl.replace typed code
          (1 + Option.value ~default:0 (Hashtbl.find_opt typed code))
      | None -> (
        match baseline with
        | None -> incr ok_dynamic
        | Some want ->
          if Jsonx.bool (Jsonx.member "complete" header) = Some false then
            (* an honest partial report off an interrupted journal — typed
               as such in the header, not a silent wrong answer *)
            incr partial
          else if Option.value ~default:"" payload = want then incr identical
          else incr diverged)));
    s.after ();
    (* let the server's previous connection thread consume its EOF read
       before the next request opens a socket: keeps the per-scope fault
       streams aligned with the same operations run after run *)
    Unix.sleepf 0.01
  in
  for _round = 1 to rounds do
    List.iter
      (fun (o, base) ->
        issue ~baseline:base
          (Jsonx.Obj
             [
               ("op", Jsonx.Str "advf");
               ("benchmark", Jsonx.Str benchmark);
               ("object", Jsonx.Str o);
             ]))
      advf_baselines;
    let campaign_req op =
      Jsonx.Obj
        [
          ("op", Jsonx.Str op);
          ("benchmark", Jsonx.Str benchmark);
          ("ci_width", Jsonx.Float ci_width);
        ]
    in
    issue ~baseline:campaign_baseline (campaign_req "campaign");
    issue ~baseline:campaign_baseline (campaign_req "report");
    issue (Jsonx.Obj [ ("op", Jsonx.Str "stat") ])
  done;
  let stopped_cleanly =
    match s.stop () with () -> true | exception _ -> false
  in
  let survived = !diverged = 0 && !hung = 0 && stopped_cleanly in
  let health = s.health () in
  s.cleanup ~survived;
  {
    seed;
    rounds;
    rate;
    shape = target.shape;
    requests = !requests;
    identical = !identical;
    ok_dynamic = !ok_dynamic;
    partial = !partial;
    typed_errors =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) typed []);
    transport_failures = !transport;
    diverged = !diverged;
    hung = !hung;
    events = s.events ();
    fault_stats =
      List.filter_map
        (fun (sc, ops, injected) ->
          if List.mem sc target.reported then
            Some (Chaos.scope_name sc, ops, injected)
          else None)
        (Chaos.stats chaos);
    schedule_hash = Chaos.schedule_hash chaos;
    health;
    survived;
  }
