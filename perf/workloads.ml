(* The four benchmark workloads, their correctness gate, and the
   untraced runs that produce the end-to-end metrics.

   Every workload is a closed loop. The seed only permutes query order
   and draws the zipf streams; object lists and proportions are fixed,
   so two seeds do the same amount of work. *)

module Registry = Moard_kernels.Registry
module Context = Moard_inject.Context
module Model = Moard_core.Model
module Query = Moard_store.Query
module Masking = Moard_analysis.Masking
module Jsonx = Moard_server.Jsonx
module Client = Moard_server.Client
module Daemon = Moard_server.Daemon
module Local = Moard_cluster.Local
module Rng = Moard_chaos.Rng

let now = Util.now

(* ---------------- targets ---------------- *)

(* One aDVF question: a registry object under default options, except
   for an optional fault-injection budget (-1 = unlimited). *)
type target = { bench : string; obj : string; fi_budget : int }

let target ?(fi_budget = -1) bench obj = { bench; obj; fi_budget }
let label t = Printf.sprintf "%s/%s" t.bench t.obj
let options t = { Model.default_options with Model.fi_budget = t.fi_budget }

let request op t =
  Jsonx.Obj
    ([
       ("op", Jsonx.Str op);
       ("benchmark", Jsonx.Str t.bench);
       ("object", Jsonx.Str t.obj);
     ]
    @ if t.fi_budget >= 0 then [ ("fi_budget", Jsonx.Int t.fi_budget) ] else [])

(* ---------------- workloads ---------------- *)

type shape =
  | Offline of target list
      (** one round of cold queries, each answered from a fresh golden run *)
  | Cluster_hits of target list
      (** zipf (weight 1/rank) over warmed objects, through a 2-shard
          cluster and its proxy *)
  | Daemon_mixed of { zipf : target list; per_client : int }
      (** a round is [per_client] requests from each client against one
          daemon over a cold store *)

type t = { name : string; shape : shape; quick : shape }

let lulesh_bc = target "LULESH" "m_elemBC"
let amg_ipiv = target "AMG" "ipiv"
let cg_colidx = target "CG" "colidx"

(* Served hits carry a small FI budget only so that warming them is
   cheap; a hit costs the same whatever the payload took to compute. *)
let served_budget = 30

let all =
  [
    (* Fault injection with checkpoint resume is >= 95% of these queries,
       in both FI shapes: many short resumed runs (CG/colidx,
       LULESH/m_delv_zeta) and few long suffixes (BT/grid_points). The two
       dearer objects cost about the same, so the median query does not
       depend on which of them sorts in the middle. *)
    {
      name = "cold-fi";
      shape =
        Offline
          [ cg_colidx; target "LULESH" "m_delv_zeta"; target "BT" "grid_points" ];
      quick = Offline [ cg_colidx ];
    };
    (* Per-query fixed costs (workload build, golden run and tape, site
       enumeration, kernel, render) are about a quarter of these queries
       and about 1% of cold-fi's. The fixed 14:6 split keeps the median
       in the LULESH mode and p90 in the AMG mode. *)
    {
      name = "cold-small";
      shape =
        Offline
          (List.init 14 (fun _ -> lulesh_bc) @ List.init 6 (fun _ -> amg_ipiv));
      quick = Offline [ lulesh_bc; amg_ipiv ];
    };
    (* Compute does nothing here: every request is a store hit, so only
       the serving layers are measured (protocol, proxy hop, daemon hop,
       pool hand-off, key derivation, store lookup). *)
    (let zipf =
       List.map
         (fun (b, o) -> target ~fi_budget:served_budget b o)
         [
           ("LULESH", "m_elemBC");
           ("LULESH", "m_delv_zeta");
           ("MM", "C");
           ("SP", "rhoi");
           ("SP", "grid_points");
         ]
     in
     { name = "served-hits"; shape = Cluster_hits zipf; quick = Cluster_hits zipf });
    (* Cold computes and store writes run beside hits on the same
       one-worker pool, so single-flight coalescing and head-of-line
       waiting both show; a fix that lets hits pass a running compute
       raises throughput here. The computes are cheap ones, so that hits
       take more than half of each round's time. *)
    {
      name = "served-mixed";
      shape =
        Daemon_mixed { zipf = [ lulesh_bc; amg_ipiv; cg_colidx ]; per_client = 100 };
      quick =
        Daemon_mixed { zipf = [ lulesh_bc; amg_ipiv; cg_colidx ]; per_client = 20 };
    };
  ]

let find name =
  match List.find_opt (fun w -> w.name = name) all with
  | Some w -> w
  | None ->
    failwith
      (Printf.sprintf "unknown workload %S (have: %s)" name
         (String.concat ", " (List.map (fun w -> w.name) all)))

let targets_of = function
  | Offline ts | Cluster_hits ts | Daemon_mixed { zipf = ts; _ } ->
    List.sort_uniq compare ts

(* The serving probes of the traced run ask this question. *)
let probe_target = target ~fi_budget:served_budget "LULESH" "m_elemBC"

let every_target () =
  List.sort_uniq compare
    (probe_target
    :: List.concat_map (fun w -> targets_of w.shape @ targets_of w.quick) all)

(* ---------------- the correctness gate ---------------- *)

(* MD5 of each target's canonical aDVF payload, regenerated only on
   purpose by [moard_perf expect]. Every offline query and every served
   response is checked against it. *)
let expected_file = "perf/expected_payloads.tsv"

let md5 p = Digest.to_hex (Digest.string p)

let load_expected () =
  let tbl = Hashtbl.create 16 in
  In_channel.with_open_text expected_file (fun ic ->
      In_channel.input_all ic |> String.split_on_char '\n'
      |> List.iter (fun line ->
             match String.split_on_char '\t' line with
             | [ bench; obj; budget; _bytes; digest ] when bench <> "benchmark" ->
               Hashtbl.replace tbl
                 (target ~fi_budget:(int_of_string budget) bench obj)
                 digest
             | _ -> ()));
  tbl

let check_covered expected ts =
  List.iter
    (fun t ->
      if not (Hashtbl.mem expected t) then
        failwith
          (Printf.sprintf "%s (fi_budget %d) is missing from %s; run `expect`"
             (label t) t.fi_budget expected_file))
    ts

let matches expected t payload =
  Hashtbl.find_opt expected t = Some (md5 payload)

let compute_payload t =
  let e = Registry.find t.bench in
  let ctx = Context.make (e.Registry.workload ()) in
  Query.advf_payload ~options:(options t) ctx ~object_name:t.obj

let write_expected () =
  let rows =
    List.map
      (fun t ->
        let p = compute_payload t in
        Util.log "  %-24s fi_budget %4d  %4d bytes  %s" (label t) t.fi_budget
          (String.length p) (md5 p);
        Printf.sprintf "%s\t%s\t%d\t%d\t%s" t.bench t.obj t.fi_budget
          (String.length p) (md5 p))
      (every_target ())
  in
  Out_channel.with_open_text expected_file (fun oc ->
      output_string oc "benchmark\tobject\tfi_budget\tbytes\tmd5\n";
      List.iter (fun r -> output_string oc (r ^ "\n")) rows)

(* ---------------- load helpers ---------------- *)

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.next_int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let zipf rng ts =
  let a = Array.of_list ts in
  let w = Array.init (Array.length a) (fun i -> 1. /. float_of_int (i + 1)) in
  let x = Rng.next_float rng *. Array.fold_left ( +. ) 0. w in
  let rec go i acc =
    if i = Array.length a - 1 || acc +. w.(i) > x then a.(i)
    else go (i + 1) (acc +. w.(i))
  in
  go 0 0.

(* Host contention on a shared machine comes in bursts of a second or
   two that slow everything running through them. Every timed metric is
   therefore a median over many samples taken across the run: a burst
   covering less than half of the run moves none of them. *)

(* Run [f] for whole rounds until the next one (estimated by the last)
   would overrun [seconds]; always at least one. [f] returns the
   interval it measured. *)
let rounds ~seconds f =
  let t0 = now () in
  let rec go i last acc =
    if i > 0 && now () -. t0 +. last > seconds then List.rev acc
    else
      let interval, d = Util.time (fun () -> f i) in
      go (i + 1) d (interval :: acc)
  in
  go 0 0. []

(* Outcomes of one run, shared by the client threads: each request's
   completion time and latency. *)
type tally = {
  m : Mutex.t;
  mutable samples : (float * float) list;
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;  (** payloads that differ from the reference *)
}

let tally () =
  { m = Mutex.create (); samples = []; attempted = 0; failed = 0; wrong = 0 }

let record tl ~ok ~wrong d =
  let t = now () in
  Mutex.lock tl.m;
  tl.samples <- (t, d) :: tl.samples;
  tl.attempted <- tl.attempted + 1;
  if not ok then tl.failed <- tl.failed + 1;
  if wrong then tl.wrong <- tl.wrong + 1;
  Mutex.unlock tl.m

(* [rounds] are (seconds, latencies) pairs; each timed metric is a
   per-round figure, reported as the median over the rounds. *)
let end_to_end ~setup ~rss rounds =
  let per_round f = Util.median (List.map (fun (secs, lat) -> f secs lat) rounds) in
  let ms q _ lat = 1000. *. Util.quantile q lat in
  [
    Util.metric "setup_s" "s" (Util.median setup);
    Util.metric "throughput_qps" "1/s"
      (per_round (fun secs lat -> float_of_int (List.length lat) /. secs));
    Util.metric "query_p50_ms" "ms" (per_round (ms 0.5));
    Util.metric "query_p90_ms" "ms" (per_round (ms 0.9));
    Util.metric "peak_rss_mb" "MB" rss;
  ]

(* The latencies of the requests that completed in each interval. *)
let by_interval tl intervals =
  List.filter_map
    (fun (lo, hi) ->
      match
        List.filter_map
          (fun (t, d) -> if t >= lo && t < hi then Some d else None)
          tl.samples
      with
      | [] -> None
      | lat -> Some (hi -. lo, lat))
    intervals

(* ---------------- offline cold queries ---------------- *)

(* One cold query as a caller without a daemon makes it: build the
   workload, run it golden, analyze. Also checks the two work invariants
   of the cold path: exactly one golden execution, no scalar-scan
   fallback in the mask kernel. *)
let cold_query expected t =
  let g0 = Context.golden_executions () and s0 = Masking.scan_executions () in
  let payload = compute_payload t in
  matches expected t payload
  && Context.golden_executions () - g0 = 1
  && Masking.scan_executions () = s0

let offline ~expected ~seed ~seconds ts =
  let distinct = List.sort_uniq compare ts in
  let tl = tally () and lat = Hashtbl.create 8 and setup = ref [] in
  let passes =
    rounds ~seconds (fun r ->
        (* set-up: build each workload and run it golden; timed before
           every pass, so a burst cannot cover all of its samples *)
        let (), d =
          Util.time (fun () ->
              List.iter
                (fun t ->
                  ignore (Context.make ((Registry.find t.bench).Registry.workload ())))
                distinct)
        in
        setup := d :: !setup;
        List.iter
          (fun t ->
            let ok, d = Util.time (fun () -> cold_query expected t) in
            record tl ~ok ~wrong:(not ok) d;
            Hashtbl.add lat t d)
          (shuffle (Rng.of_path ~seed [ r ]) ts))
  in
  Util.log "  %d passes over %d cold queries" (List.length passes)
    (List.length ts);
  (* One round in which each query costs its target's median over all
     passes: a burst inflates single queries, which the per-target
     median discards while it hits fewer than half of them. *)
  let typical = List.map (fun t -> Util.median (Hashtbl.find_all lat t)) ts in
  ( tl,
    end_to_end ~setup:!setup ~rss:(Util.peak_rss_mb ())
      [ (List.fold_left ( +. ) 0. typical, typical) ] )

(* ---------------- served requests ---------------- *)

let served_status h = Option.value ~default:"?" (Jsonx.str (Jsonx.member "served" h))

(* One closed-loop client on its own connection: the next request goes
   out when the previous answer is in. A transport error counts as a
   failure and reconnects. *)
let client ~socket ~expected ~tally ~rng ~continue ts =
  let connect () = Client.connect ~timeout_s:120. ~socket () in
  let c = ref (connect ()) in
  let statuses = Hashtbl.create 4 in
  while continue () do
    let t = zipf rng ts in
    let r, d =
      Util.time (fun () ->
          try Ok (Client.request !c (request "advf" t)) with e -> Error e)
    in
    match r with
    | Ok (h, p) ->
      let status = served_status h in
      Hashtbl.replace statuses status
        (1 + Option.value ~default:0 (Hashtbl.find_opt statuses status));
      let good = Client.error_of h = None in
      let right =
        match p with Some p -> matches expected t p | None -> false
      in
      record tally ~ok:(good && right) ~wrong:(good && not right) d
    | Error _ ->
      record tally ~ok:false ~wrong:false d;
      (try Client.close !c with _ -> ());
      c := connect ()
  done;
  Client.close !c;
  statuses

let clients = 2

(* Run [clients] client threads; each gets its own seeded stream. *)
let run_clients ~socket ~expected ~tally ~streams ~continue ts =
  let results = Array.make clients (Hashtbl.create 1) in
  let threads =
    List.init clients (fun i ->
        Thread.create
          (fun () ->
            results.(i) <-
              client ~socket ~expected ~tally ~rng:(streams i)
                ~continue:(continue i) ts)
          ())
  in
  List.iter Thread.join threads;
  let merged = Hashtbl.create 4 in
  Array.iter
    (Hashtbl.iter (fun k v ->
         Hashtbl.replace merged k
           (v + Option.value ~default:0 (Hashtbl.find_opt merged k))))
    results;
  merged

let log_statuses statuses =
  Util.log "  served: %s"
    (String.concat ", "
       (List.sort compare
          (Hashtbl.fold (fun k v acc -> Printf.sprintf "%s %d" k v :: acc)
             statuses [])))

let rpc socket req = fst (Client.rpc ~timeout_s:120. ~socket req)
let op name = Jsonx.Obj [ ("op", Jsonx.Str name) ]

let jget path h =
  List.fold_left (fun v k -> Option.bind v (Jsonx.member k)) (Some h) path

let jint path h = Option.value ~default:(-1) (Jsonx.int (jget path h))

let shards h = Option.value ~default:[] (Jsonx.list (jget [ "shards" ] h))

(* The serving counters of daemon [stat] answers, summed. *)
let log_counters what stats =
  Util.log "  %s: %s" what
    (String.concat ", "
       (List.map
          (fun path ->
            Printf.sprintf "%s %d" (String.concat "." path)
              (List.fold_left (fun a h -> a + jint path h) 0 stats))
          [
            [ "coalesced" ]; [ "pool"; "executed" ]; [ "pool"; "rejected" ];
            [ "store"; "mem_hits" ]; [ "store"; "misses" ]; [ "store"; "puts" ];
          ]))

(* Block until both warming layers of a cluster have drained: the proxy
   queue pushed out, every shard's queue computed, shard pools idle.
   Returns the proxy's final stat. *)
let drain psock =
  let stat () = rpc psock (op "stat") in
  let drained h =
    jint [ "proxy"; "warming"; "queued" ] h = 0
    && List.for_all
         (fun s ->
           Jsonx.bool (jget [ "alive" ] s) = Some true
           && jint [ "stat"; "warming"; "queued" ] s = 0
           && Jsonx.bool (jget [ "stat"; "warming"; "busy" ] s) = Some false
           && jint [ "stat"; "pool"; "queued" ] s = 0
           && jint [ "stat"; "pool"; "running" ] s = 0)
         (shards h)
  in
  let deadline = now () +. 120. in
  let rec wait () =
    let h = stat () in
    if drained h then h
    else if now () > deadline then failwith "warming did not drain in 120 s"
    else (
      Thread.delay 0.01;
      wait ())
  in
  wait ()

(* Warm each target through the proxy, drain, and demand that every
   object was computed: a failed warm drains too. *)
let warm_cluster psock ts =
  List.iter
    (fun t ->
      match Client.error_of (rpc psock (request "warm" t)) with
      | Some (code, msg) -> failwith (Printf.sprintf "warm %s: %s: %s" (label t) code msg)
      | None -> ())
    ts;
  let h = drain psock in
  let sum path = List.fold_left (fun a s -> a + jint path s) 0 (shards h) in
  let n = List.length ts in
  if
    jint [ "proxy"; "warming"; "warmed" ] h <> n
    || sum [ "stat"; "warming"; "warmed" ] <> n
    || jint [ "proxy"; "warming"; "errors" ] h <> 0
    || sum [ "stat"; "warming"; "errors" ] <> 0
  then failwith ("warming incomplete: " ^ Jsonx.to_string h)

(* A one-worker daemon on an empty store under [root], and its socket. *)
let start_daemon root =
  let socket = Filename.concat root "moardd.sock" in
  ( Daemon.start
      {
        Daemon.default_config with
        Daemon.socket;
        store_dir = Filename.concat root "store";
        workers = 1;
        timeout_s = 600.;
      },
    socket )

let start_cluster name =
  Local.start ~root:(Util.scratch name) ~shards:2 ~workers:1 ()

let stop_cluster name c =
  Local.stop c;
  Util.rm_rf (Filename.concat Util.run_dir name)

(* Set-up: start the cluster, warm every object, wait for the drain.
   The first set-up serves the measured load; the other set-ups are
   timed after the measurement and the peak-RSS reading, so their
   leftovers never count as the served load's memory. *)
let served_hits ~expected ~seed ~seconds ~setups ts =
  let up i =
    let name = Printf.sprintf "hits-%d" i in
    let c, d =
      Util.time (fun () ->
          let c = start_cluster name in
          warm_cluster (Local.socket c) ts;
          c)
    in
    (name, c, d)
  in
  let name, c, first_setup = up 0 in
  let tl = tally () in
  let t0 = now () in
  let windows = max 1 (int_of_float seconds) in
  let statuses =
    run_clients ~socket:(Local.socket c) ~expected ~tally:tl
      ~streams:(fun i -> Rng.of_path ~seed [ i ])
      ~continue:(fun _ () -> now () < t0 +. float_of_int windows)
      ts
  in
  let rss = Util.peak_rss_mb () in
  log_statuses statuses;
  let h = rpc (Local.socket c) (op "stat") in
  Util.log "  proxy: forwarded %d coalesced %d hedged %d"
    (jint [ "proxy"; "forwarded" ] h)
    (jint [ "proxy"; "coalesced" ] h)
    (jint [ "proxy"; "hedged" ] h);
  log_counters "shards" (List.filter_map (fun s -> jget [ "stat" ] s) (shards h));
  stop_cluster name c;
  let setup =
    first_setup
    :: List.init (setups - 1) (fun i ->
           let name, c, d = up (i + 1) in
           stop_cluster name c;
           d)
  in
  let intervals =
    List.init windows (fun k -> (t0 +. float_of_int k, t0 +. float_of_int (k + 1)))
  in
  (tl, end_to_end ~setup ~rss (by_interval tl intervals))

let served_mixed ~expected ~seed ~seconds ~zipf ~per_client =
  let tl = tally () in
  let setup = ref [] and stats = ref [] in
  let intervals =
    rounds ~seconds (fun r ->
        let root = Util.scratch (Printf.sprintf "mixed-%d" r) in
        (* set-up: a daemon on an empty store, up to its first answer
           (the probe question, which the mix never asks) *)
        let (d, socket), sd =
          Util.time (fun () ->
              let d, socket = start_daemon root in
              (match
                 Client.rpc ~timeout_s:120. ~socket (request "advf" probe_target)
               with
              | h, Some p
                when Client.error_of h = None && matches expected probe_target p ->
                ()
              | h, _ -> failwith ("first answer wrong: " ^ Jsonx.to_string h));
              (d, socket))
        in
        setup := sd :: !setup;
        let sent = Array.make clients 0 in
        let lo = now () in
        let statuses =
          run_clients ~socket ~expected ~tally:tl
            ~streams:(fun i -> Rng.of_path ~seed [ r; i ])
            ~continue:(fun i () ->
              sent.(i) <- sent.(i) + 1;
              sent.(i) <= per_client)
            zipf
        in
        let hi = now () in
        if r = 0 then log_statuses statuses;
        stats := rpc socket (op "stat") :: !stats;
        Daemon.stop d;
        Util.rm_rf root;
        (lo, hi))
  in
  Util.log "  %d rounds of %d requests" (List.length intervals) (clients * per_client);
  log_counters "daemons" !stats;
  (tl, end_to_end ~setup:!setup ~rss:(Util.peak_rss_mb ()) (by_interval tl intervals))

(* ---------------- one untraced run ---------------- *)

let run ~seed ~seconds ~quick w =
  let expected = load_expected () in
  let shape = if quick then w.quick else w.shape in
  check_covered expected (targets_of shape);
  let tl, metrics =
    match shape with
    | Offline ts -> offline ~expected ~seed ~seconds ts
    | Cluster_hits ts ->
      served_hits ~expected ~seed ~seconds ~setups:(if quick then 1 else 3) ts
    | Daemon_mixed { zipf; per_client } ->
      served_mixed ~expected ~seed ~seconds ~zipf ~per_client
  in
  {
    Util.correct = tl.wrong = 0;
    attempted = tl.attempted;
    failed = tl.failed;
    metrics;
  }
