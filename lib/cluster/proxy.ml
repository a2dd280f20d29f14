module Sock = Moard_chaos.Sock
module Rng = Moard_chaos.Rng
module Monotime = Moard_chaos.Monotime
module Registry = Moard_kernels.Registry
module Protocol = Moard_server.Protocol
module Client = Moard_server.Client
module Jsonx = Moard_server.Jsonx
module Version = Moard_server.Version
module Serving = Moard_server.Serving

type shard = { name : string; socket : string }

type config = {
  socket : string;
  shards : shard list;
  replication : int;
  vnodes : int;
  hedge_after_s : float option;
  hedge_floor_s : float;
  rpc_timeout_s : float;
  attempts : int;
  base_delay_s : float;
  max_delay_s : float;
  warm_auto : bool;
  seed : int;
  sock : Sock.t;
  partitioned : string -> bool;
}

let default_config ~shards =
  {
    socket = "moard-cluster.sock";
    shards;
    replication = 2;
    vnodes = 64;
    hedge_after_s = None;
    hedge_floor_s = 0.05;
    rpc_timeout_s = 600.;
    attempts = 4;
    base_delay_s = 0.05;
    max_delay_s = 1.0;
    warm_auto = true;
    seed = 0;
    sock = Sock.real;
    partitioned = (fun _ -> false);
  }

type state = {
  cfg : config;
  ring : Ring.t;
  m : Mutex.t;  (* guards [rng], the latency ring and the counters *)
  rng : Rng.t;  (* retry backoff jitter *)
  lat : float array;  (* recent forward latencies, ring buffer *)
  mutable lat_n : int;
  inflight : int Atomic.t;  (* client forwards in progress *)
  mutable forwarded : int;
  mutable hedged : int;
  mutable hedge_wins : int;
  mutable failovers : int;
  mutable retries : int;
  mutable integrity_failures : int;
}

type t = state Serving.t

let bump p f =
  Mutex.lock p.m;
  f p;
  Mutex.unlock p.m

(* ---------------- routing ---------------- *)

(* Where a request lives.  [warm] routes like the [advf] it precomputes
   and [report] like the [campaign] whose journal it reads, so related
   work always lands on the same shard.  Placement keys deliberately
   exclude tuning fields for advf-class ops (same object, different
   budget → same shard, sharing the golden-run context); campaign keys
   keep every plan parameter since the journal is plan-specific. *)
let routing_key req =
  let s name = Option.value ~default:"" (Jsonx.str (Jsonx.member name req)) in
  match s "op" with
  | "advf" | "warm" -> Printf.sprintf "advf|%s|%s" (s "benchmark") (s "object")
  | "predict" -> Printf.sprintf "predict|%s|%s" (s "benchmark") (s "object")
  | "advise" -> Printf.sprintf "advise|%s" (s "benchmark")
  | "campaign" | "report" ->
    "campaign|" ^ Jsonx.signature ~drop:[ "proto"; "req_fnv"; "op" ] req
  | _ -> Serving.signature req

let shard_named p name = List.find (fun s -> s.name = name) p.cfg.shards

let owners_of p req =
  List.map (shard_named p)
    (Ring.owners p.ring ~n:p.cfg.replication (routing_key req))

(* ---------------- one forward, with retry ---------------- *)

(* The request as it goes on the inter-node wire: canonical transport
   fields up front and a checksum over the canonical signature, so a
   bit flipped in the header frame — even one that still parses — is
   refused by the shard instead of computing the wrong thing. *)
let seal req =
  match req with
  | Jsonx.Obj fields ->
    let fnv = Protocol.fnv_hex (Serving.signature req) in
    let core =
      List.filter (fun (k, _) -> k <> "proto" && k <> "req_fnv") fields
    in
    Jsonx.Obj
      (("proto", Jsonx.Int Protocol.version)
      :: ("req_fnv", Jsonx.Str fnv)
      :: core)
  | v -> v

(* The response direction is covered by payload_fnv; what remains is an
   ok-header whose identifying echoes were corrupted in flight. *)
let verify_echo req header =
  List.iter
    (fun k ->
      match (Jsonx.str (Jsonx.member k req), Jsonx.str (Jsonx.member k header)) with
      | Some a, Some b when a <> b ->
        raise
          (Protocol.Protocol_error
             (Printf.sprintf "shard echoed %s=%S for a request with %S" k b a))
      | _ -> ())
    [ "op"; "benchmark"; "object" ]

let retryable_connect = function
  | Unix.Unix_error
      ( ( Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET
        | Unix.EHOSTUNREACH ),
        _,
        _ ) ->
    true
  | _ -> false

let retryable_code = function
  | "overloaded" | "draining" | "integrity" -> true
  | _ -> false

let connect_shard p (s : shard) =
  if p.cfg.partitioned s.name then
    raise
      (Unix.Unix_error (Unix.EHOSTUNREACH, "connect", s.name ^ " (partitioned)"));
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_UNIX s.socket);
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO p.cfg.rpc_timeout_s;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO p.cfg.rpc_timeout_s
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

(* A hedged race between forwarding legs.  Losers are cancelled by
   shutting their shard connections down — the shard sees client EOF
   and trips the compute's cancel token (unless someone coalesced onto
   it there).  The fd registry is guarded by [rm] so a winner never
   shuts down a descriptor number the loser has already returned to
   the OS. *)
type race = {
  rm : Mutex.t;
  mutable winner : (int * string * (Jsonx.t * string option)) option;
  mutable finished : int;
  mutable errs : exn list;
  mutable race_cancelled : bool;
  mutable fds : (int * Unix.file_descr) list;
}

exception Cancelled_leg

let race_is_cancelled race =
  Mutex.lock race.rm;
  let c = race.race_cancelled in
  Mutex.unlock race.rm;
  c

let with_shard_conn p race leg s f =
  let fd = connect_shard p s in
  let registered =
    match race with
    | None -> true
    | Some r ->
      Mutex.lock r.rm;
      let ok = not r.race_cancelled in
      if ok then r.fds <- (leg, fd) :: r.fds;
      Mutex.unlock r.rm;
      ok
  in
  if not registered then begin
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise Cancelled_leg
  end;
  Fun.protect
    ~finally:(fun () ->
      (match race with
      | None -> ()
      | Some r ->
        Mutex.lock r.rm;
        r.fds <- List.filter (fun (l, d) -> not (l = leg && d = fd)) r.fds;
        Mutex.unlock r.rm);
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd)

let backoff_delay p i =
  Mutex.lock p.m;
  let d =
    Client.backoff ~base_delay_s:p.cfg.base_delay_s
      ~max_delay_s:p.cfg.max_delay_s p.rng i
  in
  Mutex.unlock p.m;
  d

exception Retry_leg of exn

(* Forward [req] to one shard with the client's capped jittered backoff.
   Mirrors {!Client.rpc_retry} semantics: connect-level failures always
   retry (no request escaped); mid-flight transport failures retry only
   when [may_retry]; typed overloaded/draining/integrity responses
   retry with backoff. *)
let forward_retry p ?race ?(leg = 0) ?attempts ~may_retry (s : shard) req =
  let attempts = Option.value ~default:p.cfg.attempts attempts in
  let sealed = seal req in
  let rec go i =
    (match race with
    | Some r when race_is_cancelled r -> raise Cancelled_leg
    | _ -> ());
    let attempt () =
      match
        with_shard_conn p race leg s (fun fd ->
            Protocol.send ~sock:p.cfg.sock fd sealed;
            match Protocol.recv ~sock:p.cfg.sock fd with
            | None ->
              raise
                (Protocol.Protocol_error "shard closed the connection mid-request")
            | Some (h, p) ->
              verify_echo req h;
              (h, p))
      with
      | resp -> resp
      | exception Cancelled_leg -> raise Cancelled_leg
      | exception e when retryable_connect e -> raise (Retry_leg e)
      | exception ((Protocol.Protocol_error _ | Unix.Unix_error _) as e)
        when may_retry ->
        raise (Retry_leg e)
    in
    bump p (fun p -> p.forwarded <- p.forwarded + 1);
    match attempt () with
    | (h, _) as resp -> (
      match Client.error_of h with
      | Some (code, _) when retryable_code code && i + 1 < attempts ->
        if code = "integrity" then
          bump p (fun p -> p.integrity_failures <- p.integrity_failures + 1);
        bump p (fun p -> p.retries <- p.retries + 1);
        Unix.sleepf (backoff_delay p i);
        go (i + 1)
      | _ -> resp)
    | exception Retry_leg e ->
      if i + 1 < attempts then begin
        bump p (fun p -> p.retries <- p.retries + 1);
        Unix.sleepf (backoff_delay p i);
        go (i + 1)
      end
      else raise e
  in
  go 0

(* ---------------- hedged / failover forwarding ---------------- *)

let note_latency p d =
  Mutex.lock p.m;
  p.lat.(p.lat_n mod Array.length p.lat) <- d;
  p.lat_n <- p.lat_n + 1;
  Mutex.unlock p.m

(* When to launch the second leg: a fixed configured delay, or an
   adaptive one — twice the p95 of recent forward latencies, floored.
   With fewer than 8 observations there is no signal; wait the full
   timeout (i.e. effectively do not hedge). *)
let hedge_deadline p =
  match p.cfg.hedge_after_s with
  | Some d -> d
  | None ->
    Mutex.lock p.m;
    let n = min p.lat_n (Array.length p.lat) in
    let d =
      if n < 8 then p.cfg.rpc_timeout_s
      else begin
        let xs = Array.sub p.lat 0 n in
        Array.sort compare xs;
        let p95 = xs.(int_of_float (0.95 *. float_of_int (n - 1))) in
        Float.max p.cfg.hedge_floor_s (2. *. p95)
      end
    in
    Mutex.unlock p.m;
    d

(* Forward to the owner chain: primary first, a hedge leg on the first
   distinct replica once the hedge deadline passes (idempotent ops
   only), immediate failover down the chain when every launched leg has
   failed.  First response wins; losers are cancelled through their
   sockets.  All replicas down → a typed [unavailable] error, which
   keeps the cluster invariant: typed error or byte-identical payload,
   never silence, never wrong bytes. *)
let race_forward p shards req ~may_retry =
  match shards with
  | [] ->
    ( (Protocol.error ~code:"unavailable" ~message:"no shard owns this key", None),
      None )
  | shards ->
    let n_shards = List.length shards in
    let race =
      {
        rm = Mutex.create ();
        winner = None;
        finished = 0;
        errs = [];
        race_cancelled = false;
        fds = [];
      }
    in
    let spawn leg (s : shard) =
      ignore
        (Thread.create
           (fun () ->
             let outcome =
               match forward_retry p ~race ~leg ~may_retry s req with
               | resp -> Ok resp
               | exception e -> Error e
             in
             Mutex.lock race.rm;
             (match outcome with
             | Ok resp when race.winner = None ->
               race.winner <- Some (leg, s.name, resp)
             | Ok _ -> ()
             | Error Cancelled_leg -> ()
             | Error e -> race.errs <- e :: race.errs);
             race.finished <- race.finished + 1;
             Mutex.unlock race.rm)
           ())
    in
    let started = ref 1 in
    spawn 0 (List.hd shards);
    let hedge_after = hedge_deadline p in
    let t0 = Monotime.now () in
    let rec wait () =
      Mutex.lock race.rm;
      let w = race.winner and fin = race.finished in
      Mutex.unlock race.rm;
      match w with
      | Some (leg, name, resp) ->
        Mutex.lock race.rm;
        race.race_cancelled <- true;
        let losers = List.filter (fun (l, _) -> l <> leg) race.fds in
        List.iter
          (fun (_, fd) ->
            try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
          losers;
        Mutex.unlock race.rm;
        if leg > 0 then bump p (fun p -> p.hedge_wins <- p.hedge_wins + 1);
        (resp, Some name)
      | None ->
        if fin >= !started then begin
          (* every launched leg failed *)
          let last_err =
            Mutex.lock race.rm;
            let e = match race.errs with e :: _ -> Some e | [] -> None in
            Mutex.unlock race.rm;
            e
          in
          let connect_only =
            match last_err with Some e -> retryable_connect e | None -> true
          in
          if !started < n_shards && (may_retry || connect_only) then begin
            bump p (fun p -> p.failovers <- p.failovers + 1);
            incr started;
            spawn (!started - 1) (List.nth shards (!started - 1));
            wait ()
          end
          else
            ( ( Protocol.error ~code:"unavailable"
                  ~message:
                    (Printf.sprintf "all %d replica(s) failed: %s" !started
                       (match last_err with
                       | Some e -> Printexc.to_string e
                       | None -> "no diagnostic")),
                None ),
              None )
        end
        else if
          may_retry
          && !started < n_shards
          && Monotime.now () -. t0 >= hedge_after *. float_of_int !started
        then begin
          bump p (fun p -> p.hedged <- p.hedged + 1);
          incr started;
          spawn (!started - 1) (List.nth shards (!started - 1));
          wait ()
        end
        else begin
          Thread.delay 0.003;
          wait ()
        end
    in
    wait ()

(* ---------------- warming ---------------- *)

let warm_req benchmark obj options =
  Jsonx.Obj
    (("op", Jsonx.Str "warm")
    :: ("benchmark", Jsonx.Str benchmark)
    :: ("object", Jsonx.Str obj)
    :: options)

let warm_option_fields req =
  List.filter_map
    (fun k -> Option.map (fun v -> (k, v)) (Jsonx.member k req))
    [ "k"; "fi_budget"; "error_model" ]

(* A freshly computed object is a hotness signal: queue its registry
   siblings (same benchmark, same analysis options) for precompute. *)
let auto_warm t req =
  match Jsonx.str (Jsonx.member "benchmark" req) with
  | None -> ()
  | Some b -> (
    match Registry.find b with
    | exception Not_found -> ()
    | e ->
      let keep = warm_option_fields req in
      let just_computed = Jsonx.str (Jsonx.member "object" req) in
      List.iter
        (fun obj ->
          if Some obj <> just_computed then
            ignore (Serving.enqueue_warm t (warm_req b obj keep)))
        e.Registry.objects)

(* Push a queued warm to its owning shard, which queues the actual
   compute behind its own idle-only warm thread. *)
let push_warm t wreq =
  let p = Serving.state t in
  match owners_of p wreq with
  | [] -> false
  | primary :: _ ->
    Client.error_of (fst (forward_retry p ~may_retry:true primary wreq)) = None

(* ---------------- stat ---------------- *)

let proxy_counters t =
  let p = Serving.state t in
  let c = Serving.counters t and queued = Serving.warm_queued t in
  Mutex.lock p.m;
  let o =
    Jsonx.Obj
      [
        ("served", Jsonx.Int c.Serving.served);
        ("errors", Jsonx.Int c.Serving.errors);
        ("forwarded", Jsonx.Int p.forwarded);
        ("coalesced", Jsonx.Int c.Serving.coalesced);
        ("hedged", Jsonx.Int p.hedged);
        ("hedge_wins", Jsonx.Int p.hedge_wins);
        ("failovers", Jsonx.Int p.failovers);
        ("retries", Jsonx.Int p.retries);
        ( "integrity_failures",
          Jsonx.Int (p.integrity_failures + c.Serving.refused) );
        ( "warming",
          Jsonx.Obj
            [
              ("queued", Jsonx.Int queued);
              ("warmed", Jsonx.Int c.Serving.warmed);
              ("errors", Jsonx.Int c.Serving.warm_errors);
            ] );
      ]
  in
  Mutex.unlock p.m;
  o

let cluster_stat t =
  let p = Serving.state t in
  let shard_stats =
    List.map
      (fun s ->
        match
          forward_retry p ~attempts:1 ~may_retry:true s
            (Jsonx.Obj [ ("op", Jsonx.Str "stat") ])
        with
        | h, _ -> (s, Some h)
        | exception _ -> (s, None))
      p.cfg.shards
  in
  Protocol.ok
    [
      ("op", Jsonx.Str "stat");
      ("role", Jsonx.Str "proxy");
      ("server", Jsonx.Str Version.version);
      ("proto", Jsonx.Int Protocol.version);
      ("uptime_s", Jsonx.Float (Serving.uptime_s t));
      ( "ring",
        Jsonx.Obj
          [
            ("shards", Jsonx.Int (List.length p.cfg.shards));
            ("vnodes", Jsonx.Int p.cfg.vnodes);
            ("replication", Jsonx.Int p.cfg.replication);
          ] );
      ("proxy", proxy_counters t);
      ( "shards",
        Jsonx.Arr
          (List.map
             (fun ((s : shard), h) ->
               Jsonx.Obj
                 ([
                    ("name", Jsonx.Str s.name);
                    ("socket", Jsonx.Str s.socket);
                    ("alive", Jsonx.Bool (h <> None));
                  ]
                 @ match h with Some h -> [ ("stat", h) ] | None -> []))
             shard_stats) );
    ]

(* ---------------- compute ops ---------------- *)

let with_shard_field name = function
  | Jsonx.Obj fields when not (List.mem_assoc "shard" fields) ->
    Jsonx.Obj (fields @ [ ("shard", Jsonx.Str name) ])
  | h -> h

let serve_compute t ~fd:_ ~deadline_s:_ ~lone:_ op req =
  let p = Serving.state t in
  let may_retry = op <> "campaign" in
  Atomic.incr p.inflight;
  Fun.protect
    ~finally:(fun () -> Atomic.decr p.inflight)
    (fun () ->
      let t0 = Monotime.now () in
      let (header, payload), winner = race_forward p (owners_of p req) req ~may_retry in
      (match Client.error_of header with
      | None ->
        note_latency p (Monotime.now () -. t0);
        if
          p.cfg.warm_auto && op = "advf"
          && Jsonx.str (Jsonx.member "served" header) = Some "computed"
        then auto_warm t req
      | Some _ -> ());
      let header =
        match winner with Some n -> with_shard_field n header | None -> header
      in
      (header, payload))

let hooks =
  {
    Serving.version = [ ("role", Jsonx.Str "proxy") ];
    stat = cluster_stat;
    compute = serve_compute;
    warm_item =
      (fun e object_name req ->
        warm_req e.Registry.benchmark object_name (warm_option_fields req));
    warm = push_warm;
    (* strictly while no client forward is in flight here *)
    idle = (fun p -> Atomic.get p.inflight = 0);
  }

let start cfg =
  if cfg.shards = [] then invalid_arg "Proxy.start: no shards";
  if cfg.replication < 1 then invalid_arg "Proxy.start: replication";
  let ring =
    Ring.make ~vnodes:cfg.vnodes (List.map (fun s -> s.name) cfg.shards)
  in
  Serving.start ~socket:cfg.socket ~sock:Sock.real
    (fun () ->
      {
        cfg;
        ring;
        m = Mutex.create ();
        rng = Rng.of_path ~seed:cfg.seed [ 7001 ];
        lat = Array.make 128 0.;
        lat_n = 0;
        inflight = Atomic.make 0;
        forwarded = 0;
        hedged = 0;
        hedge_wins = 0;
        failovers = 0;
        retries = 0;
        integrity_failures = 0;
      })
    hooks

let stop t = Serving.stop t
let run cfg = Serving.run (start cfg) ~stop
