module Registry = Moard_kernels.Registry
module Sock = Moard_chaos.Sock
module Monotime = Moard_chaos.Monotime

type reply = Jsonx.t * string option

(* Two requests are the same work iff their canonical signatures match:
   top-level fields sorted, transport decoration (proto, checksum)
   stripped.  The same string doubles as the integrity-checksum input
   on inter-node hops — field reordering in flight is not corruption. *)
let signature req = Jsonx.signature ~drop:[ "proto"; "req_fnv" ] req

(* A proxy stamps "req_fnv" on forwarded requests; a flipped bit in the
   header frame that still parses as JSON would otherwise compute the
   wrong object and break byte-identity silently.  Verified before any
   work, so the typed refusal is always safe to resend. *)
let integrity_error req =
  match Jsonx.str (Jsonx.member "req_fnv" req) with
  | None -> None
  | Some announced ->
    let actual = Protocol.fnv_hex (signature req) in
    if String.equal announced actual then None
    else
      Some
        (Protocol.error ~code:"integrity"
           ~message:
             (Printf.sprintf
                "request checksum mismatch (%s announced, %s received): \
                 refused before dispatch"
                announced actual))

let is_ok = function
  | Jsonx.Obj fields -> List.assoc_opt "status" fields = Some (Jsonx.Str "ok")
  | _ -> false

(* A coalesced follower serves the leader's bytes but says so: the
   response is a hit from the follower's point of view whatever the
   leader had to do to produce it. *)
let coalesced_header = function
  | Jsonx.Obj fields as h when is_ok h ->
    Jsonx.Obj
      (List.map
         (fun (k, v) ->
           match k with
           | "served" -> (k, Jsonx.Str "coalesced")
           | "cached" -> (k, Jsonx.Bool true)
           | _ -> (k, v))
         fields)
  | h -> h

(* A single-flight entry: the leader computes, followers block on the
   condition until the leader publishes the shared response. *)
type flight = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable waiters : int;
  mutable fresult : reply option;
}

type counters = {
  mutable served : int;
  mutable errors : int;
  mutable coalesced : int;
  mutable refused : int;
  mutable warm_busy : bool;
  mutable warmed : int;
  mutable warm_errors : int;
}

type 's t = {
  state : 's;
  hooks : 's hooks;
  socket : string;
  sock : Sock.t;
  listen : Unix.file_descr;
  stop_flag : bool Atomic.t;
  m : Mutex.t;  (* guards [c], the tables, the queue and [conns] *)
  conns_done : Condition.t;
  flights : (string, flight) Hashtbl.t;
  warm_q : Jsonx.t Queue.t;
  warm_seen : (string, unit) Hashtbl.t;
  c : counters;
  mutable conns : int;
  mutable accept_thread : Thread.t option;
  mutable warm_thread : Thread.t option;
  mutable stopped : bool;
  started_at : float;
}

and 's hooks = {
  version : (string * Jsonx.t) list;
  stat : 's t -> Jsonx.t;
  compute :
    's t ->
    fd:Unix.file_descr option ->
    deadline_s:float option ->
    lone:(unit -> bool) ->
    string ->
    Jsonx.t ->
    reply;
  warm_item : Registry.entry -> string -> Jsonx.t -> Jsonx.t;
  warm : 's t -> Jsonx.t -> bool;
  idle : 's -> bool;
}

let state t = t.state
let stopping t = Atomic.get t.stop_flag
let uptime_s t = Monotime.now () -. t.started_at

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let counters t = locked t (fun () -> { t.c with served = t.c.served })
let warm_queued t = locked t (fun () -> Queue.length t.warm_q)

(* ---------------- warming ---------------- *)

let enqueue_warm t item =
  let sgn = signature item in
  locked t (fun () ->
      let fresh = not (Hashtbl.mem t.warm_seen sgn) in
      if fresh then begin
        Hashtbl.replace t.warm_seen sgn ();
        Queue.push item t.warm_q
      end;
      fresh)

(* "warm" acknowledges immediately and queues the server's precompute
   item; the warm thread drains the queue only while the server is
   otherwise idle, so warming never competes with a live request. *)
let warm t req =
  match
    let e = Ops.entry_of req in
    (e, Ops.field_str req "object")
  with
  | exception Ops.Bad_request msg ->
    (Protocol.error ~code:"bad-request" ~message:msg, None)
  | e, object_name ->
    let fresh = enqueue_warm t (t.hooks.warm_item e object_name req) in
    ( Protocol.ok
        [
          ("op", Jsonx.Str "warm");
          ("benchmark", Jsonx.Str e.Registry.benchmark);
          ("object", Jsonx.Str object_name);
          ("queued", Jsonx.Bool fresh);
        ],
      None )

let warm_loop t () =
  while not (stopping t) do
    let item =
      locked t (fun () ->
          if (not (Queue.is_empty t.warm_q)) && t.hooks.idle t.state then begin
            t.c.warm_busy <- true;
            Some (Queue.pop t.warm_q)
          end
          else None)
    in
    match item with
    | None -> Thread.delay 0.02
    | Some item ->
      let ok = try t.hooks.warm t item with _ -> false in
      locked t (fun () ->
          t.c.warm_busy <- false;
          if ok then t.c.warmed <- t.c.warmed + 1
          else t.c.warm_errors <- t.c.warm_errors + 1)
  done

(* ---------------- the request envelope ---------------- *)

(* Compute ops are single-flight on the canonical request signature:
   concurrent identical requests elect one leader, everyone else blocks
   for the leader's response. *)
let single_flight t ~fd ~deadline_s op req =
  let sgn = signature req in
  let role =
    locked t (fun () ->
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
          `Lead fl)
  in
  match role with
  | `Follow fl ->
    Mutex.lock fl.fm;
    while fl.fresult = None do
      Condition.wait fl.fc fl.fm
    done;
    let header, payload = Option.get fl.fresult in
    Mutex.unlock fl.fm;
    locked t (fun () -> t.c.coalesced <- t.c.coalesced + 1);
    (coalesced_header header, payload)
  | `Lead fl -> (
    let resolve r =
      locked t (fun () -> Hashtbl.remove t.flights sgn);
      Mutex.lock fl.fm;
      fl.fresult <- Some r;
      Condition.broadcast fl.fc;
      Mutex.unlock fl.fm;
      r
    in
    let lone () =
      Mutex.lock fl.fm;
      let w = fl.waiters in
      Mutex.unlock fl.fm;
      w = 0
    in
    (* the leader must always publish — a raising leader would leave
       followers blocked forever *)
    match t.hooks.compute t ~fd ~deadline_s ~lone op req with
    | r -> resolve r
    | exception e ->
      ignore
        (resolve
           ( Protocol.error ~code:"internal" ~message:(Printexc.to_string e),
             None ));
      raise e)

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
          ((("op", Jsonx.Str "version") :: t.hooks.version)
          @ [
              ("server", Jsonx.Str Version.version);
              ("proto", Jsonx.Int Protocol.version);
            ]),
        None )
    | Some "stat" -> (t.hooks.stat t, None)
    | Some op when op = "warm" || List.mem op Ops.names -> (
      match integrity_error req with
      | Some e ->
        locked t (fun () -> t.c.refused <- t.c.refused + 1);
        (e, None)
      | None when op = "warm" -> warm t req
      | None -> single_flight t ~fd ~deadline_s op req)
    | Some op ->
      (Protocol.error ~code:"bad-request" ~message:("unknown op " ^ op), None))

(* ---------------- connection & accept loops ---------------- *)

let bump t ok =
  locked t (fun () ->
      if ok then t.c.served <- t.c.served + 1 else t.c.errors <- t.c.errors + 1)

let handle_conn t fd =
  let sock = t.sock in
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
  locked t (fun () ->
      t.conns <- t.conns - 1;
      Condition.broadcast t.conns_done)

let accept_loop t () =
  while not (stopping t) do
    match Unix.select [ t.listen ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept t.listen with
      | fd, _ ->
        locked t (fun () -> t.conns <- t.conns + 1);
        ignore (Thread.create (fun () -> handle_conn t fd) ())
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ())
  done

let start ~socket ~sock make_state hooks =
  (* a write on a dead client connection must not kill the server *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if Sys.file_exists socket then Unix.unlink socket;
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_UNIX socket);
  Unix.listen listen 64;
  let t =
    {
      state = make_state ();
      hooks;
      socket;
      sock;
      listen;
      stop_flag = Atomic.make false;
      m = Mutex.create ();
      conns_done = Condition.create ();
      flights = Hashtbl.create 16;
      warm_q = Queue.create ();
      warm_seen = Hashtbl.create 64;
      c =
        {
          served = 0;
          errors = 0;
          coalesced = 0;
          refused = 0;
          warm_busy = false;
          warmed = 0;
          warm_errors = 0;
        };
      conns = 0;
      accept_thread = None;
      warm_thread = None;
      stopped = false;
      started_at = Monotime.now ();
    }
  in
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  t.warm_thread <- Some (Thread.create (warm_loop t) ());
  t

let stop ?(drain = ignore) t =
  Atomic.set t.stop_flag true;
  let first =
    locked t (fun () ->
        let first = not t.stopped in
        t.stopped <- true;
        first)
  in
  if first then begin
    Option.iter Thread.join t.accept_thread;
    (* in-flight requests finish (a daemon's campaign batches commit to
       the journal via the engine's should_stop hook) *)
    Mutex.lock t.m;
    while t.conns > 0 do
      Condition.wait t.conns_done t.m
    done;
    Mutex.unlock t.m;
    (* the warm thread exits at its next stopping check; an in-flight
       warm campaign stops at a batch boundary via should_stop *)
    Option.iter Thread.join t.warm_thread;
    drain ();
    (try Unix.close t.listen with Unix.Unix_error _ -> ());
    if Sys.file_exists t.socket then (
      try Unix.unlink t.socket with Unix.Unix_error _ -> ())
  end

let await_signal flag =
  let quit _ = Atomic.set flag true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
  Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
  while not (Atomic.get flag) do
    Thread.delay 0.2
  done

let run t ~stop =
  await_signal t.stop_flag;
  stop t
