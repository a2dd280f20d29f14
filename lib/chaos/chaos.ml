type scope =
  | Store_read
  | Store_write
  | Journal_read
  | Journal_write
  | Sock_recv
  | Sock_send
  | Job
  | Inter_send
  | Inter_recv
  | Shard_crash
  | Shard_partition

type fault =
  | Flip of int
  | Short of float
  | Io_error of string
  | Drop
  | Delay of float
  | Disconnect
  | Raise
  | Slow of float
  | Crash
  | Partition of int

(* New scopes append at the end: [scope_index] is positional, so the
   per-scope streams of the original seven scopes — and every schedule
   a pre-cluster seed produced — are unchanged. *)
let all_scopes =
  [ Store_read; Store_write; Journal_read; Journal_write; Sock_recv;
    Sock_send; Job; Inter_send; Inter_recv; Shard_crash; Shard_partition ]

let scope_name = function
  | Store_read -> "store-read"
  | Store_write -> "store-write"
  | Journal_read -> "journal-read"
  | Journal_write -> "journal-write"
  | Sock_recv -> "sock-recv"
  | Sock_send -> "sock-send"
  | Job -> "job"
  | Inter_send -> "inter-send"
  | Inter_recv -> "inter-recv"
  | Shard_crash -> "shard-crash"
  | Shard_partition -> "shard-partition"

let scope_index s =
  let rec go i = function
    | [] -> assert false
    | x :: tl -> if x = s then i else go (i + 1) tl
  in
  go 0 all_scopes

let fault_name = function
  | Flip k -> Printf.sprintf "flip@%d" k
  | Short f -> Printf.sprintf "short:%.3f" f
  | Io_error e -> Printf.sprintf "io:%s" e
  | Drop -> "drop"
  | Delay d -> Printf.sprintf "delay:%.3f" d
  | Disconnect -> "disconnect"
  | Raise -> "raise"
  | Slow d -> Printf.sprintf "slow:%.3f" d
  | Crash -> "crash"
  | Partition n -> Printf.sprintf "partition:%d" n

type per_scope = {
  rng : Rng.t;
  mutable ops : int;
  mutable injected : int;
  mutable log : fault list;  (* reversed *)
}

type t = {
  plan_seed : int;
  rate_of : scope -> float;
  m : Mutex.t;
  scopes : (scope * per_scope) list;
}

let make ?(rates = fun _ -> 0.05) ~seed () =
  {
    plan_seed = seed;
    rate_of = rates;
    m = Mutex.create ();
    scopes =
      List.map
        (fun s ->
          ( s,
            { rng = Rng.of_path ~seed [ scope_index s ]; ops = 0;
              injected = 0; log = [] } ))
        all_scopes;
  }

let seed t = t.plan_seed

(* The fault menu of a scope.  Parameter draws happen only when a fault
   fires, so quiet operations cost exactly one stream step: the
   schedule stays reproducible under workload prefixes. *)
let pick rng scope =
  let flip () = Flip (Rng.next_int rng 4096) in
  let short () = Short (0.1 +. (0.8 *. Rng.next_float rng)) in
  let delay () = Delay (0.001 +. (0.02 *. Rng.next_float rng)) in
  let slow () = Slow (0.01 +. (0.1 *. Rng.next_float rng)) in
  let menu =
    match scope with
    | Store_read -> [| flip; (fun () -> Io_error "EIO") |]
    | Store_write -> [| short; (fun () -> Io_error "ENOSPC"); (fun () -> Drop) |]
    | Journal_read -> [| flip; (fun () -> Io_error "EIO") |]
    | Journal_write -> [| short; (fun () -> Io_error "ENOSPC") |]
    | Sock_recv -> [| delay; (fun () -> Io_error "EIO"); (fun () -> Disconnect) |]
    | Sock_send -> [| delay; short; (fun () -> Drop) |]
    | Job -> [| (fun () -> Raise); slow |]
    (* Inter-node menus carry no timing faults (Delay/Slow): the cluster
       harness must produce wall-clock-independent reports per seed.
       Unlike client-facing sockets, they DO flip frame bytes — silent
       corruption between proxy and shard is exactly the fault the
       checksummed protocol headers exist to catch. *)
    | Inter_send ->
      [| flip; short; (fun () -> Disconnect) |]
    | Inter_recv ->
      [| flip; (fun () -> Io_error "EIO"); (fun () -> Disconnect) |]
    | Shard_crash -> [| (fun () -> Crash) |]
    | Shard_partition -> [| (fun () -> Partition (1 + Rng.next_int rng 3)) |]
  in
  menu.(Rng.next_int rng (Array.length menu)) ()

let draw t scope =
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      let ps = List.assoc scope t.scopes in
      ps.ops <- ps.ops + 1;
      let rate = t.rate_of scope in
      if rate > 0. && Rng.next_float ps.rng < rate then begin
        let f = pick ps.rng scope in
        ps.injected <- ps.injected + 1;
        ps.log <- f :: ps.log;
        Some f
      end
      else None)

let stats t =
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      List.map (fun (s, ps) -> (s, ps.ops, ps.injected)) t.scopes)

let schedule t =
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () -> List.map (fun (s, ps) -> (s, List.rev ps.log)) t.scopes)

let schedule_hash t =
  let b = Buffer.create 256 in
  List.iter
    (fun (s, faults) ->
      Buffer.add_string b (scope_name s);
      Buffer.add_char b '=';
      List.iter
        (fun f ->
          Buffer.add_string b (fault_name f);
          Buffer.add_char b ',')
        faults;
      Buffer.add_char b ';')
    (schedule t);
  Fnv.hex (Buffer.contents b)

(* ---- shims ---- *)

type shims = {
  store_fx : Fx.t;
  journal_fx : Fx.t;
  sock : Sock.t;
  wrap_job : (unit -> unit) -> unit -> unit;
}

let passthrough =
  { store_fx = Fx.real; journal_fx = Fx.real; sock = Sock.real;
    wrap_job = (fun job -> job) }

let flip_bit s k =
  if String.length s = 0 then s
  else begin
    let b = Bytes.of_string s in
    let bit = k mod (8 * Bytes.length b) in
    let i = bit / 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
    Bytes.to_string b
  end

let truncated s f =
  let n = String.length s in
  String.sub s 0 (min n (max 0 (int_of_float (float_of_int n *. f))))

let chaos_fx t ~read_scope ~write_scope =
  let fail path e = raise (Sys_error (path ^ ": " ^ e ^ " (chaos)")) in
  let on_read path =
    match draw t read_scope with
    | None
    | Some (Short _ | Drop | Delay _ | Disconnect | Raise | Slow _ | Crash
           | Partition _) ->
      Fx.real.Fx.read_file path
    | Some (Flip k) -> flip_bit (Fx.real.Fx.read_file path) k
    | Some (Io_error e) -> fail path e
  in
  let on_write op path s =
    match draw t write_scope with
    | None
    | Some (Flip _ | Delay _ | Disconnect | Raise | Slow _ | Crash
           | Partition _) ->
      op path s
    | Some (Short f) -> op path (truncated s f)
    | Some Drop -> ()
    | Some (Io_error e) -> fail path e
  in
  let on_rename src dst =
    match draw t write_scope with
    | None
    | Some (Flip _ | Delay _ | Disconnect | Raise | Slow _ | Crash
           | Partition _) ->
      Fx.real.Fx.rename src dst
    (* a torn rename: the temp file stays, the target never appears *)
    | Some (Short _ | Drop) -> ()
    | Some (Io_error e) -> fail src e
  in
  {
    Fx.read_file = on_read;
    write_file = on_write Fx.real.Fx.write_file;
    append = on_write Fx.real.Fx.append;
    rename = on_rename;
    remove = Fx.real.Fx.remove;
  }

let shutdown_quiet fd = try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ()

let chaos_sock t =
  let read fd b off len =
    match draw t Sock_recv with
    | None | Some (Flip _ | Short _ | Drop | Raise | Slow _ | Crash
                  | Partition _) ->
      Unix.read fd b off len
    | Some (Delay d) ->
      Unix.sleepf d;
      Unix.read fd b off len
    | Some (Io_error _) -> raise (Unix.Unix_error (Unix.EIO, "read", "chaos"))
    | Some Disconnect ->
      shutdown_quiet fd;
      0
  in
  let write fd b off len =
    match draw t Sock_send with
    | None | Some (Flip _ | Io_error _ | Raise | Slow _ | Crash
                  | Partition _) ->
      Unix.write fd b off len
    | Some (Delay d) ->
      Unix.sleepf d;
      Unix.write fd b off len
    (* a torn frame: part of the bytes escape, then the stream dies *)
    | Some (Short f) ->
      let k = max 1 (int_of_float (float_of_int len *. f)) in
      (try ignore (Unix.write fd b off (min k len)) with _ -> ());
      shutdown_quiet fd;
      raise (Unix.Unix_error (Unix.EPIPE, "write", "chaos"))
    | Some Disconnect ->
      shutdown_quiet fd;
      raise (Unix.Unix_error (Unix.EPIPE, "write", "chaos"))
    | Some Drop -> len
  in
  { Sock.read; write }

(* The proxy<->shard wire.  Two differences from [chaos_sock]: Flip is
   applied to the bytes actually moved (silent frame corruption — the
   protocol's checksummed headers must catch it, or byte-identity is
   lost), and the menus carry no timing faults, so a harness report is
   a pure function of the seed. *)
let internode_sock t =
  let flip_read_bytes b off n k =
    if n > 0 then begin
      let bit = k mod (8 * n) in
      let i = off + (bit / 8) in
      Bytes.set b i
        (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))))
    end
  in
  let read fd b off len =
    match draw t Inter_recv with
    | None | Some (Short _ | Drop | Delay _ | Raise | Slow _ | Crash
                  | Partition _) ->
      Unix.read fd b off len
    | Some (Flip k) ->
      let n = Unix.read fd b off len in
      flip_read_bytes b off n k;
      n
    | Some (Io_error _) -> raise (Unix.Unix_error (Unix.EIO, "read", "chaos"))
    | Some Disconnect ->
      shutdown_quiet fd;
      0
  in
  let write fd b off len =
    match draw t Inter_send with
    | None | Some (Drop | Io_error _ | Delay _ | Raise | Slow _ | Crash
                  | Partition _) ->
      Unix.write fd b off len
    | Some (Flip k) ->
      (* corrupt a copy: the caller may retry the same buffer and must
         not see its own bytes mutated under it *)
      let c = Bytes.sub b off len in
      flip_read_bytes c 0 len k;
      Unix.write fd c 0 len
    | Some (Short f) ->
      let k = max 1 (int_of_float (float_of_int len *. f)) in
      (try ignore (Unix.write fd b off (min k len)) with _ -> ());
      shutdown_quiet fd;
      raise (Unix.Unix_error (Unix.EPIPE, "write", "chaos"))
    | Some Disconnect ->
      shutdown_quiet fd;
      raise (Unix.Unix_error (Unix.EPIPE, "write", "chaos"))
  in
  { Sock.read; write }

let chaos_wrap t job () =
  match draw t Job with
  | None
  | Some (Flip _ | Short _ | Io_error _ | Drop | Delay _ | Disconnect | Crash
         | Partition _) ->
    job ()
  | Some Raise -> failwith "chaos: injected job failure"
  | Some (Slow d) ->
    Unix.sleepf d;
    job ()

let shims t =
  {
    store_fx = chaos_fx t ~read_scope:Store_read ~write_scope:Store_write;
    journal_fx = chaos_fx t ~read_scope:Journal_read ~write_scope:Journal_write;
    sock = chaos_sock t;
    wrap_job = chaos_wrap t;
  }
