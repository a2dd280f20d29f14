(* The moardd serving stack (PR: moardd).

   Layered like the code: the JSON codec, the length-prefixed framing,
   the bounded pool's backpressure, then the daemon end to end over a
   real Unix socket — including the ISSUE's headline contract, that
   concurrent client requests come back byte-identical to a direct
   offline computation. *)

module Jsonx = Moard_server.Jsonx
module Protocol = Moard_server.Protocol
module Pool = Moard_server.Pool
module Daemon = Moard_server.Daemon
module Client = Moard_server.Client
module Store = Moard_store.Store
module Query = Moard_store.Query
module Registry = Moard_kernels.Registry
module Context = Moard_inject.Context

(* ---------------------------------------------------------------- *)
(* Jsonx *)

let roundtrip v = Jsonx.parse (Jsonx.to_string v)

let jsonx_tests =
  [
    Alcotest.test_case "print/parse roundtrip" `Quick (fun () ->
        let v =
          Jsonx.Obj
            [
              ("s", Jsonx.Str "a \"quoted\" \\ line\nand\ttabs");
              ("i", Jsonx.Int (-42));
              ("f", Jsonx.Float 1.5);
              ("b", Jsonx.Bool true);
              ("n", Jsonx.Null);
              ("a", Jsonx.Arr [ Jsonx.Int 1; Jsonx.Str "x"; Jsonx.Bool false ]);
              ("o", Jsonx.Obj [ ("nested", Jsonx.Arr []) ]);
            ]
        in
        match roundtrip v with
        | Ok v' -> Alcotest.(check bool) "same value" true (v = v')
        | Error e -> Alcotest.failf "did not parse back: %s" e);
    Alcotest.test_case "unicode escapes decode to UTF-8" `Quick (fun () ->
        match Jsonx.parse {|"éA"|} with
        | Ok (Jsonx.Str s) -> Alcotest.(check string) "bytes" "\xc3\xa9A" s
        | _ -> Alcotest.fail "unicode escape rejected");
    Alcotest.test_case "trailing garbage and malformed input are rejected"
      `Quick (fun () ->
        List.iter
          (fun s ->
            match Jsonx.parse s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %S" s)
          [ "{} x"; "{"; "[1,]"; "\"unterminated"; "nul"; "01x"; "" ]);
    Alcotest.test_case "accessors are total and cross-accept numbers" `Quick
      (fun () ->
        let v = Jsonx.Obj [ ("i", Jsonx.Int 3); ("f", Jsonx.Float 4.0) ] in
        Alcotest.(check (option int))
          "float as int" (Some 4)
          (Jsonx.int (Jsonx.member "f" v));
        Alcotest.(check (option (float 0.0)))
          "int as float" (Some 3.0)
          (Jsonx.float (Jsonx.member "i" v));
        Alcotest.(check (option string))
          "missing member" None
          (Jsonx.str (Jsonx.member "nope" v)));
  ]

(* ---------------------------------------------------------------- *)
(* Protocol framing over a socketpair *)

let protocol_tests =
  [
    Alcotest.test_case "header and payload frames cross a socketpair" `Quick
      (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () ->
            (try Unix.close a with Unix.Unix_error _ -> ());
            Unix.close b)
          (fun () ->
            Protocol.send a
              ~payload:"raw payload bytes \x00\xff"
              (Jsonx.Obj [ ("op", Jsonx.Str "x") ]);
            Protocol.send a (Jsonx.Obj [ ("op", Jsonx.Str "bare") ]);
            (match Protocol.recv b with
            | Some (header, Some payload) ->
              Alcotest.(check (option string))
                "op" (Some "x")
                (Jsonx.str (Jsonx.member "op" header));
              Alcotest.(check (option int))
                "payload_bytes announced" (Some (String.length payload))
                (Jsonx.int (Jsonx.member "payload_bytes" header));
              Alcotest.(check string) "payload" "raw payload bytes \x00\xff"
                payload
            | _ -> Alcotest.fail "first frame lost");
            (match Protocol.recv b with
            | Some (_, None) -> ()
            | _ -> Alcotest.fail "second frame lost");
            Unix.close a;
            match Protocol.recv b with
            | None -> ()
            | Some _ -> Alcotest.fail "EOF should be None"));
    Alcotest.test_case "oversized and torn frames raise Protocol_error"
      `Quick (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () ->
            (try Unix.close a with Unix.Unix_error _ -> ());
            Unix.close b)
          (fun () ->
            (* an absurd length prefix *)
            let huge = Bytes.of_string "\x7f\xff\xff\xff" in
            ignore (Unix.write a huge 0 4);
            (match Protocol.recv b with
            | exception Protocol.Protocol_error _ -> ()
            | _ -> Alcotest.fail "oversized frame accepted");
            (* a length prefix with no body *)
            ignore (Unix.write a (Bytes.of_string "\x00\x00\x00\x10ab") 0 6);
            Unix.close a;
            match Protocol.recv b with
            | exception Protocol.Protocol_error _ -> ()
            | _ -> Alcotest.fail "torn frame accepted"));
    Alcotest.test_case "a lost header frame is a transport failure" `Quick
      (fun () ->
        (* The server's header frame never arrives; its payload frame, a
           JSON object itself, is the first frame the client reads. *)
        let socket = Filename.temp_file "moardd_test" ".sock" in
        Sys.remove socket;
        let l = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind l (Unix.ADDR_UNIX socket);
        Unix.listen l 1;
        let server =
          Thread.create
            (fun () ->
              let fd, _ = Unix.accept l in
              ignore (Protocol.recv fd);
              Protocol.send fd (Jsonx.Obj [ ("schema", Jsonx.Str "report") ]);
              Unix.close fd)
            ()
        in
        Fun.protect
          ~finally:(fun () ->
            Thread.join server;
            Unix.close l;
            Sys.remove socket)
          (fun () ->
            match Client.rpc ~socket (Jsonx.Obj [ ("op", Jsonx.Str "report") ])
            with
            | exception Protocol.Protocol_error _ -> ()
            | _ -> Alcotest.fail "a status-less frame was taken as a response"));
  ]

(* ---------------------------------------------------------------- *)
(* Pool *)

let pool_tests =
  [
    Alcotest.test_case "jobs run, failures are swallowed and counted" `Quick
      (fun () ->
        let p = Pool.create ~workers:2 ~queue:16 () in
        let hits = Atomic.make 0 in
        for _ = 1 to 8 do
          match Pool.submit p (fun () -> Atomic.incr hits) with
          | `Accepted -> ()
          | _ -> Alcotest.fail "queue of 16 refused 8 jobs"
        done;
        ignore (Pool.submit p (fun () -> failwith "boom"));
        Pool.drain p;
        Alcotest.(check int) "all jobs ran" 8 (Atomic.get hits);
        Alcotest.(check int) "failure counted" 1 (Pool.failed p);
        Alcotest.(check int) "executed counts failures too" 9
          (Pool.executed p));
    Alcotest.test_case "a full queue is explicit backpressure, not a drop"
      `Quick (fun () ->
        let p = Pool.create ~workers:1 ~queue:2 () in
        let gate = Atomic.make false in
        let ran = Atomic.make 0 in
        let blocker () =
          while not (Atomic.get gate) do
            Thread.yield ()
          done
        in
        (* one job occupies the worker, two fill the queue *)
        ignore (Pool.submit p blocker);
        (* wait until the blocker is actually running so the queue
           capacity is exactly 2 *)
        while Pool.running p = 0 do
          Thread.yield ()
        done;
        ignore (Pool.submit p (fun () -> Atomic.incr ran));
        ignore (Pool.submit p (fun () -> Atomic.incr ran));
        (match Pool.submit p (fun () -> Atomic.incr ran) with
        | `Overloaded -> ()
        | `Accepted -> Alcotest.fail "queue bound not enforced"
        | `Draining -> Alcotest.fail "pool is not draining");
        Alcotest.(check int) "rejection counted" 1 (Pool.rejected p);
        Atomic.set gate true;
        Pool.drain p;
        Alcotest.(check int) "queued jobs still ran" 2 (Atomic.get ran);
        match Pool.submit p (fun () -> ()) with
        | `Draining -> ()
        | _ -> Alcotest.fail "drained pool accepted work");
  ]

(* ---------------------------------------------------------------- *)
(* Daemon, end to end *)

let with_daemon ?(workers = 2) ?(queue = 8) ?(timeout_s = 120.0) ?shims f =
  let dir = Filename.temp_file "moard_test_daemon" "" in
  Sys.remove dir;
  let socket = Filename.temp_file "moardd_test" ".sock" in
  Sys.remove socket;
  let cfg =
    {
      Daemon.default_config with
      Daemon.socket;
      store_dir = dir;
      workers;
      queue;
      timeout_s;
      shims =
        Option.value ~default:Daemon.default_config.Daemon.shims shims;
    }
  in
  let d = Daemon.start cfg in
  Fun.protect ~finally:(fun () -> Daemon.stop d) (fun () -> f d cfg)

let rpc cfg req = Client.rpc ~socket:cfg.Daemon.socket req

let advf_req obj =
  Jsonx.Obj
    [
      ("op", Jsonx.Str "advf");
      ("benchmark", Jsonx.Str "LULESH");
      ("object", Jsonx.Str obj);
    ]

let served header = Jsonx.str (Jsonx.member "served" header)

let direct_payload obj =
  let e = Registry.find "LULESH" in
  Query.advf_payload (Context.make (e.Registry.workload ())) ~object_name:obj

let daemon_tests =
  [
    Alcotest.test_case "version and proto mismatch handling" `Quick (fun () ->
        with_daemon (fun _ cfg ->
            let header, _ =
              rpc cfg (Jsonx.Obj [ ("op", Jsonx.Str "version") ])
            in
            Alcotest.(check (option string))
              "server version"
              (Some Moard_server.Version.version)
              (Jsonx.str (Jsonx.member "server" header));
            let header, _ =
              rpc cfg
                (Jsonx.Obj [ ("proto", Jsonx.Int 99); ("op", Jsonx.Str "stat") ])
            in
            match Client.error_of header with
            | Some ("proto-mismatch", _) -> ()
            | _ -> Alcotest.fail "future proto accepted"));
    Alcotest.test_case "malformed requests get bad-request, not a hangup"
      `Quick (fun () ->
        with_daemon (fun _ cfg ->
            let header, _ = rpc cfg (Jsonx.Obj [ ("no_op", Jsonx.Int 1) ]) in
            (match Client.error_of header with
            | Some ("bad-request", _) -> ()
            | _ -> Alcotest.fail "missing op not rejected");
            let header, _ =
              rpc cfg
                (Jsonx.Obj
                   [ ("op", Jsonx.Str "advf"); ("benchmark", Jsonx.Str "NOPE") ])
            in
            match Client.error_of header with
            | Some _ -> ()
            | None -> Alcotest.fail "unknown benchmark not rejected"));
    Alcotest.test_case "advf: computed once, cache hit after, bytes equal \
                        offline" `Quick (fun () ->
        with_daemon (fun _ cfg ->
            let h1, p1 = rpc cfg (advf_req "m_elemBC") in
            Alcotest.(check (option string))
              "cold" (Some "computed") (served h1);
            let h2, p2 = rpc cfg (advf_req "m_elemBC") in
            (match served h2 with
            | Some ("memory-hit" | "disk-hit") -> ()
            | s ->
              Alcotest.failf "warm query not a hit: %s"
                (Option.value ~default:"?" s));
            Alcotest.(check (option string))
              "identical bytes" (Option.map Fun.id p1) (Option.map Fun.id p2);
            let direct = direct_payload "m_elemBC" in
            Alcotest.(check string)
              "daemon equals offline" direct
              (Option.get p1)));
    Alcotest.test_case "concurrent clients: every payload byte-identical to \
                        offline" `Quick (fun () ->
        with_daemon ~workers:2 ~queue:32 (fun _ cfg ->
            let objs = [| "m_elemBC"; "m_delv_zeta" |] in
            let expect = Array.map direct_payload objs in
            let results = Array.make 12 None in
            let threads =
              Array.init 12 (fun i ->
                  Thread.create
                    (fun i ->
                      let _, p = rpc cfg (advf_req objs.(i mod 2)) in
                      results.(i) <- p)
                    i)
            in
            Array.iter Thread.join threads;
            Array.iteri
              (fun i p ->
                match p with
                | Some p ->
                  Alcotest.(check string)
                    (Printf.sprintf "request %d" i)
                    expect.(i mod 2) p
                | None -> Alcotest.failf "request %d lost its payload" i)
              results));
    Alcotest.test_case "stat reflects store hits and pool work" `Quick
      (fun () ->
        with_daemon (fun _ cfg ->
            ignore (rpc cfg (advf_req "m_elemBC"));
            ignore (rpc cfg (advf_req "m_elemBC"));
            let header, _ = rpc cfg (Jsonx.Obj [ ("op", Jsonx.Str "stat") ]) in
            let store = Jsonx.member "store" header in
            let field name =
              match store with
              | Some s -> Jsonx.int (Jsonx.member name s)
              | None -> None
            in
            Alcotest.(check (option int)) "one entry" (Some 1) (field "entries");
            Alcotest.(check bool) "a hit happened" true
              (match field "mem_hits" with Some n -> n >= 1 | None -> false);
            (* one context per program, however many queries hit it (the
               golden_executions counter is process-global, so other
               suites in this binary contribute to it) *)
            Alcotest.(check (option int))
              "one shared context" (Some 1)
              (Jsonx.int (Jsonx.member "contexts" header))));
    Alcotest.test_case "campaign: daemon result equals the engine's stable \
                        report, then serves from store" `Quick (fun () ->
        with_daemon (fun _ cfg ->
            let req =
              Jsonx.Obj
                [
                  ("op", Jsonx.Str "campaign");
                  ("benchmark", Jsonx.Str "LULESH");
                  ("objects", Jsonx.Arr [ Jsonx.Str "m_elemBC" ]);
                  ("seed", Jsonx.Int 7);
                  ("ci_width", Jsonx.Float 0.05);
                  ("batch", Jsonx.Int 37);
                ]
            in
            let h1, p1 = rpc cfg req in
            Alcotest.(check (option string))
              "cold" (Some "computed") (served h1);
            Alcotest.(check (option bool))
              "complete" (Some true)
              (Jsonx.bool (Jsonx.member "complete" h1));
            let e = Registry.find "LULESH" in
            let ctx = Context.make (e.Registry.workload ()) in
            let plan =
              Moard_campaign.Plan.make ~seed:7 ~ci_width:0.05 ~batch:37 ctx
                ~objects:[ "m_elemBC" ]
            in
            let direct =
              Query.campaign_payload (Moard_campaign.Engine.run ctx plan)
            in
            Alcotest.(check string) "daemon equals engine" direct
              (Option.get p1);
            let h2, p2 = rpc cfg req in
            (match served h2 with
            | Some ("memory-hit" | "disk-hit") -> ()
            | _ -> Alcotest.fail "campaign not served from store");
            Alcotest.(check string) "served bytes" (Option.get p1)
              (Option.get p2)));
    Alcotest.test_case "a corrupted store entry is healed and re-served \
                        through the daemon" `Quick (fun () ->
        with_daemon (fun d cfg ->
            let _, p1 = rpc cfg (advf_req "m_elemBC") in
            (* corrupt the entry on disk, then evict the memory layer's
               copy by going through the daemon's own store handle *)
            let store = Daemon.store d in
            let key =
              Moard_store.Key.advf
                ~program:
                  ((Registry.find "LULESH").Registry.workload ())
                    .Moard_inject.Workload.program
                ~object_name:"m_elemBC"
                ~options:Moard_core.Model.default_options
            in
            let hex = Moard_store.Key.to_hex key in
            let path =
              Filename.concat
                (Filename.concat
                   (Filename.concat (Store.dir store) "objects")
                   (String.sub hex 0 2))
                (hex ^ ".rec")
            in
            let ic = open_in_bin path in
            let image = really_input_string ic (in_channel_length ic) in
            close_in ic;
            let b = Bytes.of_string image in
            let pos = String.length image - 1 in
            Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
            let oc = open_out_bin path in
            output_bytes oc b;
            close_out oc;
            Store.delete store ~key;
            (* delete dropped both layers; restore the corrupt disk image *)
            let oc = open_out_bin path in
            output_bytes oc b;
            close_out oc;
            let h2, p2 = rpc cfg (advf_req "m_elemBC") in
            Alcotest.(check (option string))
              "healed by recompute" (Some "recomputed") (served h2);
            Alcotest.(check string)
              "identical bytes after healing" (Option.get p1) (Option.get p2);
            let h3, p3 = rpc cfg (advf_req "m_elemBC") in
            (match served h3 with
            | Some ("memory-hit" | "disk-hit") -> ()
            | _ -> Alcotest.fail "healed entry not served");
            Alcotest.(check string) "same bytes" (Option.get p1)
              (Option.get p3)));
    Alcotest.test_case "stop drains: socket removed, second stop is a no-op"
      `Quick (fun () ->
        let dir = Filename.temp_file "moard_test_daemon" "" in
        Sys.remove dir;
        let socket = Filename.temp_file "moardd_test" ".sock" in
        Sys.remove socket;
        let cfg =
          { Daemon.default_config with Daemon.socket; store_dir = dir }
        in
        let d = Daemon.start cfg in
        ignore (Client.rpc ~socket (Jsonx.Obj [ ("op", Jsonx.Str "stat") ]));
        Daemon.stop d;
        Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket);
        Daemon.stop d;
        match Client.rpc ~socket (Jsonx.Obj [ ("op", Jsonx.Str "stat") ]) with
        | exception Unix.Unix_error _ -> ()
        | _ -> Alcotest.fail "stopped daemon still answering");
  ]

(* ---------------------------------------------------------------- *)
(* Resilience: the hardening contracts the chaos harness relies on *)

module Chaos = Moard_chaos.Chaos

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let resilience_tests =
  [
    Alcotest.test_case "a dying job still answers: typed internal error, \
                        cause surfaced in stat" `Quick (fun () ->
        let shims =
          {
            Chaos.passthrough with
            Chaos.wrap_job = (fun _job () -> failwith "wrapped job exploded");
          }
        in
        with_daemon ~timeout_s:60.0 ~shims (fun d cfg ->
            let t0 = Unix.gettimeofday () in
            let header, _ = rpc cfg (advf_req "m_elemBC") in
            let dt = Unix.gettimeofday () -. t0 in
            (match Client.error_of header with
            | Some ("internal", msg) ->
              Alcotest.(check bool) "error names the cause" true
                (contains ~sub:"wrapped job exploded" msg)
            | Some (code, msg) ->
              Alcotest.failf "expected internal, got %s: %s" code msg
            | None -> Alcotest.fail "dead job reported success");
            Alcotest.(check bool)
              "answered promptly, not by waiting out the timeout" true
              (dt < 30.0);
            Alcotest.(check bool) "pool counted the failure" true
              (Pool.failed (Daemon.pool d) >= 1);
            let stat, _ = rpc cfg (Jsonx.Obj [ ("op", Jsonx.Str "stat") ]) in
            match Jsonx.member "pool" stat with
            | Some pool -> (
              match Jsonx.str (Jsonx.member "last_error" pool) with
              | Some e ->
                Alcotest.(check bool) "last_error surfaced" true
                  (contains ~sub:"wrapped job exploded" e)
              | None -> Alcotest.fail "no last_error in stat")
            | None -> Alcotest.fail "no pool section in stat"));
    Alcotest.test_case "a timed-out campaign frees its worker before the \
                        job completes: nothing stored, journal kept" `Slow
      (fun () ->
        (* the job shim sleeps past the deadline before the job even
           starts, so the timeout answer always wins; the job then finds
           its cancel token expired and abandons at the first batch
           check *)
        let shims =
          {
            Chaos.passthrough with
            Chaos.wrap_job =
              (fun job () ->
                Unix.sleepf 0.5;
                job ());
          }
        in
        with_daemon ~workers:1 ~timeout_s:0.1 ~shims (fun d cfg ->
            let req =
              Jsonx.Obj
                [
                  ("op", Jsonx.Str "campaign");
                  ("benchmark", Jsonx.Str "LULESH");
                  ("objects", Jsonx.Arr [ Jsonx.Str "m_elemBC" ]);
                  ("seed", Jsonx.Int 11);
                  ("ci_width", Jsonx.Float 0.05);
                ]
            in
            let header, _ = rpc cfg req in
            (match Client.error_of header with
            | Some ("timeout", msg) ->
              Alcotest.(check bool) "says the work was cancelled" true
                (contains ~sub:"cancelled" msg)
            | Some (code, _) -> Alcotest.failf "expected timeout, got %s" code
            | None -> Alcotest.fail "request should have timed out");
            (* cooperative cancellation: the single worker frees long
               before an uncancelled campaign would finish *)
            let deadline = Unix.gettimeofday () +. 30.0 in
            while
              (Pool.running (Daemon.pool d) > 0
              || Pool.queued (Daemon.pool d) > 0)
              && Unix.gettimeofday () < deadline
            do
              Thread.delay 0.01
            done;
            Alcotest.(check int) "worker freed" 0
              (Pool.running (Daemon.pool d));
            (* the job was abandoned, not completed: no result reached
               the store, and the journal survives for a resume *)
            let e = Registry.find "LULESH" in
            let w = e.Registry.workload () in
            let ctx = Context.make w in
            let plan =
              Moard_campaign.Plan.make ~seed:11 ~ci_width:0.05 ctx
                ~objects:[ "m_elemBC" ]
            in
            let key =
              Moard_store.Key.campaign
                ~program:w.Moard_inject.Workload.program ~plan
            in
            Alcotest.(check bool) "nothing stored" true
              (Store.get (Daemon.store d) ~key
                 ~kind:Moard_store.Record.Campaign
              = None);
            let journal =
              Filename.concat
                (Store.journal_dir (Daemon.store d))
                (Moard_store.Key.to_hex key ^ ".journal")
            in
            Alcotest.(check bool) "journal kept for resume" true
              (Sys.file_exists journal)));
    Alcotest.test_case "raw garbage on the socket: typed bad-request, the \
                        daemon keeps serving" `Quick (fun () ->
        with_daemon (fun _ cfg ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Fun.protect
              ~finally:(fun () ->
                try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                Unix.connect fd (Unix.ADDR_UNIX cfg.Daemon.socket);
                (* a well-framed frame whose body is not JSON *)
                let body = "this is not json {" in
                let b = Bytes.create (4 + String.length body) in
                Bytes.set_int32_be b 0 (Int32.of_int (String.length body));
                Bytes.blit_string body 0 b 4 (String.length body);
                ignore (Unix.write fd b 0 (Bytes.length b));
                (match Protocol.recv fd with
                | Some (h, _) -> (
                  match Client.error_of h with
                  | Some ("bad-request", _) -> ()
                  | _ -> Alcotest.fail "garbage not answered with bad-request")
                | None -> Alcotest.fail "connection dropped without an answer"
                | exception Protocol.Protocol_error _ ->
                  Alcotest.fail "daemon sent garbage back"));
            (* the accept loop is alive and well *)
            let header, _ = rpc cfg (Jsonx.Obj [ ("op", Jsonx.Str "version") ]) in
            match Client.error_of header with
            | None -> ()
            | Some (code, _) ->
              Alcotest.failf "daemon wedged after garbage: %s" code));
  ]

(* ---------------------------------------------------------------- *)
(* Single-flight coalescing and seeded retry backoff *)

let coalescing_tests =
  [
    Alcotest.test_case "six clients on one cold key: one compute, five \
                        coalesced, six payloads equal offline" `Quick
      (fun () ->
        (* the slow job holds the flight open long enough for every
           follower to join before the leader resolves *)
        let shims =
          {
            Chaos.passthrough with
            Chaos.wrap_job =
              (fun job () ->
                Unix.sleepf 0.3;
                job ());
          }
        in
        with_daemon ~workers:2 ~queue:32 ~shims (fun d cfg ->
            let k = 6 in
            let results = Array.make k None in
            let threads =
              Array.init k (fun i ->
                  Thread.create
                    (fun i -> results.(i) <- Some (rpc cfg (advf_req "m_elemBC")))
                    i)
            in
            Array.iter Thread.join threads;
            let direct = direct_payload "m_elemBC" in
            let computed = ref 0 and coalesced = ref 0 in
            Array.iteri
              (fun i -> function
                | None -> Alcotest.failf "client %d lost its response" i
                | Some (h, p) ->
                  (match served h with
                  | Some "computed" -> incr computed
                  | Some "coalesced" ->
                    incr coalesced;
                    Alcotest.(check (option bool))
                      (Printf.sprintf "client %d marked cached" i)
                      (Some true)
                      (Jsonx.bool (Jsonx.member "cached" h))
                  | s ->
                    Alcotest.failf "client %d: unexpected served %s" i
                      (Option.value ~default:"?" s));
                  Alcotest.(check (option string))
                    (Printf.sprintf "client %d bytes" i)
                    (Some direct) p)
              results;
            Alcotest.(check int) "exactly one compute" 1 !computed;
            Alcotest.(check int) "the rest coalesced" (k - 1) !coalesced;
            Alcotest.(check int) "one pool job for six clients" 1
              (Pool.executed (Daemon.pool d));
            let stat, _ = rpc cfg (Jsonx.Obj [ ("op", Jsonx.Str "stat") ]) in
            Alcotest.(check (option int))
              "stat counted the followers" (Some (k - 1))
              (Jsonx.int (Jsonx.member "coalesced" stat))));
    Alcotest.test_case "retry backoff: seeded, reproducible, capped" `Quick
      (fun () ->
        let module Rng = Moard_chaos.Rng in
        let seq seed =
          let rng = Rng.make seed in
          List.init 6 (Client.backoff ~base_delay_s:0.05 ~max_delay_s:1.0 rng)
        in
        Alcotest.(check (list (float 0.0)))
          "same stream, same schedule" (seq 42) (seq 42);
        Alcotest.(check bool) "different stream, different schedule" true
          (seq 42 <> seq 43);
        List.iteri
          (fun i d ->
            let cap = Float.min 1.0 (0.05 *. (2. ** float_of_int i)) in
            Alcotest.(check bool)
              (Printf.sprintf "attempt %d within [cap/2, cap]" i)
              true
              (d >= (cap /. 2.) -. 1e-9 && d <= cap +. 1e-9))
          (seq 42));
  ]

let suite =
  [
    ("server.jsonx", jsonx_tests);
    ("server.protocol", protocol_tests);
    ("server.pool", pool_tests);
    ("server.daemon", daemon_tests);
    ("server.coalescing", coalescing_tests);
    ("server.resilience", resilience_tests);
  ]
