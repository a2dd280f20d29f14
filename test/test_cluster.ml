(* The sharded serving stack (PR: cluster moardd).

   Layered like lib/cluster: the consistent-hash ring's placement
   properties, the proxy's routing keys, then a real in-process cluster
   — two shard daemons behind the proxy on Unix sockets — checked for
   the invariant every layer above leans on: a response is a typed
   error or byte-identical to the offline computation, whether it was
   computed, coalesced, hedged, failed over, or warmed. *)

module Ring = Moard_cluster.Ring
module Proxy = Moard_cluster.Proxy
module Local = Moard_cluster.Local
module Jsonx = Moard_server.Jsonx
module Client = Moard_server.Client
module Chaos = Moard_chaos.Chaos
module Query = Moard_store.Query
module Registry = Moard_kernels.Registry
module Context = Moard_inject.Context

(* ---------------------------------------------------------------- *)
(* Ring *)

let keys = List.init 200 (Printf.sprintf "key-%d")

let ring_tests =
  [
    Alcotest.test_case "placement is deterministic and order-insensitive"
      `Quick (fun () ->
        let r = Ring.make [ "a"; "b"; "c" ] in
        let r' = Ring.make [ "c"; "a"; "b" ] in
        List.iter
          (fun k ->
            Alcotest.(check string) k (Ring.owner r k) (Ring.owner r' k);
            Alcotest.(check (list string))
              (k ^ " owners") (Ring.owners r ~n:2 k)
              (Ring.owners r' ~n:2 k))
          keys);
    Alcotest.test_case "owner chains are distinct and every shard gets keys"
      `Quick (fun () ->
        let r = Ring.make [ "a"; "b"; "c" ] in
        let seen = Hashtbl.create 3 in
        List.iter
          (fun k ->
            match Ring.owners r ~n:2 k with
            | [ p; s ] ->
              Alcotest.(check bool) "replica differs from primary" true (p <> s);
              Hashtbl.replace seen p ()
            | l -> Alcotest.failf "%d owners for %s" (List.length l) k)
          keys;
        Alcotest.(check int) "all shards own something" 3 (Hashtbl.length seen));
    Alcotest.test_case "adding a shard moves keys only onto the new shard"
      `Quick (fun () ->
        let r3 = Ring.make [ "a"; "b"; "c" ] in
        let r4 = Ring.make [ "a"; "b"; "c"; "d" ] in
        let moved = ref 0 in
        List.iter
          (fun k ->
            let before = Ring.owner r3 k and after = Ring.owner r4 k in
            if before <> after then begin
              incr moved;
              Alcotest.(check string) ("moved key " ^ k) "d" after
            end)
          keys;
        Alcotest.(check bool) "some keys moved" true (!moved > 0);
        Alcotest.(check bool)
          (Printf.sprintf "bounded reshuffle (%d/200 moved)" !moved)
          true
          (!moved < 120));
    Alcotest.test_case "rejects empty and duplicate shard names" `Quick
      (fun () ->
        (match Ring.make [] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "empty ring accepted");
        match Ring.make [ "a"; "a" ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "duplicate shard accepted");
  ]

(* ---------------------------------------------------------------- *)
(* Routing keys *)

let advf_req ?(benchmark = "LULESH") obj =
  Jsonx.Obj
    [
      ("op", Jsonx.Str "advf");
      ("benchmark", Jsonx.Str benchmark);
      ("object", Jsonx.Str obj);
    ]

let routing_tests =
  [
    Alcotest.test_case "warm routes with the advf it precomputes; campaign \
                        with its report" `Quick (fun () ->
        let warm_req =
          Jsonx.Obj
            [
              ("op", Jsonx.Str "warm");
              ("benchmark", Jsonx.Str "LULESH");
              ("object", Jsonx.Str "m_elemBC");
            ]
        in
        Alcotest.(check string)
          "warm = advf"
          (Proxy.routing_key (advf_req "m_elemBC"))
          (Proxy.routing_key warm_req);
        let campaign op =
          Jsonx.Obj
            [
              ("op", Jsonx.Str op);
              ("benchmark", Jsonx.Str "MM");
              ("ci_width", Jsonx.Float 0.1);
            ]
        in
        Alcotest.(check string)
          "campaign = report"
          (Proxy.routing_key (campaign "campaign"))
          (Proxy.routing_key (campaign "report"));
        Alcotest.(check bool) "objects separate" true
          (Proxy.routing_key (advf_req "m_elemBC")
          <> Proxy.routing_key (advf_req "m_delv_zeta")));
  ]

(* ---------------------------------------------------------------- *)
(* The cluster, end to end *)

let with_cluster ?shard_shims ?tune ?(shards = 2) f =
  let root = Filename.temp_file "moard_test_cluster" "" in
  Sys.remove root;
  let c = Local.start ?shard_shims ?tune ~root ~shards () in
  Fun.protect ~finally:(fun () -> Local.stop c) (fun () -> f c)

let rpc c req = Client.rpc ~socket:(Local.socket c) req

let served header = Jsonx.str (Jsonx.member "served" header)
let shard_of header = Jsonx.str (Jsonx.member "shard" header)

let direct_payload obj =
  let e = Registry.find "LULESH" in
  Query.advf_payload (Context.make (e.Registry.workload ())) ~object_name:obj

let proxy_counter stat name =
  Option.bind (Jsonx.member "proxy" stat) (Jsonx.member name) |> Jsonx.int

(* the shard Local names, as the proxy's ring places them *)
let primary_for req = Ring.owner (Ring.make [ "shard0"; "shard1" ]) (Proxy.routing_key req)

let cluster_tests =
  [
    Alcotest.test_case "served bytes equal offline, cold and warm, with \
                        shard attribution" `Quick (fun () ->
        with_cluster (fun c ->
            let direct = direct_payload "m_elemBC" in
            let h1, p1 = rpc c (advf_req "m_elemBC") in
            Alcotest.(check (option string)) "cold" (Some "computed") (served h1);
            Alcotest.(check (option string)) "cold bytes" (Some direct) p1;
            Alcotest.(check bool) "shard attributed" true (shard_of h1 <> None);
            Alcotest.(check (option string))
              "the ring's pick" (Some (primary_for (advf_req "m_elemBC")))
              (shard_of h1);
            let h2, p2 = rpc c (advf_req "m_elemBC") in
            (match served h2 with
            | Some ("memory-hit" | "disk-hit") -> ()
            | s ->
              Alcotest.failf "warm query not a hit: %s"
                (Option.value ~default:"?" s));
            Alcotest.(check (option string)) "warm bytes" (Some direct) p2));
    Alcotest.test_case "one cold key, six clients: one compute, five \
                        coalesced, six identical payloads" `Quick (fun () ->
        let shims _ =
          {
            Chaos.passthrough with
            Chaos.wrap_job =
              (fun job () ->
                Unix.sleepf 0.3;
                job ());
          }
        in
        with_cluster ~shard_shims:shims (fun c ->
            let direct = direct_payload "m_delv_zeta" in
            let k = 6 in
            let results = Array.make k None in
            let threads =
              Array.init k (fun i ->
                  Thread.create
                    (fun i -> results.(i) <- Some (rpc c (advf_req "m_delv_zeta")))
                    i)
            in
            Array.iter Thread.join threads;
            let computed = ref 0 and coalesced = ref 0 in
            Array.iteri
              (fun i -> function
                | None -> Alcotest.failf "client %d lost its response" i
                | Some (h, p) ->
                  (match served h with
                  | Some "computed" -> incr computed
                  | Some "coalesced" -> incr coalesced
                  | s ->
                    Alcotest.failf "client %d: unexpected served %s" i
                      (Option.value ~default:"?" s));
                  Alcotest.(check (option string))
                    (Printf.sprintf "client %d bytes" i)
                    (Some direct) p)
              results;
            Alcotest.(check int) "exactly one compute" 1 !computed;
            Alcotest.(check int) "the rest coalesced" (k - 1) !coalesced;
            let stat, _ = rpc c (Jsonx.Obj [ ("op", Jsonx.Str "stat") ]) in
            Alcotest.(check (option int))
              "proxy counted them" (Some (k - 1))
              (proxy_counter stat "coalesced")));
    Alcotest.test_case "crash-stop owner: replica answers with identical \
                        bytes" `Quick (fun () ->
        with_cluster (fun c ->
            let direct = direct_payload "m_elemBC" in
            let h1, p1 = rpc c (advf_req "m_elemBC") in
            Alcotest.(check (option string)) "before crash" (Some direct) p1;
            let owner = Option.get (shard_of h1) in
            let victim = if owner = "shard0" then 0 else 1 in
            Local.crash c victim;
            let h2, p2 = rpc c (advf_req "m_elemBC") in
            (match Client.error_of h2 with
            | Some (code, msg) -> Alcotest.failf "typed %s after crash: %s" code msg
            | None -> ());
            Alcotest.(check (option string)) "replica bytes" (Some direct) p2;
            Alcotest.(check bool) "answered by the survivor" true
              (shard_of h2 <> Some owner);
            let stat, _ = rpc c (Jsonx.Obj [ ("op", Jsonx.Str "stat") ]) in
            Alcotest.(check bool) "failover counted" true
              (match proxy_counter stat "failovers" with
              | Some n -> n >= 1
              | None -> false);
            Local.restart c victim;
            let _, p3 = rpc c (advf_req "m_elemBC") in
            Alcotest.(check (option string)) "after restart" (Some direct) p3));
    Alcotest.test_case "a slow owner is hedged: the replica's answer wins, \
                        bytes identical" `Quick (fun () ->
        let req = advf_req "m_elemBC" in
        let primary = primary_for req in
        let shims i =
          if Printf.sprintf "shard%d" i = primary then
            {
              Chaos.passthrough with
              Chaos.wrap_job =
                (fun job () ->
                  Unix.sleepf 2.0;
                  job ());
            }
          else Chaos.passthrough
        in
        with_cluster ~shard_shims:shims
          ~tune:(fun cfg -> { cfg with Proxy.hedge_after_s = Some 0.05 })
          (fun c ->
            let h, p = rpc c req in
            Alcotest.(check (option string))
              "hedged bytes" (Some (direct_payload "m_elemBC")) p;
            Alcotest.(check bool) "replica won" true
              (shard_of h <> None && shard_of h <> Some primary);
            let stat, _ = rpc c (Jsonx.Obj [ ("op", Jsonx.Str "stat") ]) in
            Alcotest.(check bool) "hedge win counted" true
              (match proxy_counter stat "hedge_wins" with
              | Some n -> n >= 1
              | None -> false)));
    Alcotest.test_case "warm precomputes: the first client query is already \
                        a hit" `Quick (fun () ->
        with_cluster (fun c ->
            let h, _ =
              rpc c
                (Jsonx.Obj
                   [
                     ("op", Jsonx.Str "warm");
                     ("benchmark", Jsonx.Str "LULESH");
                     ("object", Jsonx.Str "m_elemBC");
                   ])
            in
            Alcotest.(check (option bool))
              "acknowledged as queued" (Some true)
              (Jsonx.bool (Jsonx.member "queued" h));
            let warmed () =
              let stat, _ = rpc c (Jsonx.Obj [ ("op", Jsonx.Str "stat") ]) in
              (Option.bind (Jsonx.member "proxy" stat) (Jsonx.member "warming")
              |> fun w -> Jsonx.int (Option.bind w (Jsonx.member "warmed")))
              = Some 1
              && Option.value ~default:[]
                   (Jsonx.list (Jsonx.member "shards" stat))
                 |> List.for_all (fun s ->
                        let w =
                          Option.bind (Jsonx.member "stat" s)
                            (Jsonx.member "warming")
                        in
                        Jsonx.int (Option.bind w (Jsonx.member "queued"))
                        = Some 0
                        && Jsonx.bool (Option.bind w (Jsonx.member "busy"))
                           = Some false)
            in
            let deadline = Unix.gettimeofday () +. 60.0 in
            while (not (warmed ())) && Unix.gettimeofday () < deadline do
              Thread.delay 0.05
            done;
            Alcotest.(check bool) "warming drained" true (warmed ());
            let h, p = rpc c (advf_req "m_elemBC") in
            (match served h with
            | Some ("memory-hit" | "disk-hit") -> ()
            | s ->
              Alcotest.failf "query after warm not a hit: %s"
                (Option.value ~default:"?" s));
            Alcotest.(check (option string))
              "warmed bytes" (Some (direct_payload "m_elemBC")) p));
  ]

let suite =
  [
    ("cluster.ring", ring_tests);
    ("cluster.routing", routing_tests);
    ("cluster.proxy", cluster_tests);
    ( "cluster.chaos",
      Test_serving.harness_tests
        ~target:(fun () -> Moard_cluster.Harness.cluster ())
        ~ci_width:0.2 (11, 1234) );
  ]
