(* The serving core that the daemon and the cluster proxy share, checked
   once and run against both: the request envelope over a live socket,
   and the chaos harness on its two targets. *)

module Daemon = Moard_server.Daemon
module Client = Moard_server.Client
module Jsonx = Moard_server.Jsonx
module Protocol = Moard_server.Protocol
module Local = Moard_cluster.Local
module Harness = Moard_cluster.Harness

let temp_name prefix suffix =
  let path = Filename.temp_file prefix suffix in
  Sys.remove path;
  path

(* ---------------------------------------------------------------- *)
(* The request envelope *)

(* Every answer here comes from the envelope, before any compute: a
   mismatching checksum is refused, so nothing is queued or computed. *)
let envelope_checks ~role socket =
  let rpc fields = fst (Client.rpc ~timeout_s:30. ~socket (Jsonx.Obj fields)) in
  let code fields = Option.map fst (Client.error_of (rpc fields)) in
  let v = rpc [ ("op", Jsonx.Str "version") ] in
  Alcotest.(check (option string)) "version is ok" None
    (Option.map fst (Client.error_of v));
  Alcotest.(check (option string)) "version role" role
    (Jsonx.str (Jsonx.member "role" v));
  Alcotest.(check (option int)) "version proto" (Some Protocol.version)
    (Jsonx.int (Jsonx.member "proto" v));
  let mm_c op =
    [
      ("op", Jsonx.Str op);
      ("benchmark", Jsonx.Str "MM");
      ("object", Jsonx.Str "C");
      ("req_fnv", Jsonx.Str "0000000000000000");
    ]
  in
  List.iter
    (fun (what, want, fields) ->
      Alcotest.(check (option string)) what (Some want) (code fields))
    [
      ( "proto 99",
        "proto-mismatch",
        [ ("proto", Jsonx.Int 99); ("op", Jsonx.Str "version") ] );
      ("no op", "bad-request", [ ("benchmark", Jsonx.Str "MM") ]);
      ("unknown op", "bad-request", [ ("op", Jsonx.Str "nope") ]);
      ("advf with a wrong req_fnv", "integrity", mm_c "advf");
      ("warm with a wrong req_fnv", "integrity", mm_c "warm");
      ( "warm for an unknown benchmark",
        "bad-request",
        [
          ("op", Jsonx.Str "warm");
          ("benchmark", Jsonx.Str "NOPE");
          ("object", Jsonx.Str "C");
        ] );
    ]

let envelope_tests =
  [
    Alcotest.test_case "daemon" `Quick (fun () ->
        let socket = temp_name "moardd_test" ".sock" in
        let d =
          Daemon.start
            {
              Daemon.default_config with
              Daemon.socket;
              store_dir = temp_name "moard_test_daemon" "";
              workers = 1;
            }
        in
        Fun.protect
          ~finally:(fun () -> Daemon.stop d)
          (fun () -> envelope_checks ~role:None socket));
    Alcotest.test_case "cluster proxy" `Quick (fun () ->
        let c =
          Local.start ~root:(temp_name "moard_test_cluster" "") ~shards:2 ()
        in
        Fun.protect
          ~finally:(fun () -> Local.stop c)
          (fun () -> envelope_checks ~role:(Some "proxy") (Local.socket c)));
  ]

(* ---------------------------------------------------------------- *)
(* The chaos harness, on either target *)

let harness_tests ~target ~ci_width (seed, other_seed) =
  let run seed = Harness.run ~seed ~rounds:1 ~ci_width (target ()) in
  [
    Alcotest.test_case "seeded chaos campaign: deterministic report, \
                        invariant survives" `Slow (fun () ->
        let r1 = run seed in
        let r2 = run seed in
        Alcotest.(check string) "same seed, byte-identical report"
          (Jsonx.to_string (Harness.to_json r1))
          (Jsonx.to_string (Harness.to_json r2));
        Alcotest.(check bool) "no response diverged from baseline" true
          (r1.Harness.diverged = 0);
        Alcotest.(check bool) "no client hung" true (r1.Harness.hung = 0);
        Alcotest.(check bool) "survived" true r1.Harness.survived;
        Alcotest.(check int) "every request accounted for"
          r1.Harness.requests
          (r1.Harness.identical + r1.Harness.ok_dynamic + r1.Harness.partial
          + r1.Harness.transport_failures + r1.Harness.diverged
          + List.fold_left (fun a (_, n) -> a + n) 0 r1.Harness.typed_errors));
    Alcotest.test_case "a different seed draws a different schedule" `Slow
      (fun () ->
        let r1 = run seed in
        let r3 = run other_seed in
        Alcotest.(check bool) "schedules differ" true
          (r1.Harness.schedule_hash <> r3.Harness.schedule_hash);
        Alcotest.(check bool) "still survived" true r3.Harness.survived);
  ]

let suite = [ ("serving.envelope", envelope_tests) ]
