(* The serving core that the daemon and the cluster proxy share, checked
   once and run against both: the request envelope over a live socket,
   and the chaos harness on its two targets. *)

module Daemon = Moard_server.Daemon
module Ops = Moard_server.Ops
module Client = Moard_server.Client
module Jsonx = Moard_server.Jsonx
module Protocol = Moard_server.Protocol
module Context = Moard_inject.Context
module Local = Moard_cluster.Local
module Harness = Moard_cluster.Harness

let temp_name prefix suffix =
  let path = Filename.temp_file prefix suffix in
  Sys.remove path;
  path

(* ---------------------------------------------------------------- *)
(* The request envelope *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let mm op fields =
  Jsonx.Obj (("op", Jsonx.Str op) :: ("benchmark", Jsonx.Str "MM") :: fields)

(* A field present with the wrong type is a bad request that names the
   field, never a quiet default. Each case is rejected before any
   compute. *)
let typed_field_cases =
  [
    ("k", mm "advf" [ ("object", Jsonx.Str "C"); ("k", Jsonx.Str "7") ]);
    ( "seed",
      mm "campaign"
        [ ("objects", Jsonx.Arr [ Jsonx.Str "C" ]); ("seed", Jsonx.Float 4.5) ]
    );
    ( "objects",
      mm "campaign" [ ("objects", Jsonx.Str "C"); ("seed", Jsonx.Str "7") ] );
    ( "sizes",
      mm "predict" [ ("object", Jsonx.Str "C"); ("sizes", Jsonx.Str "4,5") ] );
    ( "error_model",
      mm "advf" [ ("object", Jsonx.Str "C"); ("error_model", Jsonx.Int 3) ] );
  ]

let check_typed_fields answer =
  List.iter
    (fun (field, req) ->
      match Client.error_of (fst (answer req)) with
      | Some ("bad-request", msg) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: the error names the field (%s)" field msg)
          true
          (contains ~sub:(Printf.sprintf "%S" field) msg)
      | Some (code, msg) ->
        Alcotest.failf "%s: expected bad-request, got %s: %s" field code msg
      | None -> Alcotest.failf "%s: a mistyped field was answered ok" field)
    typed_field_cases

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
    ];
  check_typed_fields (fun req -> Client.rpc ~timeout_s:30. ~socket req)

(* A one-worker daemon on a fresh socket and store, stopped after [f]. *)
let with_daemon f =
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
  Fun.protect ~finally:(fun () -> Daemon.stop d) (fun () -> f socket)

let envelope_tests =
  [
    Alcotest.test_case "daemon" `Quick (fun () ->
        with_daemon (envelope_checks ~role:None));
    Alcotest.test_case "cluster proxy" `Quick (fun () ->
        let c =
          Local.start ~root:(temp_name "moard_test_cluster" "") ~shards:2 ()
        in
        Fun.protect
          ~finally:(fun () -> Local.stop c)
          (fun () -> envelope_checks ~role:(Some "proxy") (Local.socket c)));
  ]

(* ---------------------------------------------------------------- *)
(* The op table in-process: the offline answer is the served answer *)

(* The frame fields Protocol.send adds on the wire, and the cache status,
   which legitimately differs between a fresh offline environment and a
   daemon's store. *)
let comparable = function
  | Jsonx.Obj fields ->
    Jsonx.Obj
      (List.filter
         (fun (k, _) ->
           not
             (List.mem k
                [ "served"; "cached"; "payload_bytes"; "payload_fnv" ]))
         fields)
  | h -> h

let ops_tests =
  [
    Alcotest.test_case "mistyped fields are bad requests offline too" `Quick
      (fun () -> check_typed_fields (Ops.answer (Ops.offline ())));
    Alcotest.test_case "offline answer equals the served answer, header \
                        included" `Slow (fun () ->
        let requests =
          [
            mm "advf"
              [ ("object", Jsonx.Str "C"); ("fi_budget", Jsonx.Int 30) ];
            mm "campaign" [ ("ci_width", Jsonx.Float 0.2) ];
            mm "predict"
              [
                ("object", Jsonx.Str "C");
                ("sizes", Jsonx.Arr [ Jsonx.Int 4; Jsonx.Int 5 ]);
                ("target", Jsonx.Int 6);
              ];
            mm "advise" [];
          ]
        in
        let env = Ops.offline () in
        let offline = List.map (Ops.answer env) requests in
        let served =
          with_daemon (fun socket -> List.map (Client.rpc ~socket) requests)
        in
        List.iter2
          (fun (oh, op) (sh, sp) ->
            let what = Jsonx.to_string oh in
            Alcotest.(check (option string))
              (what ^ ": offline is computed") (Some "computed")
              (Jsonx.str (Jsonx.member "served" oh));
            Alcotest.(check (option string))
              (what ^ ": served is ok") None
              (Option.map fst (Client.error_of sh));
            Alcotest.(check string)
              (what ^ ": same header")
              (Jsonx.to_string (comparable sh))
              (Jsonx.to_string (comparable oh));
            Alcotest.(check (option string)) (what ^ ": same payload") sp op)
          offline served);
    Alcotest.test_case "one offline environment, one golden run per \
                        benchmark" `Quick (fun () ->
        let env = Ops.offline () in
        let advf budget =
          Ops.answer env
            (mm "advf"
               [ ("object", Jsonx.Str "C"); ("fi_budget", Jsonx.Float budget) ])
        in
        let before = Context.golden_executions () in
        let h30, p30 = advf 30. in
        let h31, _ = advf 31. in
        Alcotest.(check int) "two requests, one golden execution" 1
          (Context.golden_executions () - before);
        Alcotest.(check (option string)) "fi_budget 31.0 is ok" None
          (Option.map fst (Client.error_of h31));
        (* an integral float reads as the integer: same key, same bytes *)
        let h, p =
          Ops.answer env
            (mm "advf"
               [ ("object", Jsonx.Str "C"); ("fi_budget", Jsonx.Int 30) ])
        in
        Alcotest.(check (option string)) "30.0 and 30 share a key"
          (Jsonx.str (Jsonx.member "key" h30))
          (Jsonx.str (Jsonx.member "key" h));
        Alcotest.(check (option string)) "same payload" p30 p);
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

let suite =
  [ ("serving.envelope", envelope_tests); ("serving.ops", ops_tests) ]
