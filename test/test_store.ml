(* The content-addressed result store (PR: moardd).

   The contract under test: a stored payload is served byte-identical to
   a direct computation; a corrupted record is detected, healed and
   recomputed to the same bytes; the LRU respects its bounds; and gc
   never deletes a key that a live handle has touched. *)

module Record = Moard_store.Record
module Lru = Moard_store.Lru
module Key = Moard_store.Key
module Store = Moard_store.Store
module Query = Moard_store.Query
module Registry = Moard_kernels.Registry
module Context = Moard_inject.Context
module Model = Moard_core.Model
module Plan = Moard_campaign.Plan
module Engine = Moard_campaign.Engine

let tmp_store_dir () =
  let d = Filename.temp_file "moard_test_store" "" in
  Sys.remove d;
  d

(* One golden run for the whole suite (shards are cheap, Context.make is
   not). *)
let ctx_cache = ref None

let ctx () =
  match !ctx_cache with
  | Some c -> c
  | None ->
    let e = Registry.find "LULESH" in
    let c = Context.make (e.Registry.workload ()) in
    ctx_cache := Some c;
    c

let program () =
  let e = Registry.find "LULESH" in
  (e.Registry.workload ()).Moard_inject.Workload.program

let obj = "m_elemBC"

(* The store's on-disk layout, replicated so tests can corrupt entries. *)
let entry_path dir key =
  let hex = Key.to_hex key in
  Filename.concat dir
    (Filename.concat "objects"
       (Filename.concat (String.sub hex 0 2) (hex ^ ".rec")))

let flip_byte path pos =
  let ic = open_in_bin path in
  let image = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string image in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

(* ---------------------------------------------------------------- *)
(* Record codec *)

let corruption = Alcotest.testable (Fmt.of_to_string Record.corruption_name) ( = )

let check_decode what expected image =
  match (Record.decode image, expected) with
  | Ok (k, p), Ok (k', p') ->
    Alcotest.(check bool) (what ^ " kind") true (k = k');
    Alcotest.(check string) (what ^ " payload") p' p
  | Error c, Error c' -> Alcotest.check corruption what c' c
  | Ok _, Error c ->
    Alcotest.failf "%s: decoded, expected %s" what (Record.corruption_name c)
  | Error c, Ok _ ->
    Alcotest.failf "%s: got %s, expected a payload" what
      (Record.corruption_name c)

let flip_byte_s image pos =
  let b = Bytes.of_string image in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  Bytes.to_string b

let record_tests =
  [
    Alcotest.test_case "roundtrip for every kind and the empty payload"
      `Quick (fun () ->
        List.iter
          (fun kind ->
            List.iter
              (fun payload ->
                check_decode "roundtrip"
                  (Ok (kind, payload))
                  (Record.encode ~kind payload))
              [ ""; "x"; String.init 4096 (fun i -> Char.chr (i land 0xff)) ])
          [ Record.Advf; Record.Campaign; Record.Tape ]);
    Alcotest.test_case "every header field is verified" `Quick (fun () ->
        let image = Record.encode ~kind:Record.Advf "the payload" in
        let mut pos = flip_byte_s image pos in
        check_decode "bad magic" (Error Record.Bad_magic) (mut 0);
        check_decode "truncated"
          (Error
             (Record.Truncated
                {
                  expected = String.length image;
                  got = String.length image - 3;
                }))
          (String.sub image 0 (String.length image - 3));
        check_decode "payload bit flip" (Error Record.Checksum_mismatch)
          (mut (String.length image - 1));
        check_decode "checksum bit flip" (Error Record.Checksum_mismatch)
          (mut (Record.header_bytes - 1));
        match Record.decode (mut 8) with
        | Error (Record.Bad_version _) -> ()
        | _ -> Alcotest.fail "version byte not verified");
    Alcotest.test_case "decode_expect rejects the wrong kind" `Quick (fun () ->
        let image = Record.encode ~kind:Record.Advf "p" in
        (match Record.decode_expect ~kind:Record.Campaign image with
        | Error
            (Record.Kind_mismatch
               { expected = Record.Campaign; got = Record.Advf }) ->
          ()
        | _ -> Alcotest.fail "kind mismatch not detected");
        match Record.decode_expect ~kind:Record.Advf image with
        | Ok "p" -> ()
        | _ -> Alcotest.fail "right kind rejected");
    Alcotest.test_case "fnv1a64 matches the published test vectors" `Quick
      (fun () ->
        Alcotest.(check string)
          "empty" "cbf29ce484222325"
          (Record.fnv1a64_hex "");
        Alcotest.(check string) "a" "af63dc4c8601ec8c" (Record.fnv1a64_hex "a");
        Alcotest.(check string)
          "foobar" "85944171f73967e8"
          (Record.fnv1a64_hex "foobar"));
  ]

(* ---------------------------------------------------------------- *)
(* LRU *)

let lru_tests =
  [
    Alcotest.test_case "entry bound evicts the least recently used" `Quick
      (fun () ->
        let l = Lru.create ~max_entries:3 ~max_bytes:1_000_000 in
        List.iter (fun k -> Lru.add l k k) [ "a"; "b"; "c" ];
        ignore (Lru.find l "a");
        (* recency now b < c < a *)
        Lru.add l "d" "d";
        Alcotest.(check bool) "b evicted" false (Lru.mem l "b");
        Alcotest.(check bool) "a promoted by find" true (Lru.mem l "a");
        Alcotest.(check int) "bounded" 3 (Lru.length l);
        Alcotest.(check int) "evictions counted" 1 (Lru.evictions l));
    Alcotest.test_case "byte bound evicts until the new entry fits" `Quick
      (fun () ->
        let l = Lru.create ~max_entries:100 ~max_bytes:10 in
        Lru.add l "a" "aaaa";
        Lru.add l "b" "bbbb";
        Lru.add l "c" "cccc";
        Alcotest.(check bool) "a evicted" false (Lru.mem l "a");
        Alcotest.(check bool) "within bound" true (Lru.bytes l <= 10));
    Alcotest.test_case "oversized payloads are not admitted" `Quick (fun () ->
        let l = Lru.create ~max_entries:4 ~max_bytes:8 in
        Lru.add l "small" "1234";
        Lru.add l "big" (String.make 64 'x');
        Alcotest.(check bool) "big absent" false (Lru.mem l "big");
        Alcotest.(check bool) "small survives" true (Lru.mem l "small"));
    Alcotest.test_case "replace updates bytes, not entry count" `Quick
      (fun () ->
        let l = Lru.create ~max_entries:4 ~max_bytes:100 in
        Lru.add l "k" "1234";
        Lru.add l "k" "123456";
        Alcotest.(check int) "one entry" 1 (Lru.length l);
        Alcotest.(check int) "new size" 6 (Lru.bytes l));
  ]

(* ---------------------------------------------------------------- *)
(* Keys *)

let key_tests =
  [
    Alcotest.test_case "of_parts is stable and order-sensitive" `Quick
      (fun () ->
        let k = Key.of_parts [ ("a", "1"); ("b", "2") ] in
        Alcotest.(check string)
          "stable" (Key.to_hex k)
          (Key.to_hex (Key.of_parts [ ("a", "1"); ("b", "2") ]));
        Alcotest.(check bool)
          "value matters" false
          (Key.to_hex k = Key.to_hex (Key.of_parts [ ("a", "1"); ("b", "3") ]));
        Alcotest.(check int) "md5 hex" 32 (String.length (Key.to_hex k)));
    Alcotest.test_case "advf keys separate object and options" `Quick
      (fun () ->
        let p = program () in
        let base = Key.advf ~program:p ~object_name:obj
            ~options:Model.default_options in
        Alcotest.(check string)
          "deterministic" (Key.to_hex base)
          (Key.to_hex
             (Key.advf ~program:p ~object_name:obj
                ~options:Model.default_options));
        let other_obj =
          Key.advf ~program:p ~object_name:"m_delv_zeta"
            ~options:Model.default_options
        in
        let other_k =
          Key.advf ~program:p ~object_name:obj
            ~options:{ Model.default_options with Model.k = 7 }
        in
        Alcotest.(check bool) "object in key" false
          (Key.to_hex base = Key.to_hex other_obj);
        Alcotest.(check bool) "options in key" false
          (Key.to_hex base = Key.to_hex other_k));
    Alcotest.test_case "campaign keys follow the plan hash" `Quick (fun () ->
        let c = ctx () and p = program () in
        let plan seed = Plan.make ~seed ~ci_width:0.05 c ~objects:[ obj ] in
        Alcotest.(check bool)
          "seed changes the key" false
          (Key.to_hex (Key.campaign ~program:p ~plan:(plan 1))
          = Key.to_hex (Key.campaign ~program:p ~plan:(plan 2))));
    (* Generated by golden_keys_gen.exe: a store written before a change
       must still resolve after it. *)
    Alcotest.test_case "registry keys and plan hashes match the snapshot"
      `Quick (fun () ->
        let path =
          List.find Sys.file_exists
            [ "golden_keys.expected"; "test/golden_keys.expected" ]
        in
        let ic = open_in path in
        let text =
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        Alcotest.(check (list string))
          "kind, names, key" (String.split_on_char '\n' (String.trim text))
          (Key_digest.lines ()));
  ]

(* ---------------------------------------------------------------- *)
(* Store *)

let store_tests =
  [
    Alcotest.test_case "put/get roundtrip: memory, then disk on a fresh \
                        handle" `Quick (fun () ->
        let dir = tmp_store_dir () in
        let s = Store.open_store ~dir () in
        let key = Key.of_parts [ ("t", "roundtrip") ] in
        Store.put s ~key ~kind:Record.Advf "payload-bytes";
        (match Store.get s ~key ~kind:Record.Advf with
        | Some ("payload-bytes", Store.Memory) -> ()
        | _ -> Alcotest.fail "expected a memory hit");
        let s2 = Store.open_store ~dir () in
        (match Store.get s2 ~key ~kind:Record.Advf with
        | Some ("payload-bytes", Store.Disk) -> ()
        | _ -> Alcotest.fail "expected a disk hit");
        match Store.get s2 ~key ~kind:Record.Advf with
        | Some ("payload-bytes", Store.Memory) -> ()
        | _ -> Alcotest.fail "disk hit should promote into the LRU");
    Alcotest.test_case "corrupted entries are detected and healed by \
                        deletion" `Quick (fun () ->
        let dir = tmp_store_dir () in
        let s = Store.open_store ~dir () in
        let key = Key.of_parts [ ("t", "corrupt") ] in
        Store.put s ~key ~kind:Record.Advf "precious";
        let path = entry_path dir key in
        flip_byte path (Record.header_bytes);
        let s2 = Store.open_store ~dir () in
        (match Store.lookup s2 ~key ~kind:Record.Advf with
        | Store.Corrupted -> ()
        | _ -> Alcotest.fail "corruption not detected");
        Alcotest.(check bool) "entry deleted" false (Sys.file_exists path);
        Alcotest.(check int) "counted" 1 (Store.stat s2).Store.corrupt);
    Alcotest.test_case "a record of the wrong kind is corruption too" `Quick
      (fun () ->
        let dir = tmp_store_dir () in
        let s = Store.open_store ~dir () in
        let key = Key.of_parts [ ("t", "kind") ] in
        Store.put s ~key ~kind:Record.Tape "tape-bytes";
        let s2 = Store.open_store ~dir () in
        match Store.lookup s2 ~key ~kind:Record.Advf with
        | Store.Corrupted -> ()
        | _ -> Alcotest.fail "kind mismatch not treated as corruption");
    Alcotest.test_case "gc sweeps torn tmp files and cold entries, never a \
                        live key" `Quick (fun () ->
        let dir = tmp_store_dir () in
        let s = Store.open_store ~dir () in
        let live = Key.of_parts [ ("t", "live") ] in
        Store.put s ~key:live ~kind:Record.Advf "live-payload";
        (* a cold entry: written by some other process's handle *)
        let cold = Key.of_parts [ ("t", "cold") ] in
        Store.put (Store.open_store ~dir ()) ~key:cold ~kind:Record.Advf "cold";
        (* a torn write: a stray file under tmp/ *)
        let torn = Filename.concat (Filename.concat dir "tmp") "dead.123.1" in
        let oc = open_out torn in
        output_string oc "half a rec";
        close_out oc;
        (* negative age: everything is "old enough", so only liveness
           protects *)
        let removed = Store.gc s ~max_age_s:(-1.0) () in
        Alcotest.(check int) "torn + cold removed" 2 removed;
        Alcotest.(check bool) "torn gone" false (Sys.file_exists torn);
        Alcotest.(check bool)
          "cold gone" false
          (Sys.file_exists (entry_path dir cold));
        (match Store.get s ~key:live ~kind:Record.Advf with
        | Some ("live-payload", _) -> ()
        | _ -> Alcotest.fail "gc deleted a live key");
        let removed = Store.gc s () in
        Alcotest.(check int) "ageless gc only sweeps tmp" 0 removed);
  ]

(* ---------------------------------------------------------------- *)
(* Query: get-or-compute, byte identity, corruption recompute *)

(* The payload and status of an advf query; its key is checked in the
   corruption test below. *)
let advf_query s =
  let _, p, st =
    Query.advf (Some s) ~ctx ~program:(program ()) ~object_name:obj ()
  in
  (p, st)

let query_tests =
  [
    Alcotest.test_case "advf query: computed once, then served, always the \
                        same bytes" `Quick (fun () ->
        let dir = tmp_store_dir () in
        let s = Store.open_store ~dir () in
        let direct = Query.advf_payload (ctx ()) ~object_name:obj in
        let q () = advf_query s in
        let p1, st1 = q () in
        Alcotest.(check bool) "cold: computed" true (st1 = Query.Computed);
        Alcotest.(check string) "equals a direct computation" direct p1;
        let p2, st2 = q () in
        Alcotest.(check bool) "warm: memory hit" true (st2 = Query.Memory_hit);
        Alcotest.(check string) "identical bytes" p1 p2;
        let s2 = Store.open_store ~dir () in
        let p3, st3 = advf_query s2 in
        Alcotest.(check bool) "fresh handle: disk hit" true
          (st3 = Query.Disk_hit);
        Alcotest.(check string) "identical bytes from disk" p1 p3);
    Alcotest.test_case "a corrupted entry is recomputed to identical bytes"
      `Quick (fun () ->
        let dir = tmp_store_dir () in
        let s = Store.open_store ~dir () in
        let key1, p1, _ =
          Query.advf (Some s) ~ctx ~program:(program ()) ~object_name:obj ()
        in
        let key =
          Key.advf ~program:(program ()) ~object_name:obj
            ~options:Model.default_options
        in
        Alcotest.(check string) "answered under its key" (Key.to_hex key)
          (Key.to_hex key1);
        let path = entry_path dir key in
        flip_byte path (Record.header_bytes + 3);
        let s2 = Store.open_store ~dir () in
        let p2, st = advf_query s2 in
        Alcotest.(check bool) "recomputed (healing)" true
          (st = Query.Recomputed);
        Alcotest.(check string) "identical bytes after healing" p1 p2;
        let p3, st3 = advf_query s2 in
        Alcotest.(check bool) "healed entry serves again" true
          (Query.is_hit st3);
        Alcotest.(check string) "same bytes" p1 p3);
    Alcotest.test_case "campaign query: run, store, serve; interrupted runs \
                        stay un-stored and resume" `Quick (fun () ->
        let dir = tmp_store_dir () in
        let s = Store.open_store ~dir () in
        let c = ctx () and p = program () in
        let plan = Plan.make ~seed:7 ~ci_width:0.05 ~batch:37 c
            ~objects:[ obj ] in
        (* drain immediately: the engine must stop at the first batch
           boundary, leave its journal, and the result must not be
           stored *)
        let _, payload_i, st_i, r_i =
          Query.campaign (Some s) ~should_stop:(fun () -> true)
            ~ctx:(fun () -> c)
            ~program:p ~plan ()
        in
        ignore payload_i;
        Alcotest.(check bool) "interrupted: computed, not served" true
          (st_i = Query.Computed);
        (match r_i with
        | Some r ->
          Alcotest.(check bool) "marked interrupted" true
            (Array.exists
               (fun (o : Engine.object_result) ->
                 o.Engine.stopped = Engine.Interrupted)
               r.Engine.objects)
        | None -> Alcotest.fail "interrupted run must return its result");
        let key = Key.campaign ~program:p ~plan in
        Alcotest.(check bool) "not stored" true
          (Store.get s ~key ~kind:Record.Campaign = None);
        let journal =
          Filename.concat (Store.journal_dir s) (Key.to_hex key ^ ".journal")
        in
        Alcotest.(check bool) "journal left for resume" true
          (Sys.file_exists journal);
        (* next attempt resumes the journal and completes *)
        let _, payload, st, r =
          Query.campaign (Some s) ~ctx:(fun () -> c) ~program:p ~plan ()
        in
        Alcotest.(check bool) "completed: computed" true (st = Query.Computed);
        (match r with
        | Some r ->
          Alcotest.(check string) "payload is the stable report" payload
            (Query.campaign_payload r)
        | None -> Alcotest.fail "completing run must return its result");
        Alcotest.(check bool) "journal cleaned up" false
          (Sys.file_exists journal);
        (* a kill/resume chain is bit-identical to an uninterrupted run *)
        let direct = Query.campaign_payload (Engine.run c plan) in
        Alcotest.(check string) "identical to an uninterrupted run" direct
          payload;
        (* and now it serves from the store, with no engine result *)
        let _, payload2, st2, r2 =
          Query.campaign (Some s) ~ctx:(fun () -> c) ~program:p ~plan ()
        in
        Alcotest.(check bool) "served" true (Query.is_hit st2);
        Alcotest.(check bool) "no recomputation" true (r2 = None);
        Alcotest.(check string) "served bytes" payload payload2);
    Alcotest.test_case "tape query roundtrips the packed golden tape" `Quick
      (fun () ->
        let dir = tmp_store_dir () in
        let s = Store.open_store ~dir () in
        let c = ctx () and p = program () in
        let t1, st1 = Query.tape s ~ctx:(fun () -> c) ~program:p
            ~entry:"main" () in
        Alcotest.(check bool) "cold: computed" true (st1 = Query.Computed);
        let t2, st2 = Query.tape s ~ctx:(fun () -> c) ~program:p
            ~entry:"main" () in
        Alcotest.(check bool) "warm: hit" true (Query.is_hit st2);
        Alcotest.(check int) "same length"
          (Moard_trace.Tape.length t1)
          (Moard_trace.Tape.length t2);
        Alcotest.(check int) "same packed size"
          (Moard_trace.Tape.packed_bytes t1)
          (Moard_trace.Tape.packed_bytes t2));
  ]

let suite =
  [
    ("store.record", record_tests);
    ("store.lru", lru_tests);
    ("store.key", key_tests);
    ("store.store", store_tests);
    ("store.query", query_tests);
  ]
