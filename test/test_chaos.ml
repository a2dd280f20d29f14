(* The chaos layer (PR: chaos harness + resilience).

   Bottom up: the seeded per-scope fault plan (deterministic, prefix-
   stable, interleaving-independent), the cancel token and its hooks in
   the analysis paths, the injectable filesystem effects, the store's
   quarantine breaker and fsck, protocol robustness under fuzzed bytes,
   and finally the full harness: same seed, same faults, same survival
   report — and the serving invariant holds. *)

module Chaos = Moard_chaos.Chaos
module Cancel = Moard_chaos.Cancel
module Fx = Moard_chaos.Fx
module Record = Moard_store.Record
module Key = Moard_store.Key
module Store = Moard_store.Store
module Protocol = Moard_server.Protocol
module Jsonx = Moard_server.Jsonx
module Registry = Moard_kernels.Registry
module Context = Moard_inject.Context
module Model = Moard_core.Model

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---------------------------------------------------------------- *)
(* The seeded fault plan *)

let drain plan scope n =
  let log = ref [] in
  for _ = 1 to n do
    match Chaos.draw plan scope with
    | Some f -> log := f :: !log
    | None -> ()
  done;
  List.rev !log

let plan_tests =
  [
    Alcotest.test_case "same seed, same schedule (and hash)" `Quick (fun () ->
        let mk () = Chaos.make ~rates:(fun _ -> 0.3) ~seed:42 () in
        let a = mk () and b = mk () in
        let fa = drain a Chaos.Store_read 200 @ drain a Chaos.Job 100 in
        let fb = drain b Chaos.Store_read 200 @ drain b Chaos.Job 100 in
        Alcotest.(check bool) "faults fired at 0.3 over 300 ops" true
          (List.length fa > 0);
        Alcotest.(check bool) "identical fault sequences" true (fa = fb);
        Alcotest.(check string) "identical schedule hash"
          (Chaos.schedule_hash a) (Chaos.schedule_hash b));
    Alcotest.test_case "per-scope streams are interleaving-independent"
      `Quick (fun () ->
        (* the store-read schedule must not depend on how many job or
           socket operations happened in between *)
        let a = Chaos.make ~rates:(fun _ -> 0.3) ~seed:9 () in
        let b = Chaos.make ~rates:(fun _ -> 0.3) ~seed:9 () in
        let fa = drain a Chaos.Store_read 150 in
        ignore (drain b Chaos.Job 500);
        ignore (drain b Chaos.Sock_recv 77);
        let fb = drain b Chaos.Store_read 150 in
        Alcotest.(check bool) "store-read stream unmoved" true (fa = fb));
    Alcotest.test_case "prefix stability: shorter run = prefix of longer"
      `Quick (fun () ->
        let a = Chaos.make ~rates:(fun _ -> 0.3) ~seed:5 () in
        let b = Chaos.make ~rates:(fun _ -> 0.3) ~seed:5 () in
        let long = drain a Chaos.Sock_send 300 in
        let short = drain b Chaos.Sock_send 120 in
        let rec is_prefix p l =
          match (p, l) with
          | [], _ -> true
          | x :: p', y :: l' -> x = y && is_prefix p' l'
          | _ -> false
        in
        Alcotest.(check bool) "prefix" true (is_prefix short long));
    Alcotest.test_case "different seeds diverge; stats count ops and hits"
      `Quick (fun () ->
        let a = Chaos.make ~rates:(fun _ -> 0.5) ~seed:1 () in
        let b = Chaos.make ~rates:(fun _ -> 0.5) ~seed:2 () in
        ignore (drain a Chaos.Store_write 200);
        ignore (drain b Chaos.Store_write 200);
        Alcotest.(check bool) "hashes differ" true
          (Chaos.schedule_hash a <> Chaos.schedule_hash b);
        let ops, injected =
          List.fold_left
            (fun (o, i) (s, ops, inj) ->
              if s = Chaos.Store_write then (o + ops, i + inj) else (o, i))
            (0, 0) (Chaos.stats a)
        in
        Alcotest.(check int) "every draw is an op" 200 ops;
        Alcotest.(check bool) "roughly half fired" true
          (injected > 50 && injected < 150));
    Alcotest.test_case "rate 0 is silent, disabled scopes never fire" `Quick
      (fun () ->
        let p =
          Chaos.make
            ~rates:(fun s -> if s = Chaos.Job then 1.0 else 0.0)
            ~seed:3 ()
        in
        Alcotest.(check int) "quiet scope" 0
          (List.length (drain p Chaos.Store_read 500));
        Alcotest.(check int) "hot scope fires every op" 64
          (List.length (drain p Chaos.Job 64)));
  ]

(* ---------------------------------------------------------------- *)
(* Cancellation *)

let mm_ctx_cache = ref None

let mm_ctx () =
  match !mm_ctx_cache with
  | Some c -> c
  | None ->
    let e = Registry.find "MM" in
    let c = Context.make (e.Registry.workload ()) in
    mm_ctx_cache := Some c;
    c

let cancel_tests =
  [
    Alcotest.test_case "token semantics: fresh, tripped, expired" `Quick
      (fun () ->
        let c = Cancel.create () in
        Alcotest.(check bool) "fresh" false (Cancel.cancelled c);
        Cancel.check c;
        Cancel.cancel c;
        Alcotest.(check bool) "tripped" true (Cancel.cancelled c);
        (match Cancel.check c with
        | exception Cancel.Cancelled _ -> ()
        | () -> Alcotest.fail "tripped token passed check");
        let d = Cancel.create ~deadline_s:0.005 () in
        Alcotest.(check bool) "not yet expired... probably" true
          (Cancel.remaining_s d <= 0.005);
        Unix.sleepf 0.02;
        Alcotest.(check bool) "expired" true (Cancel.cancelled d);
        Alcotest.(check (float 0.0)) "no time left" 0.0 (Cancel.remaining_s d);
        match Cancel.check d with
        | exception Cancel.Cancelled why ->
          Alcotest.(check string) "names the deadline" "deadline exceeded" why
        | () -> Alcotest.fail "expired token passed check");
    Alcotest.test_case "a tripped token aborts Model.analyze mid-sweep"
      `Quick (fun () ->
        let c = Cancel.create () in
        Cancel.cancel c;
        match Model.analyze ~cancel:c (mm_ctx ()) ~object_name:"C" with
        | exception Cancel.Cancelled _ -> ()
        | _ -> Alcotest.fail "cancelled analysis ran to completion");
    Alcotest.test_case "a tripped token aborts an exhaustive campaign" `Quick
      (fun () ->
        let c = Cancel.create () in
        Cancel.cancel c;
        match
          Moard_inject.Exhaustive.campaign ~cancel:c (mm_ctx ())
            ~object_name:"C"
        with
        | exception Cancel.Cancelled _ -> ()
        | _ -> Alcotest.fail "cancelled campaign ran to completion");
  ]

(* ---------------------------------------------------------------- *)
(* Injectable filesystem effects *)

let tmp_path () =
  let p = Filename.temp_file "moard_test_chaos" "" in
  Sys.remove p;
  p

let content = "The quick brown fox jumps over the lazy dog, twice over."

let fx_tests =
  [
    Alcotest.test_case "passthrough shims really pass through" `Quick
      (fun () ->
        let shims = Chaos.shims (Chaos.make ~rates:(fun _ -> 0.0) ~seed:1 ()) in
        let fx = shims.Chaos.store_fx in
        let p = tmp_path () in
        fx.Fx.write_file p content;
        Alcotest.(check string) "write+read intact" content (fx.Fx.read_file p);
        let q = tmp_path () in
        fx.Fx.rename p q;
        Alcotest.(check bool) "renamed" true
          (Sys.file_exists q && not (Sys.file_exists p));
        fx.Fx.remove q);
    Alcotest.test_case "read faults: flipped bytes or typed errors, never \
                        silence" `Quick (fun () ->
        let shims = Chaos.shims (Chaos.make ~rates:(fun _ -> 1.0) ~seed:7 ()) in
        let fx = shims.Chaos.store_fx in
        let p = tmp_path () in
        Fx.real.Fx.write_file p content;
        let flips = ref 0 and errors = ref 0 in
        for _ = 1 to 40 do
          match fx.Fx.read_file p with
          | s ->
            Alcotest.(check int) "flip keeps the length" (String.length content)
              (String.length s);
            Alcotest.(check bool) "flip changes the bytes" true (s <> content);
            incr flips
          | exception Sys_error _ -> incr errors
        done;
        Alcotest.(check int) "every read faulted" 40 (!flips + !errors);
        Alcotest.(check bool) "both fault kinds appeared" true
          (!flips > 0 && !errors > 0);
        Fx.real.Fx.remove p);
    Alcotest.test_case "write faults: short, dropped or refused — a torn \
                        rename never creates the target" `Quick (fun () ->
        let shims = Chaos.shims (Chaos.make ~rates:(fun _ -> 1.0) ~seed:8 ()) in
        let fx = shims.Chaos.store_fx in
        for i = 1 to 40 do
          let p = tmp_path () in
          (match fx.Fx.write_file p content with
          | () ->
            if Sys.file_exists p then begin
              let got = Fx.real.Fx.read_file p in
              Alcotest.(check bool)
                (Printf.sprintf "short write %d is a strict prefix" i)
                true
                (String.length got < String.length content
                && got = String.sub content 0 (String.length got))
            end (* else: dropped — the write never happened *)
          | exception Sys_error _ -> ());
          if Sys.file_exists p then begin
            let dst = tmp_path () in
            (try fx.Fx.rename p dst with Sys_error _ -> ());
            Alcotest.(check bool)
              (Printf.sprintf "torn rename %d: target never appears" i)
              false (Sys.file_exists dst);
            Fx.real.Fx.remove p
          end
        done);
  ]

(* ---------------------------------------------------------------- *)
(* Store: quarantine breaker and offline fsck *)

let store_entry_path dir key =
  let hex = Key.to_hex key in
  Filename.concat dir
    (Filename.concat "objects"
       (Filename.concat (String.sub hex 0 2) (hex ^ ".rec")))

let flip_file_byte path =
  let image = Fx.real.Fx.read_file path in
  let b = Bytes.of_string image in
  let pos = Bytes.length b - 1 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  Fx.real.Fx.write_file path (Bytes.to_string b)

let tmp_store_dir () =
  let d = Filename.temp_file "moard_test_chaos_store" "" in
  Sys.remove d;
  d

let quarantine_tests =
  [
    Alcotest.test_case "repeated corruption quarantines the record and \
                        breaks the recompute storm" `Quick (fun () ->
        let dir = tmp_store_dir () in
        let st =
          Store.open_store ~lru_entries:0 ~quarantine_after:2 ~dir ()
        in
        let key = Key.of_parts [ ("t", "quarantine") ] in
        let path = store_entry_path dir key in
        (* corruption #1: detected, healed by deletion *)
        Store.put st ~key ~kind:Record.Advf "payload";
        flip_file_byte path;
        Alcotest.(check bool) "corrupt read misses" true
          (Store.get st ~key ~kind:Record.Advf = None);
        Alcotest.(check bool) "healed by deletion" false (Sys.file_exists path);
        (* corruption #2: threshold reached, file parked not deleted *)
        Store.put st ~key ~kind:Record.Advf "payload";
        flip_file_byte path;
        Alcotest.(check bool) "second corrupt read misses" true
          (Store.get st ~key ~kind:Record.Advf = None);
        let parked =
          Filename.concat
            (Filename.concat dir "quarantine")
            (Key.to_hex key ^ ".rec")
        in
        Alcotest.(check bool) "damaged file parked for post-mortem" true
          (Sys.file_exists parked);
        let s = Store.stat st in
        Alcotest.(check int) "quarantined counted once" 1 s.Store.quarantined;
        Alcotest.(check int) "both corruptions counted" 2 s.Store.corrupt;
        (* the breaker: a quarantined key writes no further disk records *)
        Store.put st ~key ~kind:Record.Advf "payload";
        Alcotest.(check bool) "no new disk record" false (Sys.file_exists path);
        (* an unrelated key is unaffected *)
        let other = Key.of_parts [ ("t", "innocent") ] in
        Store.put st ~key:other ~kind:Record.Advf "fine";
        Alcotest.(check bool) "other keys still persist" true
          (Sys.file_exists (store_entry_path dir other)));
    Alcotest.test_case "fsck: decode-verifies every record, optionally \
                        quarantines" `Quick (fun () ->
        let dir = tmp_store_dir () in
        let st = Store.open_store ~lru_entries:0 ~dir () in
        let good = Key.of_parts [ ("t", "good") ] in
        let bad = Key.of_parts [ ("t", "bad") ] in
        Store.put st ~key:good ~kind:Record.Advf "healthy payload";
        Store.put st ~key:bad ~kind:Record.Campaign "doomed payload";
        flip_file_byte (store_entry_path dir bad);
        let r = Store.fsck st in
        Alcotest.(check int) "scanned" 2 r.Store.scanned;
        Alcotest.(check int) "valid" 1 r.Store.valid;
        Alcotest.(check int) "damaged" 1 (List.length r.Store.damaged);
        Alcotest.(check int) "nothing moved without opting in" 0 r.Store.moved;
        Alcotest.(check bool) "damaged file left in place" true
          (Sys.file_exists (store_entry_path dir bad));
        (match r.Store.damaged with
        | [ (hex, _reason) ] ->
          Alcotest.(check string) "names the key" (Key.to_hex bad) hex
        | _ -> Alcotest.fail "expected exactly one damaged entry");
        let r2 = Store.fsck ~quarantine:true st in
        Alcotest.(check int) "moved" 1 r2.Store.moved;
        Alcotest.(check bool) "moved out of objects/" false
          (Sys.file_exists (store_entry_path dir bad));
        Alcotest.(check bool) "into quarantine/" true
          (Sys.file_exists
             (Filename.concat
                (Filename.concat dir "quarantine")
                (Key.to_hex bad ^ ".rec")));
        let r3 = Store.fsck st in
        Alcotest.(check int) "clean after quarantine" 0
          (List.length r3.Store.damaged));
  ]

(* ---------------------------------------------------------------- *)
(* Protocol fuzz: arbitrary bytes must never crash or wedge recv *)

let frame s =
  let n = String.length s in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string s 0 b 4 n;
  Bytes.to_string b

(* One valid header+payload message, as raw wire bytes. *)
let valid_message =
  let header =
    Jsonx.to_string
      (Jsonx.Obj
         [ ("op", Jsonx.Str "x"); ("payload_bytes", Jsonx.Int 11) ])
  in
  frame header ^ frame "payload-xyz"

(* Feed raw bytes to one end of a socketpair, close the writing side,
   and see what recv makes of them. The writer is closed before recv
   runs, so a blocking recv would mean reading past EOF — impossible —
   which is how this also proves "no wedge". *)
let feed bytes =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      if String.length bytes > 0 then
        ignore (Unix.write_substring a bytes 0 (String.length bytes));
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      Protocol.recv b)

let survives bytes =
  match feed bytes with
  | Some _ | None -> true
  | exception Protocol.Protocol_error _ -> true

let fuzz_tests =
  [
    qcheck "recv on random bytes: framed result or Protocol_error"
      QCheck2.Gen.(string_size ~gen:char (int_range 0 64))
      survives;
    qcheck "recv on truncated valid messages"
      QCheck2.Gen.(int_range 0 (String.length valid_message))
      (fun cut -> survives (String.sub valid_message 0 cut));
    qcheck "recv on well-framed garbage headers"
      QCheck2.Gen.(string_size ~gen:char (int_range 0 48))
      (fun junk -> survives (frame junk));
    qcheck ~count:50 "recv on oversized and negative length prefixes"
      QCheck2.Gen.(int_range Int32.(to_int min_int) Int32.(to_int max_int))
      (fun n ->
        let b = Bytes.create 4 in
        Bytes.set_int32_be b 0 (Int32.of_int n);
        survives (Bytes.to_string b ^ "some trailing bytes"));
  ]

let suite =
  [
    ("chaos.plan", plan_tests);
    ("chaos.cancel", cancel_tests);
    ("chaos.fx", fx_tests);
    ("chaos.quarantine", quarantine_tests);
    ("chaos.protocol-fuzz", fuzz_tests);
    ( "chaos.harness",
      Test_serving.harness_tests
        ~target:(fun () -> Moard_cluster.Harness.daemon ())
        ~ci_width:0.05 (5, 1234) );
  ]
