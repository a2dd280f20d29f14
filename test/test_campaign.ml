(* The campaign engine's reproducibility contract (PR: campaign engine).

   Everything here checks one clause of the same guarantee: a campaign is
   a deterministic function of (seed, plan). The sampling order, the
   journal, every count and interval in the report must be bit-identical
   whether the batches run on 1 domain or N, and whether the campaign ran
   uninterrupted or was killed and resumed any number of times. *)

module Registry = Moard_kernels.Registry
module Context = Moard_inject.Context
module Rng = Moard_chaos.Rng
module Population = Moard_campaign.Population
module Plan = Moard_campaign.Plan
module Journal = Moard_campaign.Journal
module Engine = Moard_campaign.Engine
module Report = Moard_report.Campaign_report

(* One golden run per benchmark for the whole suite. *)
let ctx_cache : (string, Context.t) Hashtbl.t = Hashtbl.create 8

let ctx_of bench =
  match Hashtbl.find_opt ctx_cache bench with
  | Some c -> c
  | None ->
    let e = Registry.find bench in
    let c = Context.make (e.Registry.workload ()) in
    Hashtbl.replace ctx_cache bench c;
    c

let tmp_journal () = Filename.temp_file "moard_test_campaign" ".journal"

(* LULESH/m_elemBC: tiny population (640) with real equivalence classes,
   so both the memo path and the exhaustion path get exercised. *)
let small_plan ?(ci_width = 0.05) ?(batch = 37) () =
  let ctx = ctx_of "LULESH" in
  (ctx, Plan.make ~seed:7 ~ci_width ~batch ctx ~objects:[ "m_elemBC" ])

(* ---------------------------------------------------------------- *)
(* SplitMix64 streams. The exact values pin every frozen sampling order
   (and chaos plan) to the stream they were drawn from. *)

let splitmix_tests =
  [
    Alcotest.test_case "of_path streams are reproducible and distinct"
      `Quick (fun () ->
        let a = Rng.of_path ~seed:42 [ 1; 2 ]
        and a' = Rng.of_path ~seed:42 [ 1; 2 ]
        and b = Rng.of_path ~seed:42 [ 2; 1 ]
        and c = Rng.of_path ~seed:43 [ 1; 2 ] in
        let seq g = List.init 8 (fun _ -> Rng.next g) in
        let sa = seq a in
        Alcotest.(check (list int64)) "same (seed, path) => same stream" sa
          (seq a');
        Alcotest.(check (list int64)) "pinned draws"
          [ -5734385514800010019L; -1751492105291537303L;
            4504917968839922139L; 7012622223093233661L ]
          (List.filteri (fun i _ -> i < 4) sa);
        Alcotest.(check bool) "path order matters" false (sa = seq b);
        Alcotest.(check bool) "seed matters" false (sa = seq c));
    Alcotest.test_case "next_int is in range" `Quick (fun () ->
        let pinned = Rng.make 9 in
        Alcotest.(check (list int)) "pinned draws"
          [ 0; 0; 2; 0; 1; 1; 2; 5; 7; 3 ]
          (List.init 10 (fun i -> Rng.next_int pinned (i + 1)));
        let g = Rng.make 9 in
        for bound = 1 to 100 do
          let x = Rng.next_int g bound in
          if x < 0 || x >= bound then
            Alcotest.failf "next_int %d gave %d" bound x
        done);
    Alcotest.test_case "shuffle is a permutation" `Quick (fun () ->
        let pinned = Array.init 16 Fun.id in
        Rng.shuffle (Rng.make 1) pinned;
        Alcotest.(check (array int)) "pinned order"
          [| 13; 15; 5; 9; 0; 3; 1; 10; 4; 8; 6; 11; 12; 14; 7; 2 |]
          pinned;
        let a = Array.init 257 Fun.id in
        Rng.shuffle (Rng.make 1) a;
        let b = Array.copy a in
        Array.sort compare b;
        Alcotest.(check (array int)) "sorted back to identity"
          (Array.init 257 Fun.id) b;
        Alcotest.(check bool) "actually shuffled" false
          (a = Array.init 257 Fun.id));
  ]

(* ---------------------------------------------------------------- *)
(* Population and stratification *)

let population_tests =
  [
    Alcotest.test_case "encode/decode roundtrip" `Quick (fun () ->
        List.iter
          (fun (s, b) ->
            Alcotest.(check (pair int int))
              "roundtrip" (s, b)
              (Population.decode (Population.encode ~site:s ~bit:b)))
          [ (0, 0); (1, 63); (12345, 31); (0, 1) ]);
    Alcotest.test_case "bit_class splits an f64 word as documented" `Quick
      (fun () ->
        let open Moard_bits.Bitval in
        Alcotest.(check int) "63 is sign" 0 (Population.bit_class W64 63);
        Alcotest.(check int) "62 is exponent" 1 (Population.bit_class W64 62);
        Alcotest.(check int) "52 is exponent" 1 (Population.bit_class W64 52);
        Alcotest.(check int) "51 is mantissa-hi" 2
          (Population.bit_class W64 51);
        Alcotest.(check int) "26 is mantissa-hi" 2
          (Population.bit_class W64 26);
        Alcotest.(check int) "25 is mantissa-lo" 3
          (Population.bit_class W64 25);
        Alcotest.(check int) "0 is mantissa-lo" 3 (Population.bit_class W64 0));
    Alcotest.test_case "strata partition the population" `Quick (fun () ->
        let ctx = ctx_of "LULESH" in
        let p =
          Population.of_tape
            ~segment:(Context.segment ctx)
            (Context.tape ctx)
            (Context.object_of ctx "m_elemBC")
            ~object_name:"m_elemBC"
        in
        let sum =
          Array.fold_left (fun a m -> a + Array.length m) 0 p.Population.members
        in
        Alcotest.(check int) "members cover total" p.Population.total sum;
        let seen = Hashtbl.create 97 in
        Array.iter
          (Array.iter (fun e ->
               if Hashtbl.mem seen e then Alcotest.fail "duplicate member";
               Hashtbl.add seen e ()))
          p.Population.members);
  ]

(* ---------------------------------------------------------------- *)
(* Allocation properties *)

let allocation_props =
  let open QCheck in
  let remaining_gen =
    make
      ~print:Print.(pair int (list int))
      Gen.(
        pair (int_range 0 500)
          (list_size (int_range 1 12) (int_range 0 200)))
  in
  [
    Test.make ~count:300
      ~name:"allocate sums to min(budget, total) and respects populations"
      remaining_gen
      (fun (budget, remaining) ->
        let remaining = Array.of_list remaining in
        let total = Array.fold_left ( + ) 0 remaining in
        let a = Plan.allocate ~budget remaining in
        Array.length a = Array.length remaining
        && Array.fold_left ( + ) 0 a = min budget total
        && Array.for_all2 (fun x r -> x >= 0 && x <= r) a remaining);
    Test.make ~count:100 ~name:"allocate is deterministic" remaining_gen
      (fun (budget, remaining) ->
        let remaining = Array.of_list remaining in
        Plan.allocate ~budget remaining = Plan.allocate ~budget remaining);
  ]

(* ---------------------------------------------------------------- *)
(* Plan determinism *)

let plan_tests =
  [
    Alcotest.test_case "plan hash is stable and seed-sensitive" `Quick
      (fun () ->
        let ctx = ctx_of "LULESH" in
        let p seed = Plan.make ~seed ctx ~objects:[ "m_elemBC" ] in
        Alcotest.(check string) "same seed, same hash"
          (Plan.hash (p 7)) (Plan.hash (p 7));
        Alcotest.(check bool) "different seed, different hash" false
          (Plan.hash (p 7) = Plan.hash (p 8)));
    Alcotest.test_case "sampling order is a permutation of each stratum"
      `Quick (fun () ->
        let _, plan = small_plan () in
        Array.iter
          (fun (o : Plan.objective) ->
            Array.iter
              (fun (s : Plan.stratum) ->
                let sorted = Array.copy s.Plan.order in
                Array.sort compare sorted;
                Alcotest.(check (array int))
                  ("order of " ^ s.Plan.label)
                  (Array.init s.Plan.population Fun.id)
                  sorted)
              o.Plan.strata)
          plan.Plan.objectives);
    Alcotest.test_case "plan rejects unknown objects and bad confidence"
      `Quick (fun () ->
        let ctx = ctx_of "LULESH" in
        (match Plan.make ctx ~objects:[ "nope" ] with
        | (_ : Plan.t) -> Alcotest.fail "unknown object accepted"
        | exception (Invalid_argument _ | Not_found | Failure _) -> ());
        (try
           ignore (Plan.make ~confidence:0.42 ctx ~objects:[ "m_elemBC" ]);
           Alcotest.fail "confidence 0.42 accepted"
         with Invalid_argument _ -> ()));
  ]

(* ---------------------------------------------------------------- *)
(* Engine determinism across domain counts *)

let stable r = Report.stable_json r

let engine_tests =
  [
    Alcotest.test_case "domains=1 and domains=3 are bit-identical" `Slow
      (fun () ->
        let ctx, plan = small_plan () in
        let r1 = Engine.run ~domains:1 ctx plan in
        let r3 = Engine.run ~domains:3 ctx plan in
        Alcotest.(check string) "stable reports equal" (stable r1) (stable r3));
    Alcotest.test_case "cache hits count as resolved samples" `Quick
      (fun () ->
        (* m_elemBC has large equivalence classes (exhaustive: 96 runs for
           640 injections), so a full sweep must show hits. *)
        let ctx = ctx_of "LULESH" in
        let plan =
          Plan.make ~seed:7 ~ci_width:0.001 ctx ~objects:[ "m_elemBC" ]
        in
        let r = Engine.run ctx plan in
        let o = r.Engine.objects.(0) in
        Alcotest.(check int) "samples = runs + hits" o.Engine.samples
          (o.Engine.runs + o.Engine.cache_hits);
        Alcotest.(check bool) "equivalence classes were deduplicated" true
          (o.Engine.cache_hits > 0);
        Alcotest.(check bool) "exhausted population" true
          (o.Engine.stopped = Engine.Exhausted);
        Alcotest.(check int) "sampled whole population" o.Engine.population
          o.Engine.samples);
    Alcotest.test_case "stopping: ci target needs fewer samples than \
                        exhaustion" `Quick (fun () ->
        let ctx = ctx_of "PF" in
        let plan = Plan.make ~seed:3 ~ci_width:0.05 ctx ~objects:[ "xe" ] in
        let r = Engine.run ctx plan in
        let o = r.Engine.objects.(0) in
        Alcotest.(check bool) "stopped on ci-target" true
          (o.Engine.stopped = Engine.Ci_target);
        Alcotest.(check bool) "strictly fewer samples than population" true
          (o.Engine.samples < o.Engine.population);
        Alcotest.(check bool) "interval reached the target" true
          (o.Engine.halfwidth <= 0.05));
  ]

(* ---------------------------------------------------------------- *)
(* Journal: crash, resume, rejection *)

let run_to_string path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let journal_tests =
  [
    Alcotest.test_case "kill mid-run + resume = uninterrupted report" `Slow
      (fun () ->
        let ctx, plan = small_plan () in
        let straight = Engine.run ctx plan in
        let path = tmp_journal () in
        (* Bounded-step harness: stop after one batch, exactly as a kill
           between batches would leave the journal. *)
        let partial = Engine.run ~journal:path ~max_batches:1 ctx plan in
        Alcotest.(check bool) "harness really interrupted" true
          (partial.Engine.objects.(0).Engine.stopped = Engine.Interrupted);
        let resumed = Engine.resume ~domains:2 ~journal:path ctx plan in
        Alcotest.(check string) "resume completes to the same bytes"
          (stable straight) (stable resumed);
        (* Resume of a finished journal replays to the same state too. *)
        let again = Engine.resume ~journal:path ctx plan in
        Alcotest.(check string) "idempotent" (stable straight) (stable again);
        Sys.remove path);
    Alcotest.test_case "torn tail (kill mid-batch) is dropped on resume"
      `Slow (fun () ->
        let ctx, plan = small_plan () in
        let straight = Engine.run ctx plan in
        let path = tmp_journal () in
        ignore (Engine.run ~journal:path ~max_batches:2 ctx plan);
        (* Simulate a crash mid-write: append uncommitted sample lines and
           a final torn (unterminated) line. *)
        let oc = open_out_gen [ Open_append ] 0o644 path in
        output_string oc "S 0 0 9999 2\nS 0 1 9999 0\nC 0";
        close_out oc;
        let resumed = Engine.resume ~journal:path ctx plan in
        Alcotest.(check string) "uncommitted tail ignored" (stable straight)
          (stable resumed);
        Sys.remove path);
    Alcotest.test_case "journal bound to plan hash and schema version"
      `Quick (fun () ->
        let ctx, plan = small_plan () in
        let path = tmp_journal () in
        ignore (Engine.run ~journal:path ~max_batches:1 ctx plan);
        let other = Plan.make ~seed:8 ctx ~objects:[ "m_elemBC" ] in
        (try
           ignore (Engine.resume ~journal:path ctx other);
           Alcotest.fail "foreign plan accepted"
         with Journal.Rejected _ -> ());
        (* Corrupt the version line (first line of the file). *)
        let contents = run_to_string path in
        let nl = String.index contents '\n' in
        let oc = open_out path in
        output_string oc "moard-campaign-journal 99";
        output_string oc
          (String.sub contents nl (String.length contents - nl));
        close_out oc;
        (try
           ignore (Engine.resume ~journal:path ctx plan);
           Alcotest.fail "wrong schema version accepted"
         with Journal.Rejected _ -> ());
        Sys.remove path);
    Alcotest.test_case "records contradicting the plan are rejected" `Quick
      (fun () ->
        let ctx, plan = small_plan () in
        let path = tmp_journal () in
        ignore (Engine.run ~journal:path ~max_batches:1 ctx plan);
        (* A committed batch whose sample index skips ahead cannot come
           from this plan's deterministic schedule — even with a valid
           batch checksum, replay must reject it. *)
        let body = "S 0 0 9999 2\n" in
        let oc = open_out_gen [ Open_append ] 0o644 path in
        output_string oc
          (body ^ Printf.sprintf "C 0 1 %s\n" (Moard_chaos.Fnv.hex body));
        close_out oc;
        (try
           ignore (Engine.resume ~journal:path ctx plan);
           Alcotest.fail "out-of-order record accepted"
         with Journal.Rejected _ -> ());
        Sys.remove path);
    Alcotest.test_case "report-only replay (max_batches 0) injects nothing"
      `Quick (fun () ->
        let ctx, plan = small_plan () in
        let path = tmp_journal () in
        let partial = Engine.run ~journal:path ~max_batches:1 ctx plan in
        let replayed = Engine.resume ~max_batches:0 ~journal:path ctx plan in
        Alcotest.(check string) "replay matches the interrupted state"
          (stable partial) (stable replayed);
        Alcotest.(check int) "no new executions during replay" 0
          (Array.fold_left ( + ) 0
             replayed.Engine.perf.Engine.per_domain_runs);
        Sys.remove path);
    Alcotest.test_case "fsck verifies a healthy journal" `Quick (fun () ->
        let ctx, plan = small_plan () in
        let path = tmp_journal () in
        ignore (Engine.run ~journal:path ctx plan);
        let r = Journal.fsck ~path () in
        Alcotest.(check bool) "header ok" true r.Journal.header_ok;
        Alcotest.(check (option string))
          "bound to the plan" (Some (Plan.hash plan)) r.Journal.plan_hash;
        Alcotest.(check bool) "has batches" true (r.Journal.batches > 0);
        Alcotest.(check bool) "has records" true
          (r.Journal.records >= r.Journal.batches);
        Alcotest.(check bool) "no torn tail" false r.Journal.torn_tail;
        Alcotest.(check (option int)) "no bad line" None r.Journal.bad_line;
        Sys.remove path);
    Alcotest.test_case "a bit flipped in a committed batch is detected, \
                        and resume recomputes to the same bytes" `Slow
      (fun () ->
        let ctx, plan = small_plan () in
        let straight = Engine.run ctx plan in
        let path = tmp_journal () in
        ignore (Engine.run ~journal:path ctx plan);
        let before = Journal.fsck ~path () in
        (* flip one digit inside the first committed sample line: without
           the per-batch checksum this would still parse as a valid (but
           different) sample and silently poison the replay *)
        let contents = run_to_string path in
        let rec find_s i =
          match String.index_from contents i '\n' with
          | exception Not_found -> Alcotest.fail "no sample line"
          | nl when nl + 1 < String.length contents && contents.[nl + 1] = 'S'
            ->
            nl + 3
          | nl -> find_s (nl + 1)
        in
        let pos = find_s 0 in
        let b = Bytes.of_string contents in
        Bytes.set b pos (if Bytes.get b pos = '0' then '1' else '0');
        let oc = open_out_bin path in
        output_bytes oc b;
        close_out oc;
        let after = Journal.fsck ~path () in
        Alcotest.(check bool) "fsck pinpoints the damage" true
          (after.Journal.bad_line <> None);
        Alcotest.(check bool) "only the prefix is trusted" true
          (after.Journal.batches < before.Journal.batches);
        (* resume replays the trusted prefix and recomputes the rest:
           detection costs work, never correctness *)
        let resumed = Engine.resume ~journal:path ctx plan in
        Alcotest.(check string) "same bytes as an undamaged run"
          (stable straight) (stable resumed);
        Sys.remove path);
  ]

(* ---------------------------------------------------------------- *)
(* Golden snapshot: the exact bytes the CI smoke job diffs.
   Regenerate with:
     dune exec bin/moard_cli.exe -- campaign run LULESH -o m_elemBC \
       --seed 42 --ci-width 0.02 --stable --out test/golden_campaign.expected *)

let golden_tests =
  [
    Alcotest.test_case "stable report matches the checked-in snapshot"
      `Quick (fun () ->
        let path =
          List.find Sys.file_exists
            [
              "golden_campaign.expected"; "test/golden_campaign.expected";
              Filename.concat
                (Filename.dirname Sys.executable_name)
                "golden_campaign.expected";
            ]
        in
        let expected = run_to_string path in
        let ctx = ctx_of "LULESH" in
        let plan =
          Plan.make ~seed:42 ~ci_width:0.02 ctx ~objects:[ "m_elemBC" ]
        in
        let r = Engine.run ~domains:2 ctx plan in
        Alcotest.(check string) "bytes" expected (stable r));
  ]

let suite =
  [
    ("campaign.splitmix", splitmix_tests);
    ("campaign.population", population_tests);
    ( "campaign.allocation",
      List.map QCheck_alcotest.to_alcotest allocation_props );
    ("campaign.plan", plan_tests);
    ("campaign.engine", engine_tests);
    ("campaign.journal", journal_tests);
    ("campaign.golden", golden_tests);
  ]
