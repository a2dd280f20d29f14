(* The streaming trace pipeline: packed-tape round-trips, cursor windows,
   aDVF accumulation, the golden run shared by parallel analysis, and the
   bit-identity golden snapshot over every Table-I data object. *)

module Tape = Moard_trace.Tape
module Event = Moard_trace.Event
module Registry = Moard_kernels.Registry
module Context = Moard_inject.Context
module Machine = Moard_vm.Machine
module Model = Moard_core.Model
module Advf = Moard_core.Advf
module Verdict = Moard_analysis.Verdict

let traced_registry = Hashtbl.create 16

let trace_of (e : Registry.entry) =
  match Hashtbl.find_opt traced_registry e.Registry.benchmark with
  | Some t -> t
  | None ->
    let w = e.Registry.workload () in
    let m = Machine.load w.Moard_inject.Workload.program in
    let _, tape = Machine.trace m ~entry:w.Moard_inject.Workload.entry in
    Hashtbl.replace traced_registry e.Registry.benchmark tape;
    tape

(* ------------------------------------------------------------------ *)
(* Packed tape                                                         *)

let tape_tests =
  [
    Alcotest.test_case "append round-trips the emit encoding" `Quick
      (fun () ->
        let tape = trace_of (Registry.find "CG") in
        let rebuilt = Tape.create () in
        for i = 0 to min 2000 (Tape.length tape) - 1 do
          Tape.append rebuilt (Tape.get tape i)
        done;
        for i = 0 to Tape.length rebuilt - 1 do
          if Tape.get tape i <> Tape.get rebuilt i then
            Alcotest.failf "event %d differs after re-append" i
        done);
    Alcotest.test_case "field accessors agree with the decoded view" `Quick
      (fun () ->
        let tape = trace_of (Registry.find "LULESH") in
        for i = 0 to Tape.length tape - 1 do
          let e = Tape.get tape i in
          assert (Tape.frame_at tape i = e.Event.frame);
          assert (Moard_ir.Iid.equal (Tape.iid_at tape i) e.Event.iid);
          assert (Tape.instr_at tape i = e.Event.instr);
          assert (Tape.nreads_at tape i = Array.length e.Event.reads);
          assert (Tape.load_addr_at tape i = e.Event.load_addr);
          (match e.Event.write with
          | Event.Wmem { addr; _ } -> assert (Tape.write_addr_at tape i = addr)
          | Event.Wreg _ | Event.Wnone ->
            assert (Tape.write_addr_at tape i = -1));
          Array.iteri
            (fun slot (r : Event.read) ->
              assert (
                Moard_bits.Bitval.equal (Tape.read_value tape i slot) r.value);
              assert (Tape.read_prov tape i slot = r.prov))
            e.Event.reads
        done);
    Alcotest.test_case "golden tapes come back frozen" `Quick (fun () ->
        let tape = trace_of (Registry.find "CG") in
        assert (Tape.is_frozen tape);
        Alcotest.check_raises "emit on frozen"
          (Invalid_argument "Tape.emit: tape is frozen") (fun () ->
            Tape.append tape (Tape.get tape 0)));
    Alcotest.test_case "packed storage is at least 2x smaller than boxed"
      `Quick (fun () ->
        let tape = trace_of (Registry.find "AMG") in
        let packed = Tape.packed_bytes tape in
        let boxed = Tape.boxed_bytes_estimate tape in
        if packed * 2 > boxed then
          Alcotest.failf "packed %d bytes vs boxed %d bytes: less than 2x"
            packed boxed);
  ]

(* ------------------------------------------------------------------ *)
(* Cursor windows vs whole-tape slicing, on every registry kernel      *)

let slice tape lo hi =
  let lo = max 0 (min lo (Tape.length tape)) in
  let hi = max lo (min hi (Tape.length tape)) in
  List.init (hi - lo) (fun i -> Tape.get tape (lo + i))

let windows_of tape =
  let n = Tape.length tape in
  [ (0, n); (0, 1); (n / 3, (n / 3) + 50); (n - 7, n + 25); (-5, 9); (n, n) ]

let cursor_tests =
  List.map
    (fun (e : Registry.entry) ->
      Alcotest.test_case
        (Printf.sprintf "windowed iteration = slicing (%s)"
           e.Registry.benchmark)
        `Quick
        (fun () ->
          let tape = trace_of e in
          List.iter
            (fun (lo, hi) ->
              let c = Tape.Cursor.window tape ~lo ~hi in
              let got = List.rev (Tape.Cursor.fold_events
                                    (fun acc i ev ->
                                      assert (i = ev.Event.idx);
                                      ev :: acc)
                                    [] c)
              in
              if got <> slice tape lo hi then
                Alcotest.failf "window [%d, %d) differs from slice" lo hi)
            (windows_of tape)))
    Registry.all
  @ [
      Alcotest.test_case "seek, sub-windows and bounds" `Quick (fun () ->
          let tape = trace_of (Registry.find "CG") in
          let c = Tape.Cursor.of_tape tape in
          Alcotest.(check int) "full window" (Tape.length tape)
            (Tape.Cursor.length c);
          Tape.Cursor.seek c 100;
          Alcotest.(check int) "pos" 100 (Tape.Cursor.pos c);
          assert ((Tape.Cursor.next c).Event.idx = 100);
          let s = Tape.Cursor.sub c ~lo:50 ~hi:60 in
          Alcotest.(check int) "sub lo" 50 (Tape.Cursor.lo s);
          Alcotest.(check int) "sub hi" 60 (Tape.Cursor.hi s);
          Tape.Cursor.seek s 9999;
          Alcotest.(check int) "seek clamps" 60 (Tape.Cursor.pos s);
          assert (not (Tape.Cursor.has_next s));
          Alcotest.check_raises "next past end"
            (Invalid_argument "Tape.Cursor.next") (fun () ->
              ignore (Tape.Cursor.next s)));
      Alcotest.test_case "iter_sites equals of_tape site order" `Quick
        (fun () ->
          let e = Registry.find "CG" in
          let w = e.Registry.workload () in
          let m = Machine.load w.Moard_inject.Workload.program in
          let _, tape = Machine.trace m ~entry:w.Moard_inject.Workload.entry in
          let obj = Machine.object_of m "colidx" in
          let streamed = ref [] in
          Moard_trace.Consume.iter_sites (Tape.Cursor.of_tape tape) obj
            (fun i s -> streamed := (i, s) :: !streamed);
          let streamed = List.rev !streamed in
          let listed = Moard_trace.Consume.of_tape tape obj in
          Alcotest.(check int) "site count" (List.length listed)
            (List.length streamed);
          List.iteri
            (fun i (j, s) ->
              assert (i = j);
              assert (s = List.nth listed i))
            streamed);
    ]

(* ------------------------------------------------------------------ *)
(* aDVF accumulation: qcheck merge properties                         *)

let close = Alcotest.float 1e-9

let verdict_gen =
  QCheck2.Gen.(
    oneof
      [
        return Verdict.Not_masked;
        map2
          (fun l k -> Verdict.Masked (l, k))
          (oneofl [ Verdict.Operation; Verdict.Propagation; Verdict.Algorithm ])
          (oneofl
             [
               Verdict.Overwrite; Verdict.Logic_cmp; Verdict.Overshadow;
               Verdict.Other;
             ]);
      ])

let stage_gen =
  QCheck2.Gen.oneofl [ Advf.Op; Advf.Prop; Advf.Fi; Advf.Cached; Advf.Gave_up ]

(* A site: some error patterns, each with a stage and a verdict. The lane
   count must divide the single-bit weight denominator (64), as every real
   error model's lane count does at every width. *)
let site_gen =
  QCheck2.Gen.(list_size (oneofl [ 1; 2; 4; 8 ]) (pair stage_gen verdict_gen))

let stream_gen = QCheck2.Gen.(list_size (int_range 0 40) site_gen)

let feed acc sites =
  List.iter
    (fun patterns ->
      Advf.add_involvement acc;
      let lanes = List.length patterns in
      List.iter
        (fun (stage, verdict) -> Advf.add_pattern acc ~lanes ~stage verdict)
        patterns)
    sites

let report_of sites =
  let acc = Advf.create "x" in
  feed acc sites;
  Advf.report acc ~fi_runs:0 ~fi_cache_hits:0

let check_reports_equal msg (a : Advf.report) (b : Advf.report) =
  Alcotest.(check int) (msg ^ ": involvements") a.Advf.involvements
    b.Advf.involvements;
  Alcotest.(check int) (msg ^ ": patterns") a.Advf.patterns_analyzed
    b.Advf.patterns_analyzed;
  Alcotest.(check int) (msg ^ ": op") a.Advf.op_resolved b.Advf.op_resolved;
  Alcotest.(check int) (msg ^ ": fi") a.Advf.fi_resolved b.Advf.fi_resolved;
  Alcotest.check close (msg ^ ": advf") a.Advf.advf b.Advf.advf;
  Alcotest.check close (msg ^ ": events") a.Advf.masking_events
    b.Advf.masking_events;
  Array.iteri
    (fun i x -> Alcotest.check close (msg ^ ": level") x b.Advf.by_level.(i))
    a.Advf.by_level;
  Array.iteri
    (fun i x -> Alcotest.check close (msg ^ ": kind") x b.Advf.by_kind.(i))
    a.Advf.by_kind

let advf_stream_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200
         ~name:"online accumulator equals batch accumulator"
         QCheck2.Gen.(pair stream_gen (int_range 0 40))
         (fun (stream, cut) ->
           let cut = min cut (List.length stream) in
           let first = List.filteri (fun i _ -> i < cut) stream
           and rest = List.filteri (fun i _ -> i >= cut) stream in
           (* online: one accumulator over the whole stream *)
           let online = report_of stream in
           (* batch: one report per disjoint shard of sites, merged *)
           let batch = Advf.merge [ report_of first; report_of rest ] in
           check_reports_equal "online=batch" online batch;
           true));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"Advf.merge is commutative"
         QCheck2.Gen.(pair stream_gen stream_gen)
         (fun (sa, sb) ->
           let ra = report_of sa and rb = report_of sb in
           check_reports_equal "comm" (Advf.merge [ ra; rb ])
             (Advf.merge [ rb; ra ]);
           true));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"Advf.merge is associative"
         QCheck2.Gen.(triple stream_gen stream_gen stream_gen)
         (fun (sa, sb, sc) ->
           let ra = report_of sa
           and rb = report_of sb
           and rc = report_of sc in
           let left = Advf.merge [ Advf.merge [ ra; rb ]; rc ]
           and right = Advf.merge [ ra; Advf.merge [ rb; rc ] ]
           and flat = Advf.merge [ ra; rb; rc ] in
           check_reports_equal "assoc l=r" left right;
           check_reports_equal "assoc l=flat" left flat;
           true));
  ]

(* ------------------------------------------------------------------ *)
(* Shared golden run                                                   *)

let shared_golden_tests =
  [
    Alcotest.test_case "parallel driver runs the golden execution once"
      `Slow (fun () ->
        let g0 = Context.golden_executions () in
        let r =
          Model.analyze ~domains:3
            (Context.make (Moard_kernels.Lulesh.workload ~nelem:6 ()))
            ~object_name:"m_elemBC"
        in
        assert (r.Advf.advf >= 0.0 && r.Advf.advf <= 1.0);
        Alcotest.(check int) "golden executions" 1
          (Context.golden_executions () - g0));
    Alcotest.test_case "one context shares its golden run across objects"
      `Slow (fun () ->
        let g0 = Context.golden_executions () in
        let ctx =
          Context.make (Moard_kernels.Lulesh.workload ~nelem:6 ())
        in
        List.iter
          (fun obj ->
            ignore (Model.analyze ~domains:2 ctx ~object_name:obj))
          [ "m_elemBC"; "m_delv_zeta" ];
        Alcotest.(check int) "golden executions" 1
          (Context.golden_executions () - g0));
    Alcotest.test_case "shard shares tape but not caches" `Quick (fun () ->
        let ctx =
          Context.make (Moard_kernels.Lulesh.workload ~nelem:6 ())
        in
        let s = Context.shard ctx in
        assert (Context.tape s == Context.tape ctx);
        ignore
          (Model.analyze
             ~options:{ Model.default_options with Model.fi_budget = 5 }
             s ~object_name:"m_elemBC");
        Alcotest.(check int) "parent runs untouched" 0 (Context.runs ctx);
        assert (Context.runs s > 0));
  ]

(* ------------------------------------------------------------------ *)
(* Golden snapshot: every Table-I data object, bit-exact               *)

let golden_options = { Model.default_options with Model.fi_budget = 1000 }

let golden_tests =
  [
    Alcotest.test_case "aDVF of all Table-I objects matches the snapshot"
      `Slow (fun () ->
        let path =
          List.find Sys.file_exists
            [
              "golden_advf.expected"; "test/golden_advf.expected";
              Filename.concat
                (Filename.dirname Sys.executable_name)
                "golden_advf.expected";
            ]
        in
        let expected = open_in path in
        let lines = ref [] in
        (try
           while true do
             lines := input_line expected :: !lines
           done
         with End_of_file -> close_in expected);
        let lines = List.rev !lines in
        let ctxs = Hashtbl.create 8 in
        let ctx_of name =
          match Hashtbl.find_opt ctxs name with
          | Some c -> c
          | None ->
            let c =
              Context.make ((Registry.find name).Registry.workload ())
            in
            Hashtbl.replace ctxs name c;
            c
        in
        Alcotest.(check int) "snapshot rows" 16 (List.length lines);
        List.iter
          (fun line ->
            match String.split_on_char ' ' line with
            | bench :: obj :: rest ->
              let r =
                Model.analyze ~options:golden_options (ctx_of bench)
                  ~object_name:obj
              in
              let got =
                string_of_int r.Advf.involvements
                :: List.map (Printf.sprintf "%h")
                     ([ r.Advf.masking_events; r.Advf.advf ]
                     @ Array.to_list r.Advf.by_level
                     @ Array.to_list r.Advf.by_kind)
              in
              if got <> rest then
                Alcotest.failf "%s/%s drifted:\n  expected %s\n  got      %s"
                  bench obj
                  (String.concat " " rest)
                  (String.concat " " got)
            | _ -> Alcotest.failf "malformed snapshot line: %s" line)
          lines);
  ]

let suite =
  [
    ("pipeline.tape", tape_tests);
    ("pipeline.cursor", cursor_tests);
    ("pipeline.advf-stream", advf_stream_tests);
    ("pipeline.shared-golden", shared_golden_tests);
    ("pipeline.golden-snapshot", golden_tests);
  ]
