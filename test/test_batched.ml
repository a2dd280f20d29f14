(* The batched masking kernel and everything built on it must agree
   with the scalar oracle exactly.

   Three layers of differential checks:
   - Masking.analyze_all against one scalar Masking.analyze call per
     lane, over a QCheck-random program touching every opcode family of
     the per-lane kernel (integer and float arithmetic, division, static
     and dynamic shifts, comparisons feeding branches, geps, casts,
     stores) at 64- and 32-bit operand widths;
   - Exhaustive.campaign with and without the kernel: identical outcome
     counts, near-zero real executions batched;
   - Model.analyze and Engine.run with and without the kernel: identical
     reports and payloads byte for byte. *)

module Masking = Moard_analysis.Masking
module Verdict = Moard_analysis.Verdict
module Model = Moard_core.Model
module Advf = Moard_core.Advf
module Consume = Moard_trace.Consume
module Context = Moard_inject.Context
module Exhaustive = Moard_inject.Exhaustive
module Resolve = Moard_inject.Resolve
module Outcome = Moard_inject.Outcome
module Errmodel = Moard_bits.Errmodel
module Pattern = Moard_bits.Pattern
module Ps = Moard_bits.Patternset
module B = Moard_bits.Bitval
module Ast = Moard_lang.Ast
open Tutil

let model_name = Errmodel.to_string

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* One program consuming the traced globals through (nearly) every opcode
   the per-lane kernel evaluates. [x]/[y] drive the integer ops, [xf]/[yf]
   the float ops, [sh] the static shift amounts (including out-of-range),
   [idx] an in-bounds element index consumed by a gep. The i32 global
   [g32] (initialized from the low word of [x]) is read once and written
   once: its sign-extending load is a W32 read site and its store a W32
   store destination. *)
let prog ~x ~y ~xf ~yf ~sh ~idx =
  let ynz = if Int64.equal y 0L then 1L else y in
  let open Ast.Dsl in
  trace_program
    [
      garr_i64_init "g" [| x |];
      garr_f64_init "gf" [| xf |];
      garr_i64_init "ix" [| Int64.of_int idx |];
      garr_i32_init "g32" [| Int64.to_int32 x |];
      garr_f64_init "arr" [| 1.0; 2.0; 3.0; 4.0 |];
      garr_i64 "oi" 12;
      garr_i32 "o32" 1;
      garr_f64 "ofl" 6;
    ]
    [
      fn "main"
        [
          ("oi".%(i 0) <- "g".%(i 0) land i64 y);
          ("oi".%(i 1) <- "g".%(i 0) lor i64 y);
          ("oi".%(i 2) <- "g".%(i 0) lxor i64 y);
          ("oi".%(i 3) <- "g".%(i 0) + i64 y);
          ("oi".%(i 4) <- "g".%(i 0) - i64 y);
          ("oi".%(i 5) <- "g".%(i 0) * i64 y);
          ("oi".%(i 6) <- "g".%(i 0) lsl i sh);
          ("oi".%(i 7) <- "g".%(i 0) lsr i sh);
          ("oi".%(i 8) <- "g".%(i 0) asr i sh);
          (* dynamic shift amount: slot-1 consumption *)
          ("oi".%(i 9) <- i64 y lsl ("g".%(i 0) land i 63));
          ("oi".%(i 10) <- "g".%(i 0) / i64 ynz);
          ("oi".%(i 11) <- "g".%(i 0) % i64 ynz);
          (* i32 store truncates: Trunc_to_i32 consumption *)
          ("o32".%(i 0) <- "g".%(i 0));
          ("ofl".%(i 0) <- "gf".%(i 0) + f yf);
          ("ofl".%(i 1) <- "gf".%(i 0) * f yf);
          (* gep indexed by a traced value *)
          ("ofl".%(i 2) <- "arr".%("ix".%(i 0)));
          flt_ "acc" (f 0.0);
          when_ ("g".%(i 0) == i64 y) [ "acc" <-- f 1.0 ];
          when_ ("g".%(i 0) != i64 y) [ "acc" <-- v "acc" + f 2.0 ];
          when_ ("g".%(i 0) < i64 y) [ "acc" <-- v "acc" + f 4.0 ];
          ("ofl".%(i 3) <- v "acc");
          ("ofl".%(i 4) <- to_f ("g".%(i 0)));
          ("ofl".%(i 5) <- "gf".%(i 0) - f yf);
          ("g32".%(i 0) <- "g32".%(i 0) + i64 y);
          ret_void;
        ];
    ]

let pp_verdict = function
  | Masking.Masked k -> "masked:" ^ Verdict.kind_name k
  | Masking.Changed _ -> "changed"
  | Masking.Crash_certain _ -> "crash"
  | Masking.Divergent -> "divergent"

(* analyze_all must agree with the scalar oracle on every lane of every
   site, for every error model: same classification, same mask kind,
   same per-lane trap, and the same Changed payload (output value and
   overshadow flag), also as kept by the kernel ({!Masking.changed_out}). *)
let check_site ~model tape (s : Consume.t) =
  let e = event_of tape s in
  let v = Masking.analyze_all ~model e s.Consume.kind in
  if v.Masking.width <> s.Consume.width then
    Alcotest.failf "width mismatch at event %d" s.Consume.event_idx;
  let n = v.Masking.lanes in
  if n <> Errmodel.lanes model s.Consume.width then
    Alcotest.failf "lane count mismatch at event %d" s.Consume.event_idx;
  (* the four sets partition the full lane set *)
  let all =
    Ps.union
      (Ps.union v.Masking.masked v.Masking.crash)
      (Ps.union v.Masking.divergent v.Masking.changed)
  in
  if not (Ps.equal all (Ps.full_n ~n)) then
    Alcotest.failf "[%s] verdict sets do not cover at event %d"
      (model_name model) s.Consume.event_idx;
  if
    Ps.count v.Masking.masked + Ps.count v.Masking.crash
    + Ps.count v.Masking.divergent + Ps.count v.Masking.changed
    <> n
  then
    Alcotest.failf "[%s] verdict sets overlap at event %d" (model_name model)
      s.Consume.event_idx;
  if not (Ps.subset v.Masking.overshadow v.Masking.changed) then
    Alcotest.fail "overshadow must be a subset of changed";
  for b = 0 to n - 1 do
    let pat = Errmodel.pattern_at model s.Consume.width b in
    let scalar = Masking.analyze e s.Consume.kind pat in
    let fail () =
      Alcotest.failf
        "[%s] event %d lane %d: scalar %s vs batched {m=%a c=%a d=%a}"
        (model_name model) s.Consume.event_idx b (pp_verdict scalar) Ps.pp
        v.Masking.masked Ps.pp v.Masking.crash Ps.pp v.Masking.divergent
    in
    match scalar with
    | Masking.Masked k ->
      if not (Ps.mem v.Masking.masked b) then fail ();
      if v.Masking.mask_kind <> k then
        Alcotest.failf "[%s] event %d lane %d: mask kind %s vs %s"
          (model_name model) s.Consume.event_idx b (Verdict.kind_name k)
          (Verdict.kind_name v.Masking.mask_kind)
    | Masking.Crash_certain t ->
      if not (Ps.mem v.Masking.crash b) then fail ();
      if Masking.trap_of_lane v b <> t then
        Alcotest.failf "[%s] event %d lane %d: trap differs"
          (model_name model) s.Consume.event_idx b
    | Masking.Divergent -> if not (Ps.mem v.Masking.divergent b) then fail ()
    | Masking.Changed { out; overshadow } ->
      if not (Ps.mem v.Masking.changed b) then fail ();
      if Ps.mem v.Masking.overshadow b <> overshadow then
        Alcotest.failf "[%s] event %d lane %d: overshadow flag differs"
          (model_name model) s.Consume.event_idx b;
      let out', overshadow' =
        Masking.changed_out_at ~model e s.Consume.kind ~lane:b
      in
      if out' <> out || overshadow' <> overshadow then
        Alcotest.failf "[%s] event %d lane %d: changed payload differs"
          (model_name model) s.Consume.event_idx b;
      if Masking.changed_out v b <> out' then
        Alcotest.failf "[%s] event %d lane %d: kept output differs"
          (model_name model) s.Consume.event_idx b
  done

let gen_inputs =
  QCheck2.Gen.(
    let word =
      oneof [ int64; oneofl [ 0L; 1L; -1L; 2L; 1024L; Int64.min_int ] ]
    in
    let flt =
      oneof [ float; oneofl [ 0.0; 1.0; -0.25; 1e18; 1e-18; Float.nan ] ]
    in
    word >>= fun x ->
    word >>= fun y ->
    flt >>= fun xf ->
    flt >>= fun yf ->
    int_range (-2) 70 >>= fun sh ->
    int_bound 3 >|= fun idx -> (x, y, xf, yf, sh, idx))

let kernel_vs_oracle =
  List.map
    (fun model ->
      qtest
        (Printf.sprintf "analyze_all = per-lane analyze on every opcode [%s]"
           (model_name model))
        gen_inputs
        (fun (x, y, xf, yf, sh, idx) ->
          let m, tape = prog ~x ~y ~xf ~yf ~sh ~idx in
          let scan0 = Masking.scan_executions () in
          let checked = ref 0 in
          List.iter
            (fun g ->
              List.iter
                (fun s ->
                  check_site ~model tape s;
                  incr checked)
                (sites m tape g))
            [ "g"; "gf"; "ix"; "g32" ];
          (* the program consumes every traced global many times, g32
             at a W32 read site and a W32 store destination, and every
             site is classified by the kernel alone *)
          let w32 = List.map (fun s -> (s.Consume.width, is_read s)) (sites m tape "g32") in
          !checked > 10
          && List.mem (B.W32, true) w32
          && List.mem (B.W32, false) w32
          && Masking.scan_executions () = scan0))
    Errmodel.all

(* ---- end-to-end differentials on a small self-contained workload ---- *)

let workload () =
  let open Ast.Dsl in
  workload_of ~targets:[ "a" ] ~outputs:[ "out" ]
    [
      garr_f64_init "a" [| 1.5; -3.0; 0.25; 8.0 |];
      garr_i64_init "n" [| 12L; 3L |];
      garr_f64 "out" 4;
    ]
    [
      fn "main"
        [
          flt_ "acc" (f 0.0);
          for_ "i" (i 0) (i 3)
            [ "acc" <-- v "acc" + ("a".%(v "i") * "a".%(v "i")) ];
          when_ ("n".%(i 0) > i 4) [ "acc" <-- v "acc" + f 1.0 ];
          ("out".%(i 0) <- v "acc");
          ("out".%(i 1) <- "a".%(i 3) - "a".%(i 2));
          ("out".%(i 2) <- to_f ("n".%(i 0) land i 0xF0));
          ("out".%(i 3) <- "a".%(i 1));
          ret_void;
        ];
    ]
    "batched-diff"

let exhaustive_tests =
  List.map
    (fun model ->
      Alcotest.test_case
        (Printf.sprintf "exhaustive: batched = scalar outcomes [%s]"
           (model_name model))
        `Quick
        (fun () ->
          let ctx = Context.make (workload ()) in
          let scan0 = Masking.scan_executions () in
          let b = Exhaustive.campaign ~model ~batch:true ctx ~object_name:"a" in
          Alcotest.(check int)
            "batched sweep never falls into the scalar walk" 0
            (Masking.scan_executions () - scan0);
          let s =
            Exhaustive.campaign ~model ~batch:false ctx ~object_name:"a"
          in
          Alcotest.(check int) "sites" s.Exhaustive.sites b.Exhaustive.sites;
          Alcotest.(check int) "injections" s.Exhaustive.injections
            b.Exhaustive.injections;
          Alcotest.(check int) "same" s.Exhaustive.same b.Exhaustive.same;
          Alcotest.(check int) "acceptable" s.Exhaustive.acceptable
            b.Exhaustive.acceptable;
          Alcotest.(check int) "incorrect" s.Exhaustive.incorrect
            b.Exhaustive.incorrect;
          Alcotest.(check int) "crashed" s.Exhaustive.crashed
            b.Exhaustive.crashed;
          Alcotest.(check (float 0.0)) "success rate"
            s.Exhaustive.success_rate b.Exhaustive.success_rate;
          if
            model = Errmodel.Single_bit
            && b.Exhaustive.runs >= s.Exhaustive.runs
          then
            Alcotest.failf "kernel saved no executions (%d vs %d)"
              b.Exhaustive.runs s.Exhaustive.runs))
    Errmodel.all
  @ [
      Alcotest.test_case "resolve restricted to a lane subset agrees" `Quick
        (fun () ->
          let ctx = Context.make (workload ()) in
          let site =
            List.find is_read
              (Consume.of_tape (Context.tape ctx)
                 (Context.object_of ctx "a"))
          in
          let all = Resolve.site ctx site in
          let lanes = Ps.add (Ps.add (Ps.add Ps.empty 0) 17) 63 in
          let sub = Resolve.site ~lanes ctx site in
          Ps.iter
            (fun b ->
              if sub.(b) <> all.(b) then
                Alcotest.failf "lane %d differs under restriction" b)
            lanes);
    ]

let report_str r = Format.asprintf "%a" Advf.pp_report r

let model_tests =
  List.map
    (fun model ->
      Alcotest.test_case
        (Printf.sprintf "model: batched report = scalar report [%s]"
           (model_name model))
        `Quick
        (fun () ->
          let ctx = Context.make (workload ()) in
          let opts cache batch =
            { Model.default_options with Model.use_cache = cache; batch; model }
          in
          List.iter
            (fun cache ->
              let b =
                Model.analyze
                  ~options:(opts cache true)
                  (Context.shard ctx) ~object_name:"a"
              in
              let s =
                Model.analyze
                  ~options:(opts cache false)
                  (Context.shard ctx) ~object_name:"a"
              in
              Alcotest.(check string)
                (Printf.sprintf "report (cache=%b)" cache)
                (report_str s) (report_str b))
            [ true; false ]))
    Errmodel.all

module Plan = Moard_campaign.Plan
module Engine = Moard_campaign.Engine

let engine_tests =
  List.map
    (fun model ->
      Alcotest.test_case
        (Printf.sprintf "campaign: batched = scalar payload bytes [%s]"
           (model_name model))
        `Quick
        (fun () ->
          let ctx = Context.make (workload ()) in
          let plan =
            Plan.make ~model ~seed:7 ~ci_width:0.04 ctx ~objects:[ "a" ]
          in
          let b = Engine.run ~batch:true ctx plan in
          let s = Engine.run ~batch:false ctx plan in
          Alcotest.(check string) "stable payload"
            (Moard_store.Query.campaign_payload s)
            (Moard_store.Query.campaign_payload b)))
    Errmodel.all

module Registry = Moard_kernels.Registry

(* Full-registry differential: every benchmark object in Table I analyzed
   batched and scalar under every error model must produce byte-identical
   reports, and the batched runs must never fall into the scalar walk.
   This is the in-tree twin of the CI kernel smoke job. *)
let registry_tests =
  List.map
    (fun model ->
      Alcotest.test_case
        (Printf.sprintf "registry: batched = scalar reports [%s]"
           (model_name model))
        `Slow
        (fun () ->
          let opts batch =
            { Model.default_options with Model.fi_budget = 500; batch; model }
          in
          List.iter
            (fun (e : Registry.entry) ->
              let ctx = Context.make (e.Registry.workload ()) in
              List.iter
                (fun obj ->
                  let scan0 = Masking.scan_executions () in
                  let b =
                    Model.analyze ~options:(opts true) (Context.shard ctx)
                      ~object_name:obj
                  in
                  let scans = Masking.scan_executions () - scan0 in
                  if scans <> 0 then
                    Alcotest.failf
                      "%s/%s [%s]: %d scalar-walk executions on the batched \
                       path"
                      e.Registry.benchmark obj (model_name model) scans;
                  let s =
                    Model.analyze ~options:(opts false) (Context.shard ctx)
                      ~object_name:obj
                  in
                  Alcotest.(check string)
                    (Printf.sprintf "%s/%s" e.Registry.benchmark obj)
                    (report_str s) (report_str b))
                e.Registry.objects)
            Registry.table1))
    Errmodel.all

let suite =
  [
    ("batched.kernel-vs-oracle", kernel_vs_oracle);
    ("batched.exhaustive", exhaustive_tests);
    ("batched.model", model_tests);
    ("batched.engine", engine_tests);
    ("batched.registry", registry_tests);
  ]
