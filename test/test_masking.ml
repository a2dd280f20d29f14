(* Operation-level masking analysis (paper §III-C) and the
   read-modify-write store rule (§III-B). *)

module Masking = Moard_analysis.Masking
module Derive = Moard_analysis.Derive
module Verdict = Moard_analysis.Verdict
module Consume = Moard_trace.Consume
module Pattern = Moard_bits.Pattern
module Ast = Moard_lang.Ast
open Tutil

let open_dsl = Ast.Dsl.fn (* keep namespace handy *)
let _ = open_dsl

(* One program covering the §III-C cases. *)
let prog () =
  let open Ast.Dsl in
  trace_program
    [
      garr_f64_init "a" [| 1.5; -3.0; 0.25; 8.0 |];
      garr_i64_init "n" [| 12L; 3L |];
      garr_f64_init "big" [| 1e18 |];
      garr_f64 "out" 4;
    ]
    [
      fn "main"
        [
          (* value overwriting: plain store over a[0] *)
          ("a".%(i 0) <- f 7.0);
          (* logic: AND with a mask that zeroes low bits *)
          int_ "masked" ("n".%(i 0) land i 0xF00);
          (* shifting: corrupted low bits of n[0] are shifted away *)
          int_ "shifted" ("n".%(i 0) lsr i 8);
          (* comparison: n[0]=12 > 1 regardless of low-bit flips *)
          flt_ "flag" (f 0.0);
          when_ ("n".%(i 0) > i 1) [ "flag" <-- f 1.0 ];
          (* overshadowing: tiny a[2] added to 1e18 *)
          flt_ "os" ("big".%(i 0) + "a".%(i 2));
          (* read-modify-write: a[3] = a[3] + 1 *)
          ("a".%(i 3) <- "a".%(i 3) + f 1.0);
          ("out".%(i 0) <- v "os");
          ("out".%(i 1) <- to_f (v "masked" + v "shifted"));
          ("out".%(i 2) <- v "flag");
          ("out".%(i 3) <- "a".%(i 3));
          ret_void;
        ];
    ]

let analyze tape site pattern =
  Masking.analyze (event_of tape site) site.Consume.kind pattern

let overwrite_tests =
  [
    Alcotest.test_case "plain store destination masks every bit" `Quick
      (fun () ->
        let m, tape = prog () in
        let s =
          site_on m tape "a" (fun s -> is_store s && s.Consume.elem = 0)
        in
        List.iter
          (fun p ->
            match analyze tape s p with
            | Masking.Masked Verdict.Overwrite -> ()
            | _ -> Alcotest.fail "store must mask by overwriting")
          (Consume.patterns s));
    Alcotest.test_case "rmw store is recognized by Derive" `Quick (fun () ->
        let m, tape = prog () in
        let s =
          site_on m tape "a" (fun s -> is_store s && s.Consume.elem = 3)
        in
        match Derive.store_rmw_source ~tape (event_of tape s) with
        | Some (idx, _slot) -> assert (idx < s.Consume.event_idx)
        | None -> Alcotest.fail "a[3] = a[3] + 1 must be flagged as RMW");
    Alcotest.test_case "plain store is not flagged as RMW" `Quick (fun () ->
        let m, tape = prog () in
        let s =
          site_on m tape "a" (fun s -> is_store s && s.Consume.elem = 0)
        in
        assert (Derive.store_rmw_source ~tape (event_of tape s) = None));
  ]

let logic_tests =
  [
    Alcotest.test_case "AND masks the bits the mask clears" `Quick (fun () ->
        let m, tape = prog () in
        let s =
          site_on m tape "n" (fun s ->
              is_read s
              &&
              match (event_of tape s).Moard_trace.Event.instr with
              | Moard_ir.Instr.Ibin (_, Moard_ir.Instr.And, _, _, _) -> true
              | _ -> false)
        in
        (* mask 0xF00: flips outside bits 8..11 are masked *)
        (match analyze tape s (Pattern.Single 0) with
        | Masking.Masked Verdict.Logic_cmp -> ()
        | _ -> Alcotest.fail "bit 0 must be masked by AND");
        match analyze tape s (Pattern.Single 9) with
        | Masking.Masked _ -> Alcotest.fail "bit 9 must pass through"
        | _ -> ());
    Alcotest.test_case "shift discards low bits (overwrite class)" `Quick
      (fun () ->
        let m, tape = prog () in
        let s =
          site_on m tape "n" (fun s ->
              is_read s
              &&
              match (event_of tape s).Moard_trace.Event.instr with
              | Moard_ir.Instr.Ibin (_, Moard_ir.Instr.Lshr, _, _, _) ->
                s.Consume.kind = Consume.Read { slot = 0 }
              | _ -> false)
        in
        (match analyze tape s (Pattern.Single 3) with
        | Masking.Masked Verdict.Overwrite -> ()
        | _ -> Alcotest.fail "bit 3 is shifted away by >> 8");
        match analyze tape s (Pattern.Single 20) with
        | Masking.Masked _ -> Alcotest.fail "bit 20 survives >> 8"
        | _ -> ());
    Alcotest.test_case "comparison with unchanged verdict masks" `Quick
      (fun () ->
        let m, tape = prog () in
        let s =
          site_on m tape "n" (fun s ->
              is_read s
              &&
              match (event_of tape s).Moard_trace.Event.instr with
              | Moard_ir.Instr.Icmp (_, Moard_ir.Instr.Isgt, _, _, _) -> true
              | _ -> false)
        in
        (* n[0] = 12 > 1: flipping bit 1 gives 14 > 1, still true *)
        (match analyze tape s (Pattern.Single 1) with
        | Masking.Masked Verdict.Logic_cmp -> ()
        | _ -> Alcotest.fail "12->14 keeps the comparison true");
        (* flipping bit 63 makes it hugely negative: comparison flips *)
        match analyze tape s (Pattern.Single 63) with
        | Masking.Masked _ -> Alcotest.fail "sign flip changes the verdict"
        | _ -> ());
  ]

let overshadow_tests =
  [
    Alcotest.test_case "exact absorption masks as overshadowing" `Quick
      (fun () ->
        let m, tape = prog () in
        let s =
          site_on m tape "a" (fun s -> is_read s && s.Consume.elem = 2)
        in
        (* 0.25 + 1e18: low-order mantissa flips vanish in rounding *)
        match analyze tape s (Pattern.Single 0) with
        | Masking.Masked Verdict.Overshadow -> ()
        | _ -> Alcotest.fail "low mantissa bit must be absorbed by 1e18");
    Alcotest.test_case "candidate flag set when magnitude stays below" `Quick
      (fun () ->
        let m, tape = prog () in
        let s =
          site_on m tape "a" (fun s -> is_read s && s.Consume.elem = 2)
        in
        (* exponent flip that still keeps |a[2]'| < 1e18 *)
        match analyze tape s (Pattern.Single 55) with
        | Masking.Changed { overshadow; _ } -> assert overshadow
        | Masking.Masked _ -> () (* absorbed exactly is fine too *)
        | _ -> Alcotest.fail "unexpected verdict");
    Alcotest.test_case "candidate flag clear when magnitude explodes" `Quick
      (fun () ->
        let m, tape = prog () in
        let s =
          site_on m tape "a" (fun s -> is_read s && s.Consume.elem = 2)
        in
        (* flipping the top exponent bit of 0.25 gives a huge magnitude *)
        match analyze tape s (Pattern.Single 62) with
        | Masking.Changed { overshadow; _ } -> assert (not overshadow)
        | _ -> Alcotest.fail "expected a changed verdict");
  ]

let crash_divergence_tests =
  [
    Alcotest.test_case "corrupted divisor that becomes zero is a certain \
                        crash" `Quick (fun () ->
        let m, tape =
          let open Ast.Dsl in
          trace_program
            [ garr_i64_init "d" [| 1L |]; garr_f64 "out" 1 ]
            [
              fn "main"
                [
                  ("out".%(i 0) <- to_f (i 100 / "d".%(i 0)));
                  ret_void;
                ];
            ]
        in
        let s = site_on m tape "d" is_read in
        match analyze tape s (Pattern.Single 0) with
        | Masking.Crash_certain Moard_vm.Trap.Div_by_zero -> ()
        | _ -> Alcotest.fail "1 -> 0 divisor must be a certain crash");
    Alcotest.test_case "corrupted branch condition diverges" `Quick
      (fun () ->
        let m, tape =
          let open Ast.Dsl in
          trace_program
            [ garr_i64_init "n" [| 5L |]; garr_f64 "out" 1 ]
            [
              fn "main"
                [
                  flt_ "acc" (f 0.0);
                  when_ ("n".%(i 0) == i 5) [ "acc" <-- f 1.0 ];
                  ("out".%(i 0) <- v "acc");
                  ret_void;
                ];
            ]
        in
        let s =
          site_on m tape "n" (fun s ->
              is_read s
              &&
              match (event_of tape s).Moard_trace.Event.instr with
              | Moard_ir.Instr.Icmp _ -> true
              | _ -> false)
        in
        (* any flip of 5 breaks equality -> branch flips downstream, but
           the icmp itself reports the changed verdict *)
        match analyze tape s (Pattern.Single 1) with
        | Masking.Masked _ -> Alcotest.fail "equality must break"
        | _ -> ());
  ]

(* ---- The per-lane kernel of Masking.analyze_all on hand-built events,
   checked lane by lane against reference integer semantics, under every
   error model and at 32- and 64-bit operand widths. ---- *)

module B = Moard_bits.Bitval
module Ps = Moard_bits.Patternset
module Errmodel = Moard_bits.Errmodel
module Event = Moard_trace.Event
module I = Moard_ir.Instr

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let wmask w =
  if B.bits_in w = 64 then -1L
  else Int64.sub (Int64.shift_left 1L (B.bits_in w)) 1L

let trunc w x = Int64.logand x (wmask w)

let sext w x =
  let n = B.bits_in w in
  if n = 64 then x
  else Int64.shift_right (Int64.shift_left x (64 - n)) (64 - n)

let corrupt model w x lane =
  trunc w (Int64.logxor x (Errmodel.flip_mask model w lane))

(* The question the kernel answers for every lane: does the lane's error
   pattern applied to [x] leave [op x] unchanged? *)
let ref_lanes model w keep x =
  List.fold_left
    (fun acc lane -> if keep (corrupt model w x lane) then Ps.add acc lane else acc)
    Ps.empty
    (List.init (Errmodel.lanes model w) Fun.id)

let ref_masked model w op x = ref_lanes model w (fun c -> op c = op x) x

(* One event of [instr] consuming [reads] in slot order and writing [out]
   to a register. *)
let event instr reads out =
  {
    Event.idx = 0;
    hart = 0;
    frame = 0;
    iid = Moard_ir.Iid.make ~fn:"main" ~blk:0 ~ip:0;
    instr;
    reads =
      Array.of_list
        (List.map (fun value -> { Event.value; prov = Event.no_prov }) reads);
    write = Event.Wreg { frame = 0; reg = 0; value = out };
    load_addr = -1;
    callee_frame = -1;
    ret_to_frame = -1;
    ret_to_reg = -1;
    taken = -1;
  }

(* Every lane of slot [slot] classified by the kernel, and whether it did
   so without falling into the scalar walk. *)
let kernel ~model ?(slot = 0) instr reads out =
  let scan0 = Masking.scan_executions () in
  let v =
    Masking.analyze_all ~model (event instr reads out) (Consume.Read { slot })
  in
  (v, Masking.scan_executions () = scan0)

let ity w = if w = B.W32 then Moard_ir.Types.I32 else Moard_ir.Types.I64

(* Slot 0 of [a op other] at width [w]; [f] is the reference operation on
   width-truncated words. *)
let ibin ~model op w a other f =
  kernel ~model
    (I.Ibin (0, op, ity w, I.Reg 1, I.Reg 2))
    [ B.make w a; B.make w other ]
    (B.make w (f a))

let ibin_agrees ~model op w a other f =
  let v, kernel_only = ibin ~model op w a other f in
  kernel_only && Ps.equal v.Masking.masked (ref_masked model w f a)

let gen_model = QCheck2.Gen.oneofl Errmodel.all
let gen_width = QCheck2.Gen.oneofl [ B.W32; B.W64 ]

let gen_word w =
  QCheck2.Gen.(
    map (trunc w) (oneof [ int64; oneofl [ 0L; 1L; -1L; Int64.min_int ] ]))

let gen_w_pair =
  QCheck2.Gen.(
    pair gen_model gen_width >>= fun (m, w) ->
    pair (gen_word w) (gen_word w) >|= fun (a, b) -> (m, w, a, b))

let gen_w_shift =
  QCheck2.Gen.(
    pair gen_model gen_width >>= fun (m, w) ->
    pair (gen_word w) (int_bound (B.bits_in w - 1)) >|= fun (a, s) ->
    (m, w, a, s))

let kernel_unit =
  let model = Errmodel.Single_bit in
  [
    Alcotest.test_case "flip_mask = fold of the pattern's bits" `Quick
      (fun () ->
        List.iter
          (fun m ->
            List.iter
              (fun w ->
                for lane = 0 to Errmodel.lanes m w - 1 do
                  let fold =
                    List.fold_left
                      (fun acc b -> Int64.logor acc (Int64.shift_left 1L b))
                      0L
                      (Moard_bits.Pattern.bits_of
                         (Errmodel.pattern_at m w lane))
                  in
                  Alcotest.(check int64)
                    (Printf.sprintf "%s W%d lane %d" (Errmodel.to_string m)
                       (B.bits_in w) lane)
                    fold
                    (Errmodel.flip_mask m w lane)
                done)
              [ B.W1; B.W32; B.W64 ])
          Errmodel.all);
    Alcotest.test_case "kernel edge cases" `Quick (fun () ->
        (* mul by zero: constant result, everything masked *)
        let v, _ = ibin ~model I.Mul B.W64 0x1234L 0L (fun _ -> 0L) in
        Alcotest.(check int) "mul by 0" 64 (Ps.count v.Masking.masked);
        (* out-of-range logical shift: constant zero, value overwritten *)
        let v, _ = ibin ~model I.Lshr B.W64 0x1234L (-1L) (fun _ -> 0L) in
        Alcotest.(check int) "oob lshr" 64 (Ps.count v.Masking.masked);
        Alcotest.(check bool) "oob lshr kind" true
          (v.Masking.mask_kind = Verdict.Overwrite);
        (* out-of-range arithmetic shift: only the sign bit survives *)
        let v, _ = ibin ~model I.Ashr B.W64 0x1234L 64L (fun _ -> 0L) in
        Alcotest.(check int) "oob ashr" 63 (Ps.count v.Masking.masked);
        (* equal words: any flip breaks equality *)
        let v, _ =
          kernel ~model
            (I.Icmp (0, I.Ieq, Moard_ir.Types.I64, I.Reg 1, I.Reg 2))
            [ B.of_int64 5L; B.of_int64 5L ]
            (B.of_bool true)
        in
        Alcotest.(check bool) "eq of equal" true (Ps.is_empty v.Masking.masked));
  ]

let kernel_prop =
  [
    qtest "band kernel = reference" gen_w_pair (fun (model, w, a, other) ->
        ibin_agrees ~model I.And w a other (fun x -> Int64.logand x other));
    qtest "bor kernel = reference" gen_w_pair (fun (model, w, a, other) ->
        ibin_agrees ~model I.Or w a other (fun x -> Int64.logor x other));
    qtest "bxor never masks" gen_w_pair (fun (model, w, a, other) ->
        let f x = trunc w (Int64.logxor x other) in
        let v, _ = ibin ~model I.Xor w a other f in
        ibin_agrees ~model I.Xor w a other f && Ps.is_empty v.Masking.masked);
    qtest "add/sub never mask" gen_w_pair (fun (model, w, a, other) ->
        List.for_all
          (fun (op, f) ->
            let v, _ = ibin ~model op w a other f in
            ibin_agrees ~model op w a other f && Ps.is_empty v.Masking.masked)
          [
            (I.Add, fun x -> trunc w (Int64.add x other));
            (I.Sub, fun x -> trunc w (Int64.sub x other));
          ]);
    qtest "mul kernel = reference" gen_w_pair (fun (model, w, a, other) ->
        ibin_agrees ~model I.Mul w a other (fun x -> trunc w (Int64.mul x other)));
    qtest "shl kernel = reference" gen_w_shift (fun (model, w, a, s) ->
        ibin_agrees ~model I.Shl w a (Int64.of_int s) (fun x ->
            trunc w (Int64.shift_left x s)));
    qtest "lshr kernel = reference" gen_w_shift (fun (model, w, a, s) ->
        ibin_agrees ~model I.Lshr w a (Int64.of_int s) (fun x ->
            Int64.shift_right_logical (trunc w x) s));
    qtest "ashr kernel = reference" gen_w_shift (fun (model, w, a, s) ->
        ibin_agrees ~model I.Ashr w a (Int64.of_int s) (fun x ->
            trunc w (Int64.shift_right (sext w x) s)));
    qtest "eq kernel = reference" gen_w_pair (fun (model, w, a, b) ->
        let f x = if x = b then 1L else 0L in
        let v, kernel_only =
          kernel ~model
            (I.Icmp (0, I.Ieq, ity w, I.Reg 1, I.Reg 2))
            [ B.make w a; B.make w b ]
            (B.of_bool (a = b))
        in
        kernel_only && Ps.equal v.Masking.masked (ref_masked model w f a));
    qtest "slt kernel = reference" gen_w_pair (fun (model, w, a, b) ->
        let f x = Int64.compare (sext w x) (sext w b) < 0 in
        let v, kernel_only =
          kernel ~model
            (I.Icmp (0, I.Islt, ity w, I.Reg 1, I.Reg 2))
            [ B.make w a; B.make w b ]
            (B.of_bool (f a))
        in
        kernel_only && Ps.equal v.Masking.masked (ref_masked model w f a));
    qtest "trunc kernel = reference"
      QCheck2.Gen.(pair gen_model (gen_word B.W64))
      (fun (model, a) ->
        let f x = trunc B.W32 x in
        let v, kernel_only =
          kernel ~model
            (I.Cast (0, I.Trunc_to_i32, I.Reg 1))
            [ B.of_int64 a ] (B.make B.W32 a)
        in
        kernel_only && Ps.equal v.Masking.masked (ref_masked model B.W64 f a));
    qtest "gep index kernel = reference"
      QCheck2.Gen.(
        triple gen_model (pair (gen_word B.W64) (gen_word B.W64))
          (oneofl [ 0; 1; 8; 24 ]))
      (fun (model, (base, idx), scale) ->
        let f x = Int64.add base (Int64.mul x (Int64.of_int scale)) in
        let v, kernel_only =
          kernel ~model ~slot:1
            (I.Gep (0, I.Reg 1, I.Reg 2, scale))
            [ B.of_int64 base; B.of_int64 idx ]
            (B.of_int64 (f idx))
        in
        kernel_only && Ps.equal v.Masking.masked (ref_masked model B.W64 f idx));
    qtest "select arm kernel = reference"
      QCheck2.Gen.(
        triple gen_model bool (pair (gen_word B.W64) (gen_word B.W64)))
      (fun (model, c, (x, y)) ->
        (* slot 1 is the true arm: masked exactly when it is not chosen *)
        let f t = if c then t else y in
        let v, kernel_only =
          kernel ~model ~slot:1
            (I.Select (0, I.Reg 1, I.Reg 2, I.Reg 3))
            [ B.of_bool c; B.of_int64 x; B.of_int64 y ]
            (B.of_int64 (f x))
        in
        kernel_only && Ps.equal v.Masking.masked (ref_masked model B.W64 f x));
    qtest "overshadow candidates = reference" gen_w_pair
      (fun (model, w, a, other) ->
        let reference =
          ref_lanes model w
            (fun c -> Int64.abs (sext w c) < Int64.abs (sext w other))
            a
        in
        List.for_all
          (fun (op, f) ->
            let v, kernel_only = ibin ~model op w a other f in
            kernel_only
            && Ps.equal v.Masking.changed (ref_lanes model w (fun _ -> true) a)
            && Ps.equal v.Masking.overshadow reference)
          [
            (I.Add, fun x -> trunc w (Int64.add x other));
            (I.Sub, fun x -> trunc w (Int64.sub x other));
          ]);
  ]

let suite =
  [
    ("masking.overwrite", overwrite_tests);
    ("masking.logic", logic_tests);
    ("masking.overshadow", overshadow_tests);
    ("masking.crash-divergence", crash_divergence_tests);
    ("masking.kernel", kernel_unit);
    ("masking.kernel.properties", kernel_prop);
  ]
