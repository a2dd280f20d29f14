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

let suite =
  [
    ("masking.overwrite", overwrite_tests);
    ("masking.logic", logic_tests);
    ("masking.overshadow", overshadow_tests);
    ("masking.crash-divergence", crash_divergence_tests);
  ]
