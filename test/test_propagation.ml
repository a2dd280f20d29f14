(* Error-propagation replay (paper §III-D): contamination tracking,
   masking, divergence, window behaviour. *)

module Prop = Moard_analysis.Propagation
module Masking = Moard_analysis.Masking
module Verdict = Moard_analysis.Verdict
module Consume = Moard_trace.Consume
module Pattern = Moard_bits.Pattern
module Machine = Moard_vm.Machine
module Ast = Moard_lang.Ast
open Tutil

let replay ?(k = 50) ?(outputs = []) m tape site pattern =
  let e = event_of tape site in
  match Masking.analyze e site.Consume.kind pattern with
  | Masking.Changed { out; _ } ->
    let init =
      match out with
      | Masking.To_reg { frame; reg; value } ->
        Prop.From_reg { frame; reg; value }
      | Masking.To_mem { addr; value; ty } -> Prop.From_mem { addr; value; ty }
    in
    let outputs = List.map (Machine.object_of m) outputs in
    Prop.replay ~tape ~k ~shadow_cap:256 ~outputs
      ~start:site.Consume.event_idx ~init
  | _ -> Alcotest.fail "expected an unmasked, changed operation"

let tests =
  [
    Alcotest.test_case "clean overwrite kills contamination" `Quick
      (fun () ->
        (* t = a[0] * 2 (consumed); t is then overwritten before use *)
        let open Ast.Dsl in
        let m, tape =
          trace_program
            [ garr_f64_init "a" [| 2.0 |]; garr_f64 "out" 1 ]
            [
              fn "main"
                [
                  flt_ "t" ("a".%(i 0) * f 2.0);
                  "t" <-- f 5.0;
                  ("out".%(i 0) <- v "t");
                  ret_void;
                ];
            ]
        in
        let s = site_on m tape "a" is_read in
        match replay ~outputs:[ "out" ] m tape s (Pattern.Single 40) with
        | Prop.Masked Verdict.Overwrite -> ()
        | v ->
          Alcotest.failf "expected overwrite masking, got %s"
            (match v with
            | Prop.Masked k -> "masked/" ^ Verdict.kind_name k
            | Prop.Crash_certain _ -> "crash"
            | Prop.Unresolved r -> Prop.reason_name r));
    Alcotest.test_case "dead contamination is dropped" `Quick (fun () ->
        (* the corrupted product is never read again *)
        let open Ast.Dsl in
        let m, tape =
          trace_program
            [ garr_f64_init "a" [| 2.0 |]; garr_f64 "scratch" 1; garr_f64 "out" 1 ]
            [
              fn "main"
                [
                  ("scratch".%(i 0) <- "a".%(i 0) * f 2.0);
                  ("out".%(i 0) <- f 1.0);
                  ret_void;
                ];
            ]
        in
        let s = site_on m tape "a" is_read in
        match replay ~outputs:[ "out" ] m tape s (Pattern.Single 40) with
        | Prop.Masked _ -> ()
        | _ -> Alcotest.fail "never-consumed contamination must be masked");
    Alcotest.test_case "contaminated output cell is unresolved" `Quick
      (fun () ->
        let open Ast.Dsl in
        let m, tape =
          trace_program
            [ garr_f64_init "a" [| 2.0 |]; garr_f64 "out" 1 ]
            [
              fn "main"
                [ ("out".%(i 0) <- "a".%(i 0) * f 2.0); ret_void ];
            ]
        in
        let s = site_on m tape "a" is_read in
        match replay ~outputs:[ "out" ] m tape s (Pattern.Single 40) with
        | Prop.Unresolved
            (Prop.Output_contaminated | Prop.Window_exhausted) -> ()
        | _ -> Alcotest.fail "corrupted output must need fault injection");
    Alcotest.test_case "branch flip is control divergence" `Quick (fun () ->
        let open Ast.Dsl in
        let m, tape =
          trace_program
            [ garr_f64_init "a" [| 2.0 |]; garr_f64 "out" 1 ]
            [
              fn "main"
                [
                  flt_ "t" ("a".%(i 0) * f 1.0);
                  flt_ "r" (f 0.0);
                  when_ (v "t" > f 100.0) [ "r" <-- f 1.0 ];
                  ("out".%(i 0) <- v "r");
                  ret_void;
                ];
            ]
        in
        let s = site_on m tape "a" is_read in
        (* flipping a zero exponent bit of 2.0 sends t far above 100 *)
        match replay ~outputs:[ "out" ] m tape s (Pattern.Single 61) with
        | Prop.Unresolved Prop.Control_divergence -> ()
        | _ -> Alcotest.fail "expected control divergence");
    Alcotest.test_case "branch not flipped continues and masks" `Quick
      (fun () ->
        let open Ast.Dsl in
        let m, tape =
          trace_program
            [ garr_f64_init "a" [| 2.0 |]; garr_f64 "out" 1 ]
            [
              fn "main"
                [
                  flt_ "t" ("a".%(i 0) * f 1.0);
                  flt_ "r" (f 0.0);
                  when_ (v "t" > f 100.0) [ "r" <-- f 1.0 ];
                  ("out".%(i 0) <- v "r");
                  ret_void;
                ];
            ]
        in
        let s = site_on m tape "a" is_read in
        (* low-bit flip keeps t < 100: the compare masks, r stays clean *)
        match replay ~outputs:[ "out" ] m tape s (Pattern.Single 2) with
        | Prop.Masked _ -> ()
        | _ -> Alcotest.fail "low-bit flip should die at the comparison");
    Alcotest.test_case "contamination crossing a call is tracked" `Quick
      (fun () ->
        let open Ast.Dsl in
        let m, tape =
          trace_program
            [ garr_f64_init "a" [| 2.0 |]; garr_f64 "out" 1 ]
            [
              fn "scale" ~params:[ ("x", Ast.Tf64) ] ~ret:Ast.Tf64
                [ flt_ "y" (v "x" * f 3.0); "y" <-- f 1.0; ret (v "y") ];
              fn "main"
                [
                  flt_ "t" ("a".%(i 0) + f 1.0);
                  ("out".%(i 0) <- call "scale" [ v "t" ]);
                  ret_void;
                ];
            ]
        in
        let s = site_on m tape "a" is_read in
        (* t is contaminated, passed into scale, used to build y, but y is
           overwritten with a clean constant before being returned *)
        match replay ~outputs:[ "out" ] m tape s (Pattern.Single 30) with
        | Prop.Masked _ -> ()
        | v ->
          Alcotest.failf "expected masking through the call, got %s"
            (match v with
            | Prop.Unresolved r -> Prop.reason_name r
            | Prop.Crash_certain _ -> "crash"
            | Prop.Masked _ -> assert false));
    Alcotest.test_case "contaminated return value reaches the caller" `Quick
      (fun () ->
        let open Ast.Dsl in
        let m, tape =
          trace_program
            [ garr_f64_init "a" [| 2.0 |]; garr_f64 "out" 1 ]
            [
              fn "id" ~params:[ ("x", Ast.Tf64) ] ~ret:Ast.Tf64
                [ ret (v "x" * f 1.0) ];
              fn "main"
                [
                  flt_ "t" ("a".%(i 0) + f 1.0);
                  ("out".%(i 0) <- call "id" [ v "t" ]);
                  ret_void;
                ];
            ]
        in
        let s = site_on m tape "a" is_read in
        match replay ~outputs:[ "out" ] m tape s (Pattern.Single 30) with
        | Prop.Unresolved
            (Prop.Output_contaminated | Prop.Window_exhausted) -> ()
        | _ -> Alcotest.fail "the corrupted value flows to the output");
    Alcotest.test_case "short window gives up where a long one masks" `Quick
      (fun () ->
        let open Ast.Dsl in
        let m, tape =
          trace_program
            [ garr_f64_init "a" [| 2.0 |]; garr_f64 "buf" 1; garr_f64 "out" 1 ]
            [
              fn "main"
                [
                  ("buf".%(i 0) <- "a".%(i 0) * f 2.0);
                  (* filler that does not touch buf *)
                  flt_ "w" (f 0.0);
                  for_ "k" (i 0) (i 12) [ "w" <-- v "w" + f 1.0 ];
                  (* the contaminated cell is finally overwritten clean *)
                  ("buf".%(i 0) <- v "w");
                  ("out".%(i 0) <- "buf".%(i 0));
                  ret_void;
                ];
            ]
        in
        let s = site_on m tape "a" is_read in
        (match replay ~k:5 ~outputs:[ "out" ] m tape s (Pattern.Single 40) with
        | Prop.Unresolved Prop.Window_exhausted -> ()
        | _ -> Alcotest.fail "k=5 must give up");
        match replay ~k:200 ~outputs:[ "out" ] m tape s (Pattern.Single 40) with
        | Prop.Masked Verdict.Overwrite -> ()
        | _ -> Alcotest.fail "k=200 must see the clean overwrite");
    Alcotest.test_case "wild store address is unresolved" `Quick (fun () ->
        let open Ast.Dsl in
        let m, tape =
          trace_program
            [ garr_i64_init "ix" [| 1L |]; garr_f64 "buf" 4; garr_f64 "out" 1 ]
            [
              fn "main"
                [
                  int_ "j" ("ix".%(i 0) + i 1);
                  ("buf".%(v "j") <- f 3.0);
                  ("out".%(i 0) <- "buf".%(i 2));
                  ret_void;
                ];
            ]
        in
        let s = site_on m tape "ix" is_read in
        (* corrupted index -> the store goes somewhere else *)
        match replay ~outputs:[ "out" ] m tape s (Pattern.Single 5) with
        | Prop.Unresolved Prop.Wild_access -> ()
        | v ->
          Alcotest.failf "expected wild access, got %s"
            (match v with
            | Prop.Unresolved r -> Prop.reason_name r
            | Prop.Masked k -> "masked/" ^ Verdict.kind_name k
            | Prop.Crash_certain _ -> "crash"));
    Alcotest.test_case "certain crash via corrupted divisor downstream"
      `Quick (fun () ->
        let open Ast.Dsl in
        let m, tape =
          trace_program
            [ garr_i64_init "d" [| 3L |]; garr_f64 "out" 1 ]
            [
              fn "main"
                [
                  int_ "t" ("d".%(i 0) - i 1);  (* consumed here: t = 2 *)
                  ("out".%(i 0) <- to_f (i 100 / v "t"));
                  ret_void;
                ];
            ]
        in
        let s = site_on m tape "d" is_read in
        (* 3 ^ bit0 = 2 -> t = 1? no: flip bit 0 of 3 gives 2, t=1, fine.
           flip bit 1: 3 -> 1, t = 0 -> division by zero downstream *)
        match replay ~outputs:[ "out" ] m tape s (Pattern.Single 1) with
        | Prop.Crash_certain Moard_vm.Trap.Div_by_zero -> ()
        | _ -> Alcotest.fail "expected certain crash");
  ]

let suite = [ ("propagation.replay", tests) ]
