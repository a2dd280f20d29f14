(* Bit-image values and error patterns. *)

open Moard_bits
module B = Bitval

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let bitval_unit =
  [
    Alcotest.test_case "widths" `Quick (fun () ->
        check tint "w1" 1 (B.bits_in B.W1);
        check tint "w32" 32 (B.bits_in B.W32);
        check tint "w64" 64 (B.bits_in B.W64);
        check tint "b1" 1 (B.bytes_in B.W1);
        check tint "b32" 4 (B.bytes_in B.W32);
        check tint "b64" 8 (B.bytes_in B.W64));
    Alcotest.test_case "make truncates to width" `Quick (fun () ->
        let v = B.make B.W32 0xFFFF_FFFF_FFFFL in
        check (Alcotest.int64 : int64 Alcotest.testable) "low 32 bits kept"
          0xFFFF_FFFFL (v : B.t).bits);
    Alcotest.test_case "bool round trip" `Quick (fun () ->
        check tbool "true" true (B.to_bool (B.of_bool true));
        check tbool "false" false (B.to_bool (B.of_bool false)));
    Alcotest.test_case "i32 sign extension" `Quick (fun () ->
        check (Alcotest.int64) "negative" (-1L)
          (B.to_int64 (B.of_int32 (-1l)));
        check (Alcotest.int64) "positive" 5L (B.to_int64 (B.of_int32 5l)));
    Alcotest.test_case "float image round trip" `Quick (fun () ->
        let v = B.of_float (-0.1) in
        check (Alcotest.float 0.0) "exact" (-0.1) (B.to_float v));
    Alcotest.test_case "to_float rejects narrow widths" `Quick (fun () ->
        Alcotest.check_raises "w32" (Invalid_argument "Bitval.to_float: width < 64")
          (fun () -> ignore (B.to_float (B.of_int32 1l))));
    Alcotest.test_case "flip_bit out of range" `Quick (fun () ->
        Alcotest.check_raises "bit 32 of w32" (Invalid_argument "Bitval.flip_bit")
          (fun () -> ignore (B.flip_bit (B.of_int32 0l) 32)));
    Alcotest.test_case "flip changes exactly one bit" `Quick (fun () ->
        let v = B.of_int64 0x0FF0L in
        let v' = B.flip_bit v 4 in
        check tint "popcount delta" 1
          (abs (B.popcount v' - B.popcount v));
        check tbool "bit toggled" (not (B.get_bit v 4)) (B.get_bit v' 4));
    Alcotest.test_case "zero / is_zero" `Quick (fun () ->
        check tbool "zero" true (B.is_zero (B.zero B.W64));
        check tbool "nonzero" false (B.is_zero (B.of_int64 1L)));
    Alcotest.test_case "of_float nan image" `Quick (fun () ->
        let v = B.of_float Float.nan in
        check tbool "nan back" true (Float.is_nan (B.to_float v)));
  ]

let gen_w64 = QCheck2.Gen.(map B.of_int64 int64)
let gen_bit = QCheck2.Gen.(int_bound 63)

let bitval_prop =
  [
    qtest "flip_bit is an involution"
      QCheck2.Gen.(pair gen_w64 gen_bit)
      (fun (v, b) -> B.equal v (B.flip_bit (B.flip_bit v b) b));
    qtest "flip_bit never equals original"
      QCheck2.Gen.(pair gen_w64 gen_bit)
      (fun (v, b) -> not (B.equal v (B.flip_bit v b)));
    qtest "popcount within width"
      gen_w64
      (fun v -> B.popcount v >= 0 && B.popcount v <= 64);
    qtest "to_int64 of of_int64 is identity" QCheck2.Gen.int64 (fun x ->
        Int64.equal x (B.to_int64 (B.of_int64 x)));
    qtest "float image preserved" QCheck2.Gen.float (fun x ->
        let y = B.to_float (B.of_float x) in
        (Float.is_nan x && Float.is_nan y) || Float.equal x y);
    qtest "hash respects equal" QCheck2.Gen.int64 (fun x ->
        B.hash (B.of_int64 x) = B.hash (B.of_int64 x));
  ]

let pattern_unit =
  [
    Alcotest.test_case "singles counts per width" `Quick (fun () ->
        check tint "w64" 64 (List.length (Pattern.singles B.W64));
        check tint "w32" 32 (List.length (Pattern.singles B.W32));
        check tint "w1" 1 (List.length (Pattern.singles B.W1)));
    Alcotest.test_case "bursts stay in width" `Quick (fun () ->
        let bs = Pattern.bursts ~len:3 B.W32 in
        check tint "count" 30 (List.length bs);
        List.iter (fun p -> assert (Pattern.fits p B.W32)) bs);
    Alcotest.test_case "pairs with separation" `Quick (fun () ->
        let ps = Pattern.pairs ~sep:4 B.W32 in
        check tint "count" 28 (List.length ps);
        List.iter (fun p -> assert (Pattern.fits p B.W32)) ps);
    Alcotest.test_case "burst flips contiguous bits" `Quick (fun () ->
        let v = Pattern.apply (Pattern.Burst (8, 4)) (B.zero B.W64) in
        check (Alcotest.int64) "0xF00" 0xF00L (v : B.t).bits);
    Alcotest.test_case "pair flips two bits" `Quick (fun () ->
        let v = Pattern.apply (Pattern.Pair (0, 8)) (B.zero B.W64) in
        check (Alcotest.int64) "0x101" 0x101L (v : B.t).bits);
    Alcotest.test_case "apply out of width raises" `Quick (fun () ->
        Alcotest.check_raises "bit 40 of w32"
          (Invalid_argument "Bitval.flip_bit") (fun () ->
            ignore (Pattern.apply (Pattern.Single 40) (B.of_int32 0l))));
    Alcotest.test_case "bits_of ascending" `Quick (fun () ->
        check (Alcotest.list tint) "burst" [ 3; 4; 5 ]
          (Pattern.bits_of (Pattern.Burst (3, 3)));
        check (Alcotest.list tint) "pair" [ 2; 9 ]
          (Pattern.bits_of (Pattern.Pair (2, 7))));
  ]

let pattern_prop =
  [
    qtest "single apply is involutive"
      QCheck2.Gen.(pair gen_w64 gen_bit)
      (fun (v, b) ->
        let p = Pattern.Single b in
        B.equal v (Pattern.apply p (Pattern.apply p v)));
    qtest "burst apply is involutive"
      QCheck2.Gen.(triple gen_w64 (int_bound 60) (int_range 1 4))
      (fun (v, start, len) ->
        QCheck2.assume (start + len <= 64);
        let p = Pattern.Burst (start, len) in
        B.equal v (Pattern.apply p (Pattern.apply p v)));
    qtest "burst changes popcount by at most len"
      QCheck2.Gen.(triple gen_w64 (int_bound 60) (int_range 1 4))
      (fun (v, start, len) ->
        QCheck2.assume (start + len <= 64);
        let v' = Pattern.apply (Pattern.Burst (start, len)) v in
        abs (B.popcount v' - B.popcount v) <= len);
  ]

(* ---- Patternset: the lane-set algebra of the batched kernel. ---- *)

module Ps = Patternset

let patternset_unit =
  [
    Alcotest.test_case "full has width bits, empty none" `Quick (fun () ->
        let full w = Ps.full_n ~n:(B.bits_in w) in
        check tint "w64" 64 (Ps.count (full B.W64));
        check tint "w32" 32 (Ps.count (full B.W32));
        check tint "w1" 1 (Ps.count (full B.W1));
        check tint "empty" 0 (Ps.count Ps.empty));
    Alcotest.test_case "set algebra" `Quick (fun () ->
        let a = Ps.add (Ps.add Ps.empty 3) 7 in
        let b = Ps.add (Ps.add Ps.empty 7) 63 in
        check tint "union" 3 (Ps.count (Ps.union a b));
        check tint "inter" 1 (Ps.count (Ps.inter a b));
        check tint "diff" 1 (Ps.count (Ps.diff a b));
        check tbool "subset yes" true (Ps.subset (Ps.singleton 7) a);
        check tbool "subset no" false (Ps.subset b a);
        check tbool "mem" true (Ps.mem b 63);
        check tbool "removed" false (Ps.mem (Ps.remove b 63) 63));
    Alcotest.test_case "iter and fold ascend" `Quick (fun () ->
        let s = Ps.add (Ps.add (Ps.add Ps.empty 42) 0) 17 in
        let seen = ref [] in
        Ps.iter (fun i -> seen := i :: !seen) s;
        check (Alcotest.list tint) "iter" [ 0; 17; 42 ] (List.rev !seen);
        check (Alcotest.list tint) "to_bits" [ 0; 17; 42 ] (Ps.to_bits s);
        check
          (Alcotest.list tint)
          "fold" [ 42; 17; 0 ]
          (Ps.fold (fun i acc -> i :: acc) s []));
  ]

let suite =
  [
    ("bits.bitval", bitval_unit);
    ("bits.bitval.properties", bitval_prop);
    ("bits.pattern", pattern_unit);
    ("bits.pattern.properties", pattern_prop);
    ("bits.patternset", patternset_unit);
  ]
