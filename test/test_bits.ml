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

(* ---- Patternset: the bit-parallel kernel's set algebra and closed
   forms, checked against bit-by-bit reference semantics. ---- *)

module Ps = Patternset

let wmask w =
  if B.bits_in w = 64 then -1L
  else Int64.sub (Int64.shift_left 1L (B.bits_in w)) 1L

let trunc w x = Int64.logand x (wmask w)

let sext w x =
  let n = B.bits_in w in
  if n = 64 then x
  else Int64.shift_right (Int64.shift_left x (64 - n)) (64 - n)

let flip w x i = trunc w (Int64.logxor x (Int64.shift_left 1L i))

(* The reference question every closed form answers: does flipping bit [i]
   of [x] leave [op x] unchanged? *)
let ref_masked w op x =
  let r0 = op x in
  List.fold_left
    (fun acc i -> if op (flip w x i) = r0 then Ps.add acc i else acc)
    Ps.empty
    (List.init (B.bits_in w) Fun.id)

let gen_width = QCheck2.Gen.oneofl [ B.W32; B.W64 ]

let gen_word w =
  QCheck2.Gen.(map (fun x -> trunc w x) (oneof [ int64; oneofl [ 0L; 1L; -1L; Int64.min_int ] ]))

let gen_w_pair =
  QCheck2.Gen.(
    gen_width >>= fun w ->
    pair (gen_word w) (gen_word w) >|= fun (a, b) -> (w, a, b))

let patternset_unit =
  [
    Alcotest.test_case "full has width bits, empty none" `Quick (fun () ->
        check tint "w64" 64 (Ps.count (Ps.full ~width:B.W64));
        check tint "w32" 32 (Ps.count (Ps.full ~width:B.W32));
        check tint "w1" 1 (Ps.count (Ps.full ~width:B.W1));
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
    Alcotest.test_case "closed-form edge cases" `Quick (fun () ->
        (* mul by zero: constant result, everything masked *)
        check tbool "mul by 0" true
          (Ps.equal (Ps.full ~width:B.W64) (Ps.mul_masked ~other:0L ~width:B.W64));
        (* out-of-range logical shift: constant zero *)
        check tbool "oob lshr" true
          (Ps.equal (Ps.full ~width:B.W64)
             (Ps.lshr_value_masked ~amount:(-1) ~width:B.W64));
        (* out-of-range arithmetic shift: only the sign bit survives *)
        check tint "oob ashr" 63
          (Ps.count (Ps.ashr_value_masked ~amount:64 ~width:B.W64));
        (* equal words: any flip breaks equality *)
        check tbool "eq of equal" true
          (Ps.is_empty (Ps.eq_masked ~a:5L ~b:5L ~width:B.W64)));
  ]

let patternset_prop =
  [
    qtest "band closed form = reference" gen_w_pair (fun (w, a, other) ->
        Ps.equal
          (Ps.band_masked ~other ~width:w)
          (ref_masked w (fun x -> Int64.logand x other) a));
    qtest "bor closed form = reference" gen_w_pair (fun (w, a, other) ->
        Ps.equal
          (Ps.bor_masked ~other ~width:w)
          (ref_masked w (fun x -> Int64.logor x other) a));
    qtest "bxor never masks" gen_w_pair (fun (w, a, other) ->
        Ps.equal (Ps.bxor_masked ~width:w)
          (ref_masked w (fun x -> trunc w (Int64.logxor x other)) a));
    qtest "add/sub never mask" gen_w_pair (fun (w, a, other) ->
        Ps.equal (Ps.addsub_masked ~width:w)
          (ref_masked w (fun x -> trunc w (Int64.add x other)) a)
        && Ps.equal (Ps.addsub_masked ~width:w)
             (ref_masked w (fun x -> trunc w (Int64.sub x other)) a));
    qtest "mul closed form = reference" gen_w_pair (fun (w, a, other) ->
        Ps.equal (Ps.mul_masked ~other ~width:w)
          (ref_masked w (fun x -> trunc w (Int64.mul x other)) a));
    qtest "shl closed form = reference"
      QCheck2.Gen.(
        gen_width >>= fun w ->
        pair (gen_word w) (int_bound (B.bits_in w - 1)) >|= fun (a, s) ->
        (w, a, s))
      (fun (w, a, s) ->
        Ps.equal
          (Ps.shl_value_masked ~amount:s ~width:w)
          (ref_masked w (fun x -> trunc w (Int64.shift_left x s)) a));
    qtest "lshr closed form = reference"
      QCheck2.Gen.(
        gen_width >>= fun w ->
        pair (gen_word w) (int_bound (B.bits_in w - 1)) >|= fun (a, s) ->
        (w, a, s))
      (fun (w, a, s) ->
        Ps.equal
          (Ps.lshr_value_masked ~amount:s ~width:w)
          (ref_masked w (fun x -> Int64.shift_right_logical (trunc w x) s) a));
    qtest "ashr closed form = reference"
      QCheck2.Gen.(
        gen_width >>= fun w ->
        pair (gen_word w) (int_bound (B.bits_in w - 1)) >|= fun (a, s) ->
        (w, a, s))
      (fun (w, a, s) ->
        Ps.equal
          (Ps.ashr_value_masked ~amount:s ~width:w)
          (ref_masked w (fun x -> trunc w (Int64.shift_right (sext w x) s)) a));
    qtest "eq closed form = reference" gen_w_pair (fun (w, a, b) ->
        Ps.equal
          (Ps.eq_masked ~a ~b ~width:w)
          (ref_masked w (fun x -> if x = b then 1L else 0L) a));
    qtest "trunc closed form = reference"
      QCheck2.Gen.(map (trunc B.W64) int64)
      (fun a ->
        Ps.equal (Ps.trunc_masked ~width:B.W64)
          (ref_masked B.W64 (fun x -> trunc B.W32 x) a));
    qtest "overshadow candidates = reference" gen_w_pair (fun (w, a, other) ->
        let reference =
          List.fold_left
            (fun acc i ->
              if Int64.abs (sext w (flip w a i)) < Int64.abs (sext w other)
              then Ps.add acc i
              else acc)
            Ps.empty
            (List.init (B.bits_in w) Fun.id)
        in
        Ps.equal (Ps.addsub_overshadow ~a ~other ~width:w) reference);
  ]

let suite =
  [
    ("bits.bitval", bitval_unit);
    ("bits.bitval.properties", bitval_prop);
    ("bits.pattern", pattern_unit);
    ("bits.pattern.properties", pattern_prop);
    ("bits.patternset", patternset_unit);
    ("bits.patternset.properties", patternset_prop);
  ]
