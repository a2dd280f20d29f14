type t = { mutable state : int64 }

let gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_int64 s = { state = s }
let make seed = of_int64 (mix64 (Int64.of_int seed))

let of_path ~seed path =
  let s =
    List.fold_left
      (fun acc c -> mix64 (Int64.add (Int64.mul acc gamma) (Int64.of_int (c + 1))))
      (mix64 (Int64.of_int seed))
      path
  in
  of_int64 s

let next t =
  t.state <- Int64.add t.state gamma;
  mix64 t.state

let next_int t bound =
  if bound <= 0 then invalid_arg "Rng.next_int: bound";
  if bound = 1 then 0
  else begin
    (* rejection sampling over the smallest covering power of two: no
       modulo bias, and the draw count per call is deterministic for a
       given stream, which the reproducibility guarantee rests on *)
    let mask =
      let rec up m = if m >= bound - 1 then m else up ((m lsl 1) lor 1) in
      up 1
    in
    let rec draw () =
      let v = Int64.to_int (Int64.logand (next t) (Int64.of_int mask)) in
      if v < bound then v else draw ()
    in
    draw ()
  end

let next_float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = next_int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
