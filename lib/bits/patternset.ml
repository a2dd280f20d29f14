type t = int64

let empty = 0L
let bit i = Int64.shift_left 1L i

let full_n ~n =
  if n <= 0 then empty
  else if n >= 64 then -1L
  else Int64.sub (bit n) 1L

let singleton i = bit i
let mem s i = not (Int64.equal (Int64.logand s (bit i)) 0L)
let add s i = Int64.logor s (bit i)
let remove s i = Int64.logand s (Int64.lognot (bit i))
let union = Int64.logor
let inter = Int64.logand
let diff a b = Int64.logand a (Int64.lognot b)
let is_empty s = Int64.equal s 0L
let equal = Int64.equal
let subset a b = Int64.equal (Int64.logand a (Int64.lognot b)) 0L

let count s =
  let rec go acc b =
    if Int64.equal b 0L then acc
    else go (acc + 1) (Int64.logand b (Int64.sub b 1L))
  in
  go 0 s

(* Index of the lowest set bit of a non-zero word. *)
let lowest b = count (Int64.sub (Int64.logand b (Int64.neg b)) 1L)

let iter f s =
  let rest = ref s in
  while not (Int64.equal !rest 0L) do
    let i = lowest !rest in
    f i;
    rest := Int64.logand !rest (Int64.sub !rest 1L)
  done

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let to_bits s = List.rev (fold (fun i acc -> i :: acc) s [])

let pp ppf s =
  Format.fprintf ppf "{%s}"
    (String.concat "," (List.map string_of_int (to_bits s)))
