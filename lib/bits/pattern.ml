type t =
  | Single of int
  | Burst of int * int
  | Pair of int * int

let bits_of = function
  | Single i -> [ i ]
  | Burst (i, n) -> List.init n (fun k -> i + k)
  | Pair (i, sep) -> [ i; i + sep ]

let fits p width =
  let hi = Bitval.bits_in width in
  List.for_all (fun b -> b >= 0 && b < hi) (bits_of p)

let apply p v = List.fold_left Bitval.flip_bit v (bits_of p)

let singles width = List.init (Bitval.bits_in width) (fun i -> Single i)

let bursts ~len width =
  if len < 1 then invalid_arg "Pattern.bursts";
  let hi = Bitval.bits_in width in
  if len > hi then []
  else List.init (hi - len + 1) (fun i -> Burst (i, len))

let pairs ~sep width =
  if sep < 1 then invalid_arg "Pattern.pairs";
  let hi = Bitval.bits_in width in
  if sep >= hi then []
  else List.init (hi - sep) (fun i -> Pair (i, sep))

let equal (a : t) (b : t) = a = b

let pp ppf = function
  | Single i -> Format.fprintf ppf "bit[%d]" i
  | Burst (i, n) -> Format.fprintf ppf "burst[%d..%d]" i (i + n - 1)
  | Pair (i, sep) -> Format.fprintf ppf "pair[%d,%d]" i (i + sep)
