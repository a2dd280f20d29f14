type t =
  | Single_bit
  | Double_adjacent
  | Byte_burst
  | Whole_word

let all = [ Single_bit; Double_adjacent; Byte_burst; Whole_word ]

let to_string = function
  | Single_bit -> "single-bit"
  | Double_adjacent -> "double-bit"
  | Byte_burst -> "byte-burst"
  | Whole_word -> "whole-word"

let of_string s =
  match
    List.find_opt (fun m -> String.equal (to_string m) s) all
  with
  | Some m -> Ok m
  | None ->
    Error
      (Printf.sprintf "unknown error model %S (expected one of: %s)" s
         (String.concat ", " (List.map to_string all)))

let lanes m width =
  let w = Bitval.bits_in width in
  match m with
  | Single_bit -> w
  | Double_adjacent -> max 1 (w - 1)
  | Byte_burst -> max 1 (w / 8)
  | Whole_word -> 1

let pattern_at m width i =
  let w = Bitval.bits_in width in
  if i < 0 || i >= lanes m width then
    invalid_arg "Errmodel.pattern_at: lane out of range";
  (* A W1 element degrades every model to the single possible flip, and
     we keep its canonical pattern [Single 0] across models so degenerate
     lanes share fault-cache keys with their single-bit counterparts. *)
  if w = 1 then Pattern.Single 0
  else
    match m with
    | Single_bit -> Pattern.Single i
    | Double_adjacent -> Pattern.Burst (i, 2)
    | Byte_burst -> Pattern.Burst (i * 8, 8)
    | Whole_word -> Pattern.Burst (0, w)

let patterns m width =
  List.init (lanes m width) (fun i -> pattern_at m width i)

let weight_den m =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let lcm a b = a / gcd a b * b in
  List.fold_left
    (fun acc width -> lcm acc (lanes m width))
    1
    [ Bitval.W1; Bitval.W32; Bitval.W64 ]

(* The XOR image of [pattern_at m width i], without building its bit
   list: the batched kernel asks for it once per lane. *)
let flip_mask m width i =
  if i < 0 || i >= lanes m width then
    invalid_arg "Errmodel.flip_mask: lane out of range";
  match (width, m) with
  | Bitval.W1, _ | _, Single_bit -> Int64.shift_left 1L i
  | _, Double_adjacent -> Int64.shift_left 3L i
  | _, Byte_burst -> Int64.shift_left 0xFFL (8 * i)
  | _, Whole_word -> Int64.shift_right_logical (-1L) (64 - Bitval.bits_in width)
