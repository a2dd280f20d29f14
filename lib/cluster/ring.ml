(* FNV-1a alone is unusable as a circle position: a one-character suffix
   change barely stirs the high bits, so sequential vnode labels (and
   sequential keys) land adjacent and the ring collapses onto one arc.
   The splitmix64 finalizer avalanches every input bit across the word. *)
let hash s = Moard_chaos.Rng.mix64 (Moard_chaos.Fnv.string s)

type t = {
  points : (int64 * string) array;  (* sorted by unsigned point *)
  names : string list;
  vnodes : int;
}

let names t = t.names
let vnodes t = t.vnodes

let compare_points (h1, n1) (h2, n2) =
  match Int64.unsigned_compare h1 h2 with
  | 0 -> String.compare n1 n2
  | c -> c

let make ?(vnodes = 64) names =
  if names = [] then invalid_arg "Ring.make: no shards";
  if vnodes < 1 then invalid_arg "Ring.make: vnodes";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n then
        invalid_arg (Printf.sprintf "Ring.make: duplicate shard %S" n);
      Hashtbl.replace seen n ())
    names;
  let points =
    Array.init
      (vnodes * List.length names)
      (fun i ->
        let name = List.nth names (i / vnodes) in
        (hash (Printf.sprintf "moard-ring-v1\n%s#%d" name (i mod vnodes)), name))
  in
  Array.sort compare_points points;
  { points; names; vnodes }

(* First point clockwise of [h] (unsigned order), wrapping. *)
let successor t h =
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.unsigned_compare (fst t.points.(mid)) h < 0 then lo := mid + 1
    else hi := mid
  done;
  if !lo = n then 0 else !lo

let owners t ?(n = 2) key =
  let want = min (max 1 n) (List.length t.names) in
  let start = successor t (hash key) in
  let total = Array.length t.points in
  let out = ref [] in
  let k = ref 0 in
  while List.length !out < want && !k < total do
    let name = snd t.points.((start + !k) mod total) in
    if not (List.mem name !out) then out := !out @ [ name ];
    incr k
  done;
  !out

let owner t key = List.hd (owners t ~n:1 key)
