(* Timing, order statistics, scratch directories and the result line
   shared by the perf harness. *)

module Jsonx = Moard_server.Jsonx

let now = Moard_chaos.Monotime.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank quantile ([q] in [0, 1]) of an unsorted sample. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile: empty sample"
  else a.(min (n - 1) (int_of_float (q *. float_of_int n)))

let median xs = quantile 0.5 xs

(* Median and quartiles as Python's [statistics.median] and
   [statistics.quantiles(xs, n=4)] compute them (exclusive method), so
   the spreads [repeat] prints match what an outside checker computes. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n < 2 then invalid_arg "quartiles: need two samples";
  let q i =
    let m = n + 1 in
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = float_of_int ((i * m) - (j * 4)) in
    ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
  in
  let med =
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
  in
  (q 1, med, q 3)

(* 0/0 reads as 0: a layer that did no work has no useful share. *)
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ---------------- scratch space ---------------- *)

(* Everything a run writes (stores, sockets, ledgers of child runs) lives
   under [.perf-run/<pid>] in the working directory and is removed at
   exit. Paths stay relative so Unix socket names stay short wherever the
   checkout lives. *)
let scratch_root = ".perf-run"
let run_dir = Filename.concat scratch_root (string_of_int (Unix.getpid ()))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let scratch name =
  let d = Filename.concat run_dir name in
  rm_rf d;
  mkdir_p d;
  d

let () =
  at_exit (fun () ->
      rm_rf run_dir;
      try Unix.rmdir scratch_root with Unix.Unix_error _ -> ())

(* ---------------- process facts ---------------- *)

(* VmHWM: the peak resident set of this process, in MiB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> find ()
      in
      find ())

let git_head () =
  match
    Unix.open_process_args_full "git"
      [| "git"; "rev-parse"; "HEAD" |]
      (Unix.environment ())
  with
  | exception Unix.Unix_error _ -> "unknown"
  | (out, _, _) as p ->
    let rev = try String.trim (input_line out) with End_of_file -> "" in
    ignore (Unix.close_process_full p);
    if String.length rev = 40 then rev else "unknown"

let header ~seed ~quick =
  Jsonx.Obj
    [
      ("host_cores", Jsonx.Int (Domain.recommended_domain_count ()));
      ("ocaml", Jsonx.Str Sys.ocaml_version);
      ("git_head", Jsonx.Str (git_head ()));
      ("seed", Jsonx.Int seed);
      ("quick", Jsonx.Bool quick);
    ]

(* ---------------- results ---------------- *)

type metric = { name : string; unit : string; value : float }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let metric name unit value = { name; unit; value }

(* The one-line JSON object a run prints last on stdout. *)
let result_json r =
  Jsonx.Obj
    [
      ("correct", Jsonx.Bool r.correct);
      ("attempted", Jsonx.Int r.attempted);
      ("failed", Jsonx.Int r.failed);
      ( "metrics",
        Jsonx.Obj
          (List.map
             (fun m ->
               ( m.name,
                 Jsonx.Obj
                   [ ("value", Jsonx.Float m.value); ("unit", Jsonx.Str m.unit) ]
               ))
             r.metrics) );
    ]

let result_of_json j =
  let get k = Jsonx.member k j in
  match
    ( Jsonx.bool (get "correct"),
      Jsonx.int (get "attempted"),
      Jsonx.int (get "failed"),
      get "metrics" )
  with
  | Some correct, Some attempted, Some failed, Some (Jsonx.Obj ms) ->
    let metric (name, m) =
      match
        (Jsonx.float (Jsonx.member "value" m), Jsonx.str (Jsonx.member "unit" m))
      with
      | Some value, Some unit -> { name; unit; value }
      | _ -> failwith ("malformed metric " ^ name)
    in
    { correct; attempted; failed; metrics = List.map metric ms }
  | _ -> failwith "malformed result line"

let log fmt = Printf.ksprintf (fun s -> prerr_endline s) fmt

let print_metrics ~workload ms =
  List.iter
    (fun m -> log "  %-14s %-36s %16.6g %s" workload m.name m.value m.unit)
    ms
