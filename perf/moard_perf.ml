(* moard_perf: end-to-end benchmark of cold aDVF queries and served hits,
   with a traced per-layer ledger. Run from the repository root:

     dune exec perf/moard_perf.exe -- bench --workload cold-fi --seed 1 \
       --seconds 20 --trace 0          one workload in this process
     dune exec perf/moard_perf.exe -- all --seed 1 [--quick] [--out F]
     dune exec perf/moard_perf.exe -- trace --seed 1 [--quick] [--out F]
     dune exec perf/moard_perf.exe -- repeat 3 --seed 1 [--out F]
     dune exec perf/moard_perf.exe -- expect

   [bench] prints its metrics on stderr and, as the last line of stdout,
   one JSON object {correct, attempted, failed, metrics}: end-to-end
   metrics untraced ([--trace 0]), per-layer metrics traced
   ([--trace 1]). [all], [trace] and [repeat] run each workload in a
   child [bench] process, so heap state, peak RSS and the process-wide
   counters of one workload never leak into the next. [expect]
   regenerates the correctness gate, perf/expected_payloads.tsv. *)

module Jsonx = Moard_server.Jsonx

type args = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float option;
  mutable trace : bool;
  mutable out : string option;
  mutable quick : bool;
  mutable positional : string list;
}

let usage () =
  prerr_endline
    "usage: moard_perf (bench --workload W --seconds S --trace 0|1 | all | \
     trace | repeat N | expect) [--seed N] [--seconds S] [--quick] [--out F]";
  exit 2

let parse argv =
  let a =
    {
      workload = None;
      seed = 1;
      seconds = None;
      trace = false;
      out = None;
      quick = false;
      positional = [];
    }
  in
  let rec go = function
    | "--workload" :: v :: rest -> a.workload <- Some v; go rest
    | "--seed" :: v :: rest -> a.seed <- int_of_string v; go rest
    | "--seconds" :: v :: rest -> a.seconds <- Some (float_of_string v); go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> a.trace <- v = "1"; go rest
    | "--out" :: v :: rest -> a.out <- Some v; go rest
    | "--quick" :: rest -> a.quick <- true; go rest
    | v :: rest when not (String.starts_with ~prefix:"--" v) ->
      a.positional <- a.positional @ [ v ];
      go rest
    | [] -> ()
    | v :: _ ->
      prerr_endline ("unknown or incomplete option " ^ v);
      usage ()
  in
  go argv;
  a

let write_file path s = Out_channel.with_open_text path (fun oc -> output_string oc s)

(* BENCHMARK.json at the repository root: run length and bounds. *)
let benchmark_json () =
  match Jsonx.parse (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith ("BENCHMARK.json: " ^ e)

let seconds_of a =
  if a.quick then 1.
  else
    match a.seconds with
    | Some s -> s
    | None -> (
      match Jsonx.float (Jsonx.member "run_seconds" (benchmark_json ())) with
      | Some s -> s
      | None -> failwith "BENCHMARK.json: run_seconds missing")

(* ---------------- one workload, in this process ---------------- *)

let bench a =
  let w =
    match a.workload with Some n -> Workloads.find n | None -> usage ()
  in
  let result, detail =
    if a.trace then Ledger.run ~seconds:(seconds_of a) ~quick:a.quick w
    else
      (Workloads.run ~seed:a.seed ~seconds:(seconds_of a) ~quick:a.quick w, [])
  in
  Util.log "%s (%s): %d attempted, %d failed, correct %b" w.Workloads.name
    (if a.trace then "traced" else "untraced")
    result.Util.attempted result.Util.failed result.Util.correct;
  Util.print_metrics ~workload:w.Workloads.name (result.Util.metrics @ detail);
  Option.iter
    (fun path ->
      write_file path
        (Jsonx.to_string
           (Jsonx.Obj
              ([
                 ("workload", Jsonx.Str w.Workloads.name);
                 ("result", Util.result_json result);
                 ( "detail",
                   Jsonx.Obj
                     (List.map
                        (fun m -> (m.Util.name, Jsonx.Float m.Util.value))
                        detail) );
               ]
              @ if a.trace then [ ("spans", Ledger.spans_json ()) ] else []))))
    a.out;
  print_endline (Jsonx.to_string (Util.result_json result))

(* ---------------- child runs ---------------- *)

(* Run [bench] for one workload in a child process; its stderr passes
   through, its last stdout line is the result. *)
let child a ~seed ~trace ?out (w : Workloads.t) =
  let args =
    [
      "bench"; "--workload"; w.Workloads.name; "--seed"; string_of_int seed;
      "--trace"; (if trace then "1" else "0");
    ]
    @ (if a.quick then [ "--quick" ]
       else [ "--seconds"; Printf.sprintf "%g" (seconds_of a) ])
    @ match out with Some f -> [ "--out"; f ] | None -> []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let output = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> (
    let lines = List.filter (( <> ) "") (String.split_on_char '\n' output) in
    match Jsonx.parse (List.nth lines (List.length lines - 1)) with
    | Ok j -> Util.result_of_json j
    | Error e -> failwith (w.Workloads.name ^ ": bad result line: " ^ e))
  | _ -> failwith (w.Workloads.name ^ ": benchmark run failed")

let print_table rows =
  Printf.printf "%-14s %-34s %16s %s\n" "workload" "metric" "value" "unit";
  List.iter
    (fun (name, (r : Util.result)) ->
      List.iter
        (fun (m : Util.metric) ->
          Printf.printf "%-14s %-34s %16.6g %s\n" name m.Util.name m.Util.value
            m.Util.unit)
        r.Util.metrics;
      Printf.printf "%-14s %-34s %16d/%d %s\n" name "failed/attempted" r.Util.failed
        r.Util.attempted
        (if r.Util.correct then "correct" else "WRONG"))
    rows

let ok rows =
  List.for_all (fun (_, (r : Util.result)) -> r.Util.correct && r.Util.failed = 0) rows

let results_doc a fields =
  Jsonx.to_string
    (Jsonx.Obj (("header", Util.header ~seed:a.seed ~quick:a.quick) :: fields))

let all a =
  let rows =
    List.map
      (fun w -> (w.Workloads.name, child a ~seed:a.seed ~trace:false w))
      Workloads.all
  in
  print_table rows;
  Option.iter
    (fun path ->
      write_file path
        (results_doc a
           [
             ("seconds", Jsonx.Float (seconds_of a));
             ( "workloads",
               Jsonx.Obj (List.map (fun (n, r) -> (n, Util.result_json r)) rows) );
           ]))
    a.out;
  if not (ok rows) then exit 1

(* The traced run of every workload; with --out, one ledger file holding
   each workload's per-layer metrics, detail counters and spans. *)
let trace a =
  let dir = Util.scratch "ledgers" in
  let rows =
    List.map
      (fun w ->
        let out = Filename.concat dir (w.Workloads.name ^ ".json") in
        (w.Workloads.name, out, child a ~seed:a.seed ~trace:true ~out w))
      Workloads.all
  in
  print_table (List.map (fun (n, _, r) -> (n, r)) rows);
  Option.iter
    (fun path ->
      let ledgers =
        List.map (fun (_, f, _) -> In_channel.with_open_text f In_channel.input_all) rows
      in
      write_file path
        (Printf.sprintf "{\"header\":%s,\"workloads\":[%s]}"
           (Jsonx.to_string (Util.header ~seed:a.seed ~quick:a.quick))
           (String.concat "," ledgers)))
    a.out;
  if not (ok (List.map (fun (n, _, r) -> (n, r)) rows)) then exit 1

(* [all] N times on seeds seed .. seed+N-1: median and quartiles per
   (workload, metric), flagging every spread (interquartile range over
   median) wider than the metric's regression bound. *)
let repeat a n =
  let bounds =
    List.filter_map
      (fun m ->
        match
          (Jsonx.str (Jsonx.member "name" m), Jsonx.float (Jsonx.member "bound" m))
        with
        | Some name, Some b -> Some (name, b)
        | _ -> None)
      (Option.value ~default:[]
         (Jsonx.list (Jsonx.member "end_to_end" (benchmark_json ()))))
  in
  let runs =
    List.init n (fun i ->
        List.map
          (fun w -> (w.Workloads.name, child a ~seed:(a.seed + i) ~trace:false w))
          Workloads.all)
  in
  let flagged = ref 0 in
  Printf.printf "%-14s %-16s %12s %12s %12s %8s %6s\n" "workload" "metric" "q1"
    "median" "q3" "spread" "bound";
  let summary =
    List.map
      (fun w ->
        let name = w.Workloads.name in
        let rs = List.map (List.assoc name) runs in
        let metrics = List.map (fun m -> m.Util.name) (List.hd rs).Util.metrics in
        ( name,
          Jsonx.Obj
            (List.map
               (fun metric ->
                 let vs =
                   List.map
                     (fun (r : Util.result) ->
                       (List.find (fun m -> m.Util.name = metric) r.Util.metrics)
                         .Util.value)
                     rs
                 in
                 let q1, med, q3 =
                   if n >= 2 then Util.quartiles vs
                   else
                     let m = Util.median vs in
                     (m, m, m)
                 in
                 let spread = (q3 -. q1) /. med in
                 let bound = List.assoc_opt metric bounds in
                 let flag =
                   match bound with
                   | Some b when metric <> "setup_s" && spread > b ->
                     incr flagged;
                     "  SPREAD > BOUND"
                   | _ -> ""
                 in
                 Printf.printf "%-14s %-16s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%%s\n"
                   name metric
                   q1 med q3 (100. *. spread)
                   (100. *. Option.value ~default:nan bound)
                   flag;
                 ( metric,
                   Jsonx.Obj
                     [
                       ("values", Jsonx.Arr (List.map (fun v -> Jsonx.Float v) vs));
                       ("q1", Jsonx.Float q1);
                       ("median", Jsonx.Float med);
                       ("q3", Jsonx.Float q3);
                       ("spread", Jsonx.Float spread);
                     ] ))
               metrics) ))
      Workloads.all
  in
  Printf.printf "%d metric(s) flagged; failed runs: %d\n" !flagged
    (List.length (List.filter (fun rows -> not (ok rows)) runs));
  Option.iter
    (fun path ->
      write_file path
        (results_doc a
           [
             ("repeats", Jsonx.Int n);
             ("seconds", Jsonx.Float (seconds_of a));
             ("workloads", Jsonx.Obj summary);
           ]))
    a.out


let () =
  match Array.to_list Sys.argv with
  | _ :: cmd :: rest -> (
    let a = parse rest in
    try
      match (cmd, a.positional) with
      | "bench", [] -> bench a
      | "all", [] -> all a
      | "trace", [] -> trace a
      | "repeat", [ n ] -> repeat a (int_of_string n)
      | "expect", [] -> Workloads.write_expected ()
      | _ -> usage ()
    with Failure msg | Sys_error msg ->
      prerr_endline ("moard_perf: " ^ msg);
      exit 1)
  | _ -> usage ()
