module Fx = Moard_chaos.Fx

let schema_version = 2

exception Rejected of string

let reject fmt = Printf.ksprintf (fun s -> raise (Rejected s)) fmt

type record = { obj : int; stratum : int; sample : int; code : int }

(* The writer is a path + effects pair, not an open channel: every
   commit opens, appends, flushes, closes.  A crash can then only lose
   the batch being written, never buffered earlier batches, and the
   injectable effects let the chaos harness tear any individual
   append. *)
type writer = { path : string; fx : Fx.t }

let magic = "moard-campaign-journal"

(* FNV-1a64 of the S-line block protects each commit: a bit flipped in
   a committed record would otherwise parse as a different valid sample
   and silently poison the resume. *)
let checksum = Moard_chaos.Fnv.hex

let header_lines ~plan_hash ~meta =
  Printf.sprintf "%s %d" magic schema_version
  :: Printf.sprintf "plan %s" plan_hash
  :: List.map
       (fun (k, v) ->
         if String.contains k ' ' || String.contains v ' ' then
           invalid_arg "Journal: meta keys/values must not contain spaces";
         Printf.sprintf "m %s %s" k v)
       meta

let create ?(fx = Fx.real) ~path ~plan_hash ~meta () =
  fx.Fx.write_file path
    (String.concat ""
       (List.map (fun l -> l ^ "\n") (header_lines ~plan_hash ~meta)));
  { path; fx }

(* Lines of the file plus whether a trailing chunk was not terminated by
   '\n' (a write cut short by the crash we are built to survive — the
   chunk is dropped). *)
let raw_lines ?(fx = Fx.real) path =
  let s = fx.Fx.read_file path in
  let parts = String.split_on_char '\n' s in
  match List.rev parts with
  | last :: rest when last <> "" -> (List.rev rest, true)
  | _ :: rest -> (List.rev rest, false)
  | [] -> ([], false)

let lines_of ?fx path = fst (raw_lines ?fx path)

let check_header path = function
  | version_line :: plan_line :: rest -> (
    (match String.split_on_char ' ' version_line with
    | [ m; v ] when m = magic ->
      let v = try int_of_string v with _ -> -1 in
      if v <> schema_version then
        reject "%s: schema version %d (this build reads %d)" path v
          schema_version
    | _ -> reject "%s: not a campaign journal" path);
    match String.split_on_char ' ' plan_line with
    | [ "plan"; h ] -> (h, rest)
    | _ -> reject "%s: missing plan hash" path)
  | _ -> reject "%s: truncated header" path

let read_meta ?fx ~path () =
  let _, rest = check_header path (lines_of ?fx path) in
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "m"; k; v ] -> Some (k, v)
      | _ -> None)
    rest

let validate ?fx ~path ~plan_hash () =
  let h, rest = check_header path (lines_of ?fx path) in
  if h <> plan_hash then
    reject "%s: journal is for plan %s, current plan is %s" path h plan_hash;
  rest

let reopen ?(fx = Fx.real) ~path ~plan_hash () =
  ignore (validate ~fx ~path ~plan_hash ());
  { path; fx }

let s_line ~obj (stratum, sample, code) =
  Printf.sprintf "S %d %d %d %d\n" obj stratum sample code

let commit_batch w ~obj records =
  let body = String.concat "" (List.map (s_line ~obj) records) in
  (* records only count once this commit line is fully on disk: replay
     drops any uncommitted tail, so a mid-batch kill resumes exactly at
     the previous batch boundary *)
  let commit =
    Printf.sprintf "C %d %d %s\n" obj (List.length records) (checksum body)
  in
  w.fx.Fx.append w.path (body ^ commit)

let close (_ : writer) = ()

(* The shared replay walk.  Returns (committed records newest-first
   reversed at the end, batches, and the position where the walk latched
   off, if any).  Anything at or after a bad line is ignored: it is
   either the crash tail (fine) or damage (fsck reports it). *)
let walk body =
  let committed = ref [] in
  let pending = ref [] (* reversed *) in
  let pending_raw = ref [] (* reversed *) in
  let npending = ref 0 in
  let batches = ref 0 in
  let bad = ref None in
  List.iteri
    (fun i line ->
      if !bad = None then
        match String.split_on_char ' ' line with
        | [ "m"; _; _ ] -> ()
        | [ "S"; o; s; i'; c ] -> (
          match
            (int_of_string o, int_of_string s, int_of_string i',
             int_of_string c)
          with
          | obj, stratum, sample, code when code >= 0 && code <= 3 ->
            pending := { obj; stratum; sample; code } :: !pending;
            pending_raw := (line ^ "\n") :: !pending_raw;
            incr npending
          | _ -> bad := Some i
          | exception _ -> bad := Some i)
        | [ "C"; o; n; h ] -> (
          match (int_of_string o, int_of_string n) with
          | obj, n
            when n = !npending
                 && List.for_all (fun r -> r.obj = obj) !pending
                 && h = checksum (String.concat "" (List.rev !pending_raw)) ->
            (* [pending] is newest-first; keep [committed] newest-first
               too, so one final reverse restores execution order *)
            committed := !pending @ !committed;
            pending := [];
            pending_raw := [];
            npending := 0;
            incr batches
          | _ -> bad := Some i
          | exception _ -> bad := Some i)
        | _ -> bad := Some i)
    body;
  (List.rev !committed, !batches, !bad)

let replay ?fx ~path ~plan_hash () =
  let body = validate ?fx ~path ~plan_hash () in
  let records, _, _ = walk body in
  records

type fsck_report = {
  path : string;
  header_ok : bool;
  plan_hash : string option;
  meta : (string * string) list;
  batches : int;
  records : int;
  torn_tail : bool;
  bad_line : int option;
}

let fsck ?fx ~path () =
  let lines, torn_tail = raw_lines ?fx path in
  match check_header path lines with
  | exception Rejected _ ->
    {
      path;
      header_ok = false;
      plan_hash = None;
      meta = [];
      batches = 0;
      records = 0;
      torn_tail;
      bad_line = None;
    }
  | plan_hash, body ->
    let records, batches, bad = walk body in
    let meta =
      List.filter_map
        (fun line ->
          match String.split_on_char ' ' line with
          | [ "m"; k; v ] -> Some (k, v)
          | _ -> None)
        body
    in
    {
      path;
      header_ok = true;
      plan_hash = Some plan_hash;
      meta;
      batches;
      records = List.length records;
      torn_tail;
      (* body starts after the 2 header lines; report 1-based file line *)
      bad_line = Option.map (fun i -> i + 3) bad;
    }
