module Advf = Moard_core.Advf
module Verdict = Moard_analysis.Verdict

let fl x = Printf.sprintf "%.17g" x

let json ?(model = Moard_bits.Errmodel.Single_bit) (r : Advf.report) =
  let b = Buffer.create 1024 in
  let field ?(last = false) k v =
    Buffer.add_string b (Printf.sprintf "  %S: %s%s\n" k v (if last then "" else ","))
  in
  Buffer.add_string b "{\n";
  field "schema" "\"moard-advf-report-v1\"";
  field "object" (Printf.sprintf "%S" r.Advf.object_name);
  (* single-bit payloads omit the field, keeping historical store entries
     and golden snapshots byte-identical *)
  if model <> Moard_bits.Errmodel.Single_bit then
    field "error_model"
      (Printf.sprintf "%S" (Moard_bits.Errmodel.to_string model));
  field "involvements" (string_of_int r.Advf.involvements);
  field "masking_events" (fl r.Advf.masking_events);
  field "advf" (fl r.Advf.advf);
  let named names values =
    "{ "
    ^ String.concat ", "
        (List.mapi
           (fun i n -> Printf.sprintf "%S: %s" n (fl values.(i)))
           names)
    ^ " }"
  in
  field "by_level"
    (named (List.map Verdict.level_name Verdict.levels) r.Advf.by_level);
  field "by_kind"
    (named (List.map Verdict.kind_name Verdict.kinds) r.Advf.by_kind);
  field "patterns_analyzed" (string_of_int r.Advf.patterns_analyzed);
  field "op_resolved" (string_of_int r.Advf.op_resolved);
  field "prop_resolved" (string_of_int r.Advf.prop_resolved);
  field "fi_resolved" (string_of_int r.Advf.fi_resolved);
  field "unresolved" (string_of_int r.Advf.unresolved);
  field "fi_runs" (string_of_int r.Advf.fi_runs);
  field "fi_cache_hits" (string_of_int r.Advf.fi_cache_hits);
  field ~last:true "verdict_cache_hits" (string_of_int r.Advf.verdict_cache_hits);
  Buffer.add_string b "}\n";
  Buffer.contents b
