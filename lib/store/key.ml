module Model = Moard_core.Model
module Plan = Moard_campaign.Plan

type t = string

let to_hex k = k

let of_parts parts =
  let b = Buffer.create 256 in
  Buffer.add_string b "moard-store-key-v1\n";
  List.iter
    (fun (k, v) ->
      if String.contains k '\n' || String.contains v '\n' then
        invalid_arg "Key.of_parts: newline in part";
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b v;
      Buffer.add_char b '\n')
    parts;
  Digest.to_hex (Digest.string (Buffer.contents b))

let program_hash p = Record.fnv1a64_hex (Moard_ir.Text.to_string p)

let advf ~program ~object_name ~(options : Model.options) =
  of_parts
    [
      ("query", "advf");
      ("program", program_hash program);
      ("object", object_name);
      (* The single-bit rendering "single" predates error models and must
         keep producing the same key, so existing store entries still
         resolve; other models use their canonical name. *)
      ( "pattern",
        if options.Model.model <> Moard_bits.Errmodel.Single_bit then
          Moard_bits.Errmodel.to_string options.Model.model
        else "single" );
      ("k", string_of_int options.Model.k);
      ("shadow_cap", string_of_int options.Model.shadow_cap);
      ("fi_budget", string_of_int options.Model.fi_budget);
      ("use_cache", string_of_bool options.Model.use_cache);
    ]

let campaign ~program ~plan =
  of_parts
    [
      ("query", "campaign");
      ("program", program_hash program);
      ("plan", Plan.hash plan);
    ]

let predict ~programs ~object_name ~model ~seed ~confidence ~ci_width
    ~max_samples ~target =
  let programs = List.sort (fun (a, _) (b, _) -> compare a b) programs in
  of_parts
    [
      ("query", "predict");
      ( "programs",
        String.concat ","
          (List.map
             (fun (size, p) -> Printf.sprintf "%d:%s" size (program_hash p))
             programs) );
      ("object", object_name);
      ("pattern", Moard_bits.Errmodel.to_string model);
      ("seed", string_of_int seed);
      ("confidence", Printf.sprintf "%.17g" confidence);
      ("ci_width", Printf.sprintf "%.17g" ci_width);
      ("max_samples", string_of_int max_samples);
      ("target", string_of_int target);
    ]

let advise ~program ~objects ~model ~seed ~confidence ~ci_width
    ~max_samples =
  of_parts
    [
      ("query", "advise");
      ("program", program_hash program);
      ("objects", String.concat "," objects);
      ("pattern", Moard_bits.Errmodel.to_string model);
      ("seed", string_of_int seed);
      ("confidence", Printf.sprintf "%.17g" confidence);
      ("ci_width", Printf.sprintf "%.17g" ci_width);
      ("max_samples", string_of_int max_samples);
      (* the advisor's transform generation is part of the function being
         cached: changing what plans are generated or how a transform
         rewrites the IR must go cold, not serve stale advice *)
      ("transforms", "v1");
    ]

let tape ~program ~entry =
  of_parts
    [ ("query", "tape"); ("program", program_hash program); ("entry", entry) ]
