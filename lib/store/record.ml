type kind = Advf | Campaign | Tape | Predict | Advise

let kind_name = function
  | Advf -> "advf"
  | Campaign -> "campaign"
  | Tape -> "tape"
  | Predict -> "predict"
  | Advise -> "advise"

let kind_code = function
  | Advf -> 0
  | Campaign -> 1
  | Tape -> 2
  | Predict -> 3
  | Advise -> 4

let kind_of_code = function
  | 0 -> Some Advf
  | 1 -> Some Campaign
  | 2 -> Some Tape
  | 3 -> Some Predict
  | 4 -> Some Advise
  | _ -> None

type corruption =
  | Bad_magic
  | Bad_version of int
  | Bad_kind of int
  | Truncated of { expected : int; got : int }
  | Checksum_mismatch
  | Kind_mismatch of { expected : kind; got : kind }

let corruption_name = function
  | Bad_magic -> "bad-magic"
  | Bad_version v -> Printf.sprintf "bad-version-%d" v
  | Bad_kind k -> Printf.sprintf "bad-kind-%d" k
  | Truncated { expected; got } ->
    Printf.sprintf "truncated-%d-of-%d" got expected
  | Checksum_mismatch -> "checksum-mismatch"
  | Kind_mismatch { expected; got } ->
    Printf.sprintf "kind-%s-where-%s-expected" (kind_name got)
      (kind_name expected)

let magic = "MOARDREC"
let version = 1
let header_bytes = 8 + 1 + 1 + 8 + 8

let encode ~kind payload =
  let b = Bytes.create (header_bytes + String.length payload) in
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set_uint8 b 8 version;
  Bytes.set_uint8 b 9 (kind_code kind);
  Bytes.set_int64_be b 10 (Int64.of_int (String.length payload));
  Bytes.set_int64_be b 18 (Moard_chaos.Fnv.string payload);
  Bytes.blit_string payload 0 b header_bytes (String.length payload);
  Bytes.unsafe_to_string b

let decode s =
  let n = String.length s in
  if n < header_bytes then Error (Truncated { expected = header_bytes; got = n })
  else if String.sub s 0 8 <> magic then Error Bad_magic
  else
    let b = Bytes.unsafe_of_string s in
    let v = Bytes.get_uint8 b 8 in
    if v <> version then Error (Bad_version v)
    else
      match kind_of_code (Bytes.get_uint8 b 9) with
      | None -> Error (Bad_kind (Bytes.get_uint8 b 9))
      | Some kind ->
        let len = Int64.to_int (Bytes.get_int64_be b 10) in
        if len < 0 || n <> header_bytes + len then
          Error (Truncated { expected = header_bytes + max 0 len; got = n })
        else
          let payload = String.sub s header_bytes len in
          if Moard_chaos.Fnv.string payload <> Bytes.get_int64_be b 18 then
            Error Checksum_mismatch
          else Ok (kind, payload)

let decode_expect ~kind s =
  match decode s with
  | Error _ as e -> e
  | Ok (k, payload) ->
    if k = kind then Ok payload
    else Error (Kind_mismatch { expected = kind; got = k })
