(** The on-disk record format of the result store: versioned, typed,
    integrity-checked.

    A record is a header followed by an opaque payload:

    {v
    offset  size  field
    0       8     magic "MOARDREC"
    8       1     format version (1)
    9       1     kind (0 advf, 1 campaign, 2 tape, 3 predict, 4 advise)
    10      8     payload length, big-endian
    18      8     FNV-1a 64 checksum of the payload, big-endian
    26      n     payload bytes
    v}

    Decoding verifies every field; a torn write, a flipped bit or a stale
    format comes back as a {!corruption} value, never as a payload — the
    store deletes such an entry and the caller recomputes. *)

type kind = Advf | Campaign | Tape | Predict | Advise

val kind_name : kind -> string

type corruption =
  | Bad_magic
  | Bad_version of int
  | Bad_kind of int
  | Truncated of { expected : int; got : int }
  | Checksum_mismatch
  | Kind_mismatch of { expected : kind; got : kind }

val corruption_name : corruption -> string

val header_bytes : int

val encode : kind:kind -> string -> string
(** Header + payload, ready to write. *)

val decode : string -> (kind * string, corruption) result
(** Parse and verify a whole record image. *)

val decode_expect : kind:kind -> string -> (string, corruption) result
(** {!decode}, additionally rejecting a record of the wrong kind. *)
