(** FNV-1a 64: the one digest behind plan and program hashes, store
    record, journal commit and frame checksums, chaos schedule hashes and
    ring points. Unlike [Hashtbl.hash] it is specified byte by byte, so
    stored records, journals and the golden key snapshot stay valid
    across processes, hosts and OCaml versions. *)

val offset : int64
(** The digest of no bytes. *)

val add_byte : int64 -> int -> int64
(** [add_byte h b] extends the digest [h] by the byte [b land 0xFF]. *)

val add_string : int64 -> string -> int64
(** [add_string h s] extends the digest [h] by every byte of [s]. *)

val string : string -> int64
(** The digest of a string. *)

val hex : string -> string
(** {!string} as 16 lowercase hex digits. *)
