(** Error patterns: how erroneous bits are distributed within a corrupted
    data element (paper §III-C).

    The default campaign uses all single-bit patterns, matching the paper's
    evaluation. The multi-bit error models of {!Errmodel} (the §VII-B
    extension) sweep bursts. *)

type t =
  | Single of int  (** flip of bit [i] *)
  | Burst of int * int
      (** [Burst (i, n)]: flip of [n] contiguous bits starting at bit [i] *)
  | Pair of int * int
      (** [Pair (i, sep)]: flips of bits [i] and [i + sep] *)

val apply : t -> Bitval.t -> Bitval.t
(** Corrupt a value image with the pattern. Applying the same pattern twice
    restores the original value (flips are involutive).
    @raise Invalid_argument if any flipped bit falls outside the width. *)

val bits_of : t -> int list
(** Bit indices the pattern flips, ascending. *)

val fits : t -> Bitval.width -> bool
(** Whether every flipped bit lies inside the width. *)

val singles : Bitval.width -> t list
(** All single-bit patterns for a width (the paper's default space). *)

val bursts : len:int -> Bitval.width -> t list
(** All contiguous [len]-bit burst patterns that fit in the width. *)

val pairs : sep:int -> Bitval.width -> t list
(** All two-bit patterns with fixed spatial separation [sep]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
