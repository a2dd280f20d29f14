(** First-class error models (paper §III-A).

    The aDVF definition is parameterized by the error model: the set of
    bit-flip patterns a transient fault may imprint on one data element.
    Historically the code base hard-wired the single-bit model — one flip
    per bit of the element, 64 patterns per W64 site. This module makes
    the model an explicit value so every layer (masking kernel, resolver,
    exhaustive sweep, campaign strata, store keys, daemon protocol) can be
    parameterized by it.

    A model instantiated at a width yields an ordered list of patterns,
    its {e lanes}. Lane order is canonical: lane [i] of [Single_bit] at
    any width is the flip of bit [i], so single-bit lanes coincide with
    bit indices — which is what keeps every single-bit result (reports,
    goldens, store keys, campaign plans) byte-identical to the historical
    behavior. Every model has at most 64 lanes at any width, so a
    {!Patternset.t} word indexed by lane keeps working as the verdict-set
    representation. *)

type t =
  | Single_bit  (** one flipped bit; [w] lanes *)
  | Double_adjacent  (** two adjacent flipped bits; [w-1] lanes *)
  | Byte_burst  (** one aligned 8-bit burst; [w/8] lanes *)
  | Whole_word  (** every bit flipped; 1 lane *)

val all : t list

val to_string : t -> string
(** Canonical form, bound into store keys and reports:
    ["single-bit"], ["double-bit"], ["byte-burst"], ["whole-word"]. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; [Error] carries a message listing the valid
    forms. *)

val lanes : t -> Bitval.width -> int
(** Number of patterns the model yields at a width. A W1 element degrades
    every model to the one possible flip, so [lanes] is always ≥ 1 and
    ≤ [Bitval.bits_in width]. *)

val pattern_at : t -> Bitval.width -> int -> Pattern.t
(** The pattern of one lane. [pattern_at Single_bit w i = Single i].
    @raise Invalid_argument if the lane is out of range. *)

val patterns : t -> Bitval.width -> Pattern.t list
(** All lanes in order. [patterns Single_bit w = Pattern.singles w]. *)

val weight_den : t -> int
(** Least common multiple of [lanes m width] over every operand width —
    the exact common denominator for per-involvement pattern weights
    ([1 / lanes]), so aDVF accumulation can run on integer numerators:
    64 for single-bit, 1953 for double-bit, 8 for byte-burst, 1 for
    whole-word. *)

val flip_mask : t -> Bitval.width -> int -> int64
(** The XOR image of one lane: bit [b] set iff the lane's pattern flips
    bit [b]. The batched masking kernel corrupts an operand by XOR-ing
    its clean bits with this mask (DESIGN.md §11).
    @raise Invalid_argument if the lane is out of range. *)
