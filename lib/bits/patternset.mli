(** A set of error patterns over one operand word, stored as an [int64]
    bit mask: bit [i] of the set stands for lane [i] of the error model
    in force — pattern [Errmodel.pattern_at model width i]. Every model
    has at most 64 lanes at any width, so one word always suffices. Under
    the single-bit model lane [i] is exactly the pattern "flip bit [i] of
    the operand" ({!Pattern.Single}[ i]), the historical reading.

    The batched masking kernel ({!Moard_analysis.Masking.analyze_all})
    returns its per-lane verdicts as disjoint sets of this type, and the
    replay, resolver and aDVF accumulation consume them with the word
    operations below. *)

type t = int64

val empty : t

val full_n : n:int -> t
(** The low [n] lanes set: every pattern of an [n]-lane model. *)

val singleton : int -> t
val mem : t -> int -> bool
val add : t -> int -> t
val remove : t -> int -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val is_empty : t -> bool
val equal : t -> t -> bool
val count : t -> int
(** Population count. *)

val subset : t -> t -> bool
(** [subset a b]: every member of [a] is in [b]. *)

val iter : (int -> unit) -> t -> unit
(** Members in ascending bit order — the canonical pattern order
    ({!Pattern.singles}), which every consumer must preserve for
    bit-identical accounting. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold in ascending bit order. *)

val to_bits : t -> int list
(** Members, ascending. *)

val pp : Format.formatter -> t -> unit
