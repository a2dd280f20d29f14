(** SplitMix64: the one seeded, splittable PRNG behind campaign sampling
    orders and chaos plans.

    Each scope (an (object, stratum) pair of a campaign, a fault scope of
    a chaos plan) draws from its own stream derived from the seed and its
    path, so seed + path determine the whole stream, independent of draws
    in other scopes; [Random.State] offers no stable way to split. It
    lives in this library, the lowest one that the campaign engine, the
    serving client and the cluster ring all depend on. *)

type t

val make : int -> t
(** Stream seeded from an integer. *)

val of_path : seed:int -> int list -> t
(** Independent stream for a path under a seed; the same path always
    gives the same stream. *)

val mix64 : int64 -> int64
(** The SplitMix64 finalizer: a bijective avalanche of one 64-bit word. *)

val next : t -> int64
(** Next 64-bit output; advances the stream. *)

val next_int : t -> int -> int
(** [next_int t bound] draws uniformly from [[0, bound)] by rejection
    sampling; no modulo bias.
    @raise Invalid_argument if [bound <= 0]. *)

val next_float : t -> float
(** Uniform in [0, 1), from the top 53 bits of one draw. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates driven by the stream. *)
