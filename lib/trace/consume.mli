(** Enumeration of consumption sites of a data object in a trace.

    A consumption site is where the model asks its question ("if this
    element held an error here, would the outcome stay correct?") and is
    also a valid fault-injection site of the paper's §V-B: a bit of an
    instruction operand holding a value of the target data object.

    Rules (matching how provenance flows in the VM):
    - an operation that reads a register operand whose provenance lies in
      the object consumes that element — except pure copies ([Mov], calls
      to user functions, [Ret]) and [Load]s, which only move the value and
      forward the provenance to the eventual consumer;
    - a [Store] whose destination address lies in the object consumes the
      element it overwrites (the paper's value-overwriting site);
    - events outside the workload's code segment are not consumption sites
      (the paper evaluates one routine per benchmark), although error
      propagation is still tracked through them. *)

type kind =
  | Read of { slot : int }  (** operand consumption *)
  | Store_dest              (** element overwritten by a store *)

type t = {
  event_idx : int;
  kind : kind;
  addr : int;   (** address of the consumed element *)
  elem : int;   (** element index within the object *)
  width : Moard_bits.Bitval.width;  (** width of the consumed image *)
}

val consuming_event : Event.t -> bool
(** Whether the event's opcode consumes (rather than merely moves) its
    register operands: false for [Mov], [Load], [Br], [Ret], and calls to
    user functions. *)

val of_event : Data_object.t -> Event.t -> t list
(** Consumption sites of one event, in slot order, store-destination last. *)

val iter_sites :
  ?segment:(string -> bool) ->
  Tape.Cursor.t -> Data_object.t -> (int -> t -> unit) -> unit
(** [iter_sites cursor obj f] streams the consumption sites of [obj] in
    the cursor's window, in trace order, calling [f i site] with [i] the
    site's index in enumeration order (the partitioning key of
    [Hart_split]). Events are pre-screened on the packed tape fields,
    so only events that can contribute a site are decoded; no site list is
    materialized. [segment] filters by function name (default: accept
    all). *)

val of_tape :
  ?segment:(string -> bool) -> Tape.t -> Data_object.t -> t list
(** All consumption sites of the object in trace order, as a list
    ({!iter_sites} over a whole-tape cursor). [segment] filters by
    function name (default: accept all). *)

val patterns : t -> Moard_bits.Pattern.t list
(** The single-bit error patterns applicable at this site (one per bit of
    the consumed image — the paper's default error-pattern space). *)
