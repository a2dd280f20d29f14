(** Where the interpreter sends the dynamic trace.

    - [Null]: nothing is recorded. An untraced step builds no event, no
      operand arrays and no closures; it allocates only the value its
      instruction produces (plus a frame per call and the corrupted image
      at the fault). Every fault-injection run, checkpoint build and golden
      re-execution is untraced.
    - [Tape]: one event per executed instruction, packed directly into a
      {!Moard_trace.Tape.t} through {!Moard_trace.Tape.emit}, without
      materializing a boxed {!Moard_trace.Event.t}: the golden run. *)

type t =
  | Null
  | Tape of Moard_trace.Tape.t
