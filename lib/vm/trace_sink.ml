type t =
  | Null
  | Tape of Moard_trace.Tape.t
