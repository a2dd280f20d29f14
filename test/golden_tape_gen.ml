(* Regenerates the golden-tape snapshot checked by test_tape_pin.ml.

     dune exec test/golden_tape_gen.exe > test/golden_tape.expected

   One line per registry workload (serial, then the SPMD ports at 2
   harts): the golden run's step count, its tape length and a digest of
   every decoded tape event. Regenerate only deliberately: the snapshot
   pins what the interpreter records, so a change to it is a change to
   every downstream analysis. *)

let () =
  List.iter
    (fun w -> print_endline (Tape_digest.line w))
    (Tape_digest.workloads ())
