(* Regenerates the store-key snapshot checked by test_store.ml.

     dune exec test/golden_keys_gen.exe > test/golden_keys.expected

   One line per key: the aDVF key of every registry object under each
   error model at default and non-default options, a seeded plan's hash
   and campaign key and the tape key per benchmark, and the predict and
   advise keys of MM/C. Regenerate only deliberately: a changed line is
   a store entry or journal that no longer resolves. *)

let () = List.iter print_endline (Key_digest.lines ())
