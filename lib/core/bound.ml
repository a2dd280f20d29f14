module Masking = Moard_analysis.Masking
module Propagation = Moard_analysis.Propagation
module Context = Moard_inject.Context
module Consume = Moard_trace.Consume
module Bitval = Moard_bits.Bitval
module Pattern = Moard_bits.Pattern
module Outcome = Moard_inject.Outcome

type point = {
  k : int;
  sampled : int;
  masked_within_k : int;
  survivors : int;
  incorrect_of_survivors : int;
  fraction_incorrect : float;
}

let study ?(seed = 2019) ?(samples = 125) ~k_values ctx ~object_name =
  let tape = Context.tape ctx in
  let w = Context.workload ctx in
  let obj = Context.object_of ctx object_name in
  let outputs =
    List.map (Context.object_of ctx) w.Moard_inject.Workload.outputs
  in
  let sites =
    Consume.of_tape ~segment:(Context.segment ctx) tape obj
    |> List.filter (fun s ->
           match s.Consume.kind with
           | Consume.Read _ -> true
           | Consume.Store_dest -> false)
    |> Array.of_list
  in
  if Array.length sites = 0 then
    invalid_arg ("Bound.study: no fault sites for " ^ object_name);
  let rng = Random.State.make [| seed |] in
  let picks =
    Array.init samples (fun _ ->
        let site = sites.(Random.State.int rng (Array.length sites)) in
        let bit = Random.State.int rng (Bitval.bits_in site.Consume.width) in
        (site, Pattern.Single bit))
  in
  List.map
    (fun k ->
      let masked = ref 0 and survivors = ref 0 and incorrect = ref 0 in
      Array.iter
        (fun ((site : Consume.t), pattern) ->
          let e = Moard_trace.Tape.get tape site.Consume.event_idx in
          let survived =
            match Masking.analyze e site.Consume.kind pattern with
            | Masking.Masked _ -> false
            | Masking.Crash_certain _ | Masking.Divergent -> true
            | Masking.Changed { out; _ } -> (
              let init =
                match out with
                | Masking.To_reg { frame; reg; value } ->
                  Propagation.From_reg { frame; reg; value }
                | Masking.To_mem { addr; value; ty } ->
                  Propagation.From_mem { addr; value; ty }
              in
              match
                Propagation.replay ~tape ~k ~shadow_cap:256 ~outputs
                  ~start:site.Consume.event_idx ~init
              with
              | Propagation.Masked _ -> false
              | Propagation.Crash_certain _ | Propagation.Unresolved _ -> true)
          in
          if survived then begin
            incr survivors;
            match Context.inject_at ctx site pattern with
            | Outcome.Same -> ()
            | Outcome.Acceptable | Outcome.Incorrect | Outcome.Crashed _ ->
              incr incorrect
          end
          else incr masked)
        picks;
      {
        k;
        sampled = samples;
        masked_within_k = !masked;
        survivors = !survivors;
        incorrect_of_survivors = !incorrect;
        fraction_incorrect =
          (if !survivors = 0 then 1.0
           else float_of_int !incorrect /. float_of_int !survivors);
      })
    k_values
