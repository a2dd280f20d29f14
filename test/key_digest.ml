(* The store keys and plan hashes of the registry, one line each, shared
   by the snapshot generator (golden_keys_gen.ml) and the tier-1 test
   that checks it (test_store.ml).

   Every store entry and campaign journal is found by these strings, so a
   refactor that changes one silently turns a warm store cold; pinning
   them makes that change loud instead. *)

module Registry = Moard_kernels.Registry
module Context = Moard_inject.Context
module Workload = Moard_inject.Workload
module Model = Moard_core.Model
module Plan = Moard_campaign.Plan
module Key = Moard_store.Key
module Errmodel = Moard_bits.Errmodel

let line fields = String.concat "\t" fields

(* Default options, then one non-default (k, fi_budget) pair. *)
let option_sets model =
  let d = { Model.default_options with Model.model } in
  [ ("default", d); ("k7-fi200", { d with Model.k = 7; fi_budget = 200 }) ]

let advf_lines (e : Registry.entry) program =
  List.concat_map
    (fun o ->
      List.concat_map
        (fun m ->
          List.map
            (fun (tag, options) ->
              line
                [ "advf"; e.Registry.benchmark; o; Errmodel.to_string m; tag;
                  Key.to_hex (Key.advf ~program ~object_name:o ~options) ])
            (option_sets m))
        Errmodel.all)
    e.Registry.objects

let entry_lines (e : Registry.entry) =
  let wl = e.Registry.workload () in
  let program = wl.Workload.program in
  let plan =
    Plan.make ~seed:7 ~ci_width:0.05 (Context.make wl)
      ~objects:e.Registry.objects
  in
  advf_lines e program
  @ [
      line [ "plan"; e.Registry.benchmark; Plan.hash plan ];
      line
        [ "campaign"; e.Registry.benchmark;
          Key.to_hex (Key.campaign ~program ~plan) ];
      line
        [ "tape"; e.Registry.benchmark;
          Key.to_hex (Key.tape ~program ~entry:"main") ];
    ]

(* The daemon's defaults for a predict/advise request on MM/C. *)
let mm_lines () =
  let e = Registry.find "MM" in
  let model = Errmodel.Single_bit
  and seed = 42
  and confidence = 0.95
  and ci_width = 0.02
  and max_samples = -1 in
  let programs =
    List.map
      (fun n -> (n, (e.Registry.workload_at n).Workload.program))
      (Registry.training_sizes e)
  in
  [
    line
      [ "predict"; "MM"; "C";
        Key.to_hex
          (Key.predict ~programs ~object_name:"C" ~model ~seed ~confidence
             ~ci_width ~max_samples ~target:(Registry.holdout_size e)) ];
    line
      [ "advise"; "MM"; "C";
        Key.to_hex
          (Key.advise ~program:(e.Registry.workload ()).Workload.program
             ~objects:[ "C" ] ~model ~seed ~confidence ~ci_width
             ~max_samples) ];
  ]

let lines () = List.concat_map entry_lines Registry.all @ mm_lines ()
