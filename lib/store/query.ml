module Model = Moard_core.Model
module Context = Moard_inject.Context
module Plan = Moard_campaign.Plan
module Engine = Moard_campaign.Engine

type status = Memory_hit | Disk_hit | Computed | Recomputed

let status_name = function
  | Memory_hit -> "memory-hit"
  | Disk_hit -> "disk-hit"
  | Computed -> "computed"
  | Recomputed -> "recomputed"

let is_hit = function
  | Memory_hit | Disk_hit -> true
  | Computed | Recomputed -> false

let serve store ~key ~kind compute =
  match store with
  | None -> (compute (), Computed)
  | Some store -> (
    match Store.lookup store ~key ~kind with
    | Store.Found (payload, Store.Memory) -> (payload, Memory_hit)
    | Store.Found (payload, Store.Disk) -> (payload, Disk_hit)
    | (Store.Absent | Store.Corrupted) as miss ->
      let payload = compute () in
      Store.put store ~key ~kind payload;
      (payload, if miss = Store.Corrupted then Recomputed else Computed))

(* A fresh shard has an empty injection cache and zeroed counters, so the
   sequential analysis — and with it every count in the report — is a pure
   function of (program, object, options). That purity is what makes the
   byte-stable payload contract (and corrupt-entry recompute) sound. *)
let advf_payload ?(options = Model.default_options) ?cancel ctx ~object_name =
  let r = Model.analyze ~options ?cancel (Context.shard ctx) ~object_name in
  Moard_report.Advf_report.json ~model:options.Model.model r

let advf store ?(options = Model.default_options) ?cancel ~ctx ~program
    ~object_name () =
  let key = Key.advf ~program ~object_name ~options in
  let payload, status =
    serve store ~key ~kind:Record.Advf (fun () ->
        advf_payload ~options ?cancel (ctx ()) ~object_name)
  in
  (key, payload, status)

let campaign_payload = Moard_report.Campaign_report.stable_json

let interrupted (r : Engine.result) =
  Array.exists
    (fun (o : Engine.object_result) -> o.Engine.stopped = Engine.Interrupted)
    r.Engine.objects

let campaign store ?(domains = 1) ?should_stop ?cancel ?fx
    ?(journal_meta = []) ~ctx ~program ~plan () =
  let key = Key.campaign ~program ~plan in
  let kind = Record.Campaign in
  match store with
  | None ->
    let r = Engine.run ~domains ?should_stop ?cancel (ctx ()) plan in
    (key, campaign_payload r, Computed, Some r)
  | Some store -> (
    match Store.lookup store ~key ~kind with
    | Store.Found (payload, Store.Memory) -> (key, payload, Memory_hit, None)
    | Store.Found (payload, Store.Disk) -> (key, payload, Disk_hit, None)
    | (Store.Absent | Store.Corrupted) as miss ->
      let journal =
        Filename.concat (Store.journal_dir store) (Key.to_hex key ^ ".journal")
      in
      let c = ctx () in
      let run () =
        Engine.run ~domains ?should_stop ?cancel ?fx ~journal ~journal_meta c
          plan
      in
      let r =
        if Sys.file_exists journal then
          try Engine.resume ~domains ?should_stop ?cancel ?fx ~journal c plan
          with Moard_campaign.Journal.Rejected _ ->
            (* stale journal from an incompatible plan under a colliding
               name: impossible while keys embed the plan hash, but never
               let a bad file wedge the query *)
            Sys.remove journal;
            run ()
        else run ()
      in
      let payload = campaign_payload r in
      if interrupted r then (key, payload, Computed, Some r)
      else begin
        Store.put store ~key ~kind payload;
        (try Sys.remove journal with Sys_error _ -> ());
        ( key,
          payload,
          (if miss = Store.Corrupted then Recomputed else Computed),
          Some r )
      end)

let predict_payload = Moard_report.Predict_report.stable_json

let predict store ?(model = Moard_bits.Errmodel.Single_bit) ?(seed = 42)
    ?(confidence = 0.95) ?(ci_width = 0.02) ?(max_samples = -1) ?domains
    ?cancel ~workload_at ~object_name ~sizes ~target () =
  let sizes = Moard_predict.Predict.canonical_sizes sizes in
  let workloads = List.map (fun n -> (n, workload_at n)) sizes in
  let programs =
    List.map (fun (n, w) -> (n, w.Moard_inject.Workload.program)) workloads
  in
  let key =
    Key.predict ~programs ~object_name ~model ~seed ~confidence ~ci_width
      ~max_samples ~target
  in
  let result = ref None in
  let payload, status =
    serve store ~key ~kind:Record.Predict (fun () ->
        let p =
          Moard_predict.Predict.run ~model ~seed ~confidence ~ci_width
            ~max_samples ?domains ?cancel ~workloads ~object_name ~target ()
        in
        result := Some p;
        predict_payload p)
  in
  (key, payload, status, !result)

let advise store ?(model = Moard_bits.Errmodel.Single_bit) ?(seed = 42)
    ?(confidence = 0.95) ?(ci_width = 0.02) ?(max_samples = -1) ?domains
    ?cancel ~workload ~objects () =
  let wl : Moard_inject.Workload.t = workload in
  let objects =
    match objects with
    | [] -> wl.Moard_inject.Workload.targets
    | l -> l
  in
  let key =
    Key.advise ~program:wl.Moard_inject.Workload.program ~objects ~model
      ~seed ~confidence ~ci_width ~max_samples
  in
  let payload, status =
    serve store ~key ~kind:Record.Advise (fun () ->
        Moard_report.Advise_report.stable_json
          (Moard_advise.Advise.run ~model ~seed ~confidence ~ci_width
             ~max_samples ?domains ?cancel ~objects wl))
  in
  (key, payload, status)
