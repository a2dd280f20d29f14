module Registry = Moard_kernels.Registry
module Context = Moard_inject.Context
module Model = Moard_core.Model
module Plan = Moard_campaign.Plan
module Engine = Moard_campaign.Engine
module Store = Moard_store.Store
module Query = Moard_store.Query
module Key = Moard_store.Key

type reply = Jsonx.t * string option

exception Bad_request of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad_request msg)) fmt

(* ---------------- typed request fields ---------------- *)

(* Absent means the default; present with the wrong type is a bad
   request that names the field, never a quiet default. *)
let opt conv what req name =
  match Jsonx.member name req with
  | None -> None
  | field -> (
    match conv field with
    | Some v -> Some v
    | None -> bad "field %S must be %s" name what)

let int_opt = opt Jsonx.int "an integer"
let float_opt = opt Jsonx.float "a number"
let str_opt = opt Jsonx.str "a string"

let list_opt conv what =
  opt
    (fun field ->
      Option.bind (Jsonx.list field) (fun xs ->
          let vs = List.filter_map (fun x -> conv (Some x)) xs in
          if List.compare_lengths xs vs = 0 then Some vs else None))
    ("an array of " ^ what)

let field_str req name =
  match str_opt req name with
  | Some s -> s
  | None -> bad "missing string field %S" name

let entry_of req =
  let benchmark = field_str req "benchmark" in
  match Registry.find benchmark with
  | e -> e
  | exception Not_found -> bad "unknown benchmark %S" benchmark

(* An absent "error_model" field means single-bit, so requests predating
   the field keep producing byte-identical keys and payloads. *)
let model_of req =
  Option.map
    (fun s ->
      match Moard_bits.Errmodel.of_string s with
      | Ok m -> m
      | Error msg -> raise (Bad_request msg))
    (str_opt req "error_model")

(* A domain count from a request is clamped to the host, like the
   command line's. *)
let domains_of req =
  Option.map Moard_inject.Exec.cap_domains (int_opt req "domains")

let objects_of req (e : Registry.entry) =
  match list_opt Jsonx.str "strings" req "objects" with
  | None | Some [] -> e.Registry.objects
  | Some objects -> objects

let program_of (e : Registry.entry) =
  (e.Registry.workload ()).Moard_inject.Workload.program

(* Every plan field is decoded here, before the caller pays for the golden
   run the plan is made from. *)
let plan_of req e =
  let objects = objects_of req e in
  let make =
    Plan.make ?model:(model_of req) ?seed:(int_opt req "seed")
      ?confidence:(float_opt req "confidence")
      ?ci_width:(float_opt req "ci_width") ?batch:(int_opt req "batch")
      ?max_samples:(int_opt req "max_samples")
  in
  fun ctx -> make ctx ~objects

(* ---------------- the environment ---------------- *)

type env = {
  store : Store.t option;
  context : Registry.entry -> Context.t;
  cancel : Moard_chaos.Cancel.t option;
  should_stop : unit -> bool;
  journal_fx : Moard_chaos.Fx.t;
}

(* One golden run per benchmark, whoever asks first; the lock makes the
   build single-flight (concurrent first requests for the same benchmark
   must not both execute the golden run). *)
let golden_contexts () =
  let m = Mutex.create () in
  let ctxs = Hashtbl.create 8 in
  let context (e : Registry.entry) =
    Mutex.lock m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock m)
      (fun () ->
        match Hashtbl.find_opt ctxs e.Registry.benchmark with
        | Some ctx -> ctx
        | None ->
          let ctx = Context.make (e.Registry.workload ()) in
          Hashtbl.replace ctxs e.Registry.benchmark ctx;
          ctx)
  in
  (context, fun () -> Hashtbl.length ctxs)

let offline ?store () =
  {
    store;
    context = fst (golden_contexts ());
    cancel = None;
    should_stop = (fun () -> false);
    journal_fx = Moard_chaos.Fx.real;
  }

(* ---------------- the ops ---------------- *)

let reply ~op ~key ~status (e : Registry.entry) extra payload =
  ( Protocol.ok
      ([
         ("op", Jsonx.Str op);
         ("key", Jsonx.Str (Key.to_hex key));
         ("served", Jsonx.Str (Query.status_name status));
         ("cached", Jsonx.Bool (Query.is_hit status));
         ("benchmark", Jsonx.Str e.Registry.benchmark);
       ]
      @ extra),
    Some payload )

(* The advf options and the request fields they are read from. *)
let advf_fields = [ "k"; "fi_budget"; "error_model" ]

let advf_options req =
  let d = Model.default_options in
  {
    d with
    Model.k = Option.value ~default:d.Model.k (int_opt req "k");
    fi_budget =
      Option.value ~default:d.Model.fi_budget (int_opt req "fi_budget");
    model = Option.value ~default:d.Model.model (model_of req);
  }

let advf env req =
  let e = entry_of req in
  let object_name = field_str req "object" in
  let options = advf_options req in
  let key, payload, status =
    Query.advf env.store ~options ?cancel:env.cancel
      ~ctx:(fun () -> env.context e)
      ~program:(program_of e) ~object_name ()
  in
  reply ~op:"advf" ~key ~status e [ ("object", Jsonx.Str object_name) ] payload

let campaign env req =
  let e = entry_of req in
  let plan = plan_of req e in
  let domains = domains_of req in
  (* the plan needs the fault-site population, hence the golden run *)
  let ctx = env.context e in
  let key, payload, status, result =
    Query.campaign env.store ?domains ~should_stop:env.should_stop
      ?cancel:env.cancel ~fx:env.journal_fx
      ~journal_meta:[ ("benchmark", e.Registry.benchmark) ]
      ~ctx:(fun () -> ctx)
      ~program:(program_of e) ~plan:(plan ctx) ()
  in
  let complete =
    match result with None -> true | Some r -> not (Query.interrupted r)
  in
  reply ~op:"campaign" ~key ~status e
    [ ("complete", Jsonx.Bool complete) ]
    payload

(* Read-only: the stored report, else the journal's current state, else
   not-found. *)
let report env req =
  let e = entry_of req in
  let plan = plan_of req e in
  let ctx = env.context e in
  let plan = plan ctx in
  let key = Key.campaign ~program:(program_of e) ~plan in
  let reply ~status complete =
    reply ~op:"report" ~key ~status e [ ("complete", Jsonx.Bool complete) ]
  in
  let not_found =
    ( Protocol.error ~code:"not-found"
        ~message:"no stored report and no journal for this campaign key",
      None )
  in
  match env.store with
  | None -> not_found
  | Some st -> (
    match Store.get st ~key ~kind:Moard_store.Record.Campaign with
    | Some (payload, Store.Memory) ->
      reply ~status:Query.Memory_hit true payload
    | Some (payload, Store.Disk) -> reply ~status:Query.Disk_hit true payload
    | None ->
      let journal =
        Filename.concat (Store.journal_dir st) (Key.to_hex key ^ ".journal")
      in
      if not (Sys.file_exists journal) then not_found
      else
        let r =
          Engine.resume ~max_batches:0 ~fx:env.journal_fx ~journal ctx plan
        in
        reply ~status:Query.Computed false (Query.campaign_payload r))

let predict env req =
  let e = entry_of req in
  let object_name = field_str req "object" in
  let sizes =
    match list_opt Jsonx.int "integers" req "sizes" with
    | None | Some [] -> Registry.training_sizes e
    | Some sizes -> sizes
  in
  let target =
    Option.value ~default:(Registry.holdout_size e) (int_opt req "target")
  in
  let key, payload, status, _ =
    Query.predict env.store ?model:(model_of req) ?seed:(int_opt req "seed")
      ?confidence:(float_opt req "confidence")
      ?ci_width:(float_opt req "ci_width")
      ?max_samples:(int_opt req "max_samples") ?domains:(domains_of req)
      ?cancel:env.cancel ~workload_at:e.Registry.workload_at ~object_name
      ~sizes ~target ()
  in
  reply ~op:"predict" ~key ~status e
    [ ("object", Jsonx.Str object_name); ("target", Jsonx.Int target) ]
    payload

let advise env req =
  let e = entry_of req in
  let objects = objects_of req e in
  let key, payload, status =
    Query.advise env.store ?model:(model_of req) ?seed:(int_opt req "seed")
      ?confidence:(float_opt req "confidence")
      ?ci_width:(float_opt req "ci_width")
      ?max_samples:(int_opt req "max_samples") ?domains:(domains_of req)
      ?cancel:env.cancel ~workload:(e.Registry.workload ()) ~objects ()
  in
  reply ~op:"advise" ~key ~status e [] payload

let table =
  [
    ("advf", advf);
    ("campaign", campaign);
    ("report", report);
    ("predict", predict);
    ("advise", advise);
  ]

let names = List.map fst table

let answer env req =
  let op = Option.value ~default:"" (Jsonx.str (Jsonx.member "op" req)) in
  match List.assoc_opt op table with
  | None ->
    (Protocol.error ~code:"bad-request" ~message:("unknown op " ^ op), None)
  | Some f -> (
    try f env req with
    | Bad_request msg -> (Protocol.error ~code:"bad-request" ~message:msg, None)
    | Moard_predict.Predict.Refused r ->
      ( Protocol.error ~code:"refused"
          ~message:(Moard_predict.Predict.refusal_message r),
        None ))
