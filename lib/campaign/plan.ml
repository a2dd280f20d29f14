module Context = Moard_inject.Context
module Errmodel = Moard_bits.Errmodel
module Fnv = Moard_chaos.Fnv
module Rng = Moard_chaos.Rng

type stratum = {
  label : string;
  population : int;
  members : int array;
  order : int array;
}

type objective = {
  object_name : string;
  sites : Moard_trace.Consume.t array;
  population : int;
  strata : stratum array;
}

type t = {
  workload_name : string;
  variant : string;
  model : Errmodel.t;
  harts : int;
  seed : int;
  confidence : float;
  z : float;
  ci_width : float;
  batch : int;
  max_samples : int;
  objectives : objective array;
}

let make ?(variant = "") ?(model = Errmodel.Single_bit) ?(seed = 42)
    ?(confidence = 0.95) ?(ci_width = 0.02) ?(batch = 64) ?(max_samples = -1)
    ctx ~objects =
  if objects = [] then invalid_arg "Plan.make: no objects";
  if ci_width <= 0.0 || ci_width >= 1.0 then invalid_arg "Plan.make: ci_width";
  if batch <= 0 then invalid_arg "Plan.make: batch";
  let z = Moard_stats.Confidence.z_of_confidence confidence in
  let tape = Context.tape ctx in
  let segment = Context.segment ctx in
  let objectives =
    List.mapi
      (fun oi object_name ->
        let obj = Context.object_of ctx object_name in
        let pop = Population.of_tape ~model ~segment tape obj ~object_name in
        if pop.Population.total = 0 then
          invalid_arg ("Plan.make: no fault sites for " ^ object_name);
        let strata =
          Array.mapi
            (fun si members ->
              let n = Array.length members in
              let order = Array.init n Fun.id in
              (* the whole without-replacement sampling order of the
                 stratum is fixed here, from the (seed, object, stratum)
                 stream alone — running, resuming or resharding the
                 campaign never draws randomness again *)
              Rng.shuffle (Rng.of_path ~seed [ oi; si ]) order;
              {
                label = Population.label si;
                population = n;
                members;
                order;
              })
            pop.Population.members
        in
        {
          object_name;
          sites = pop.Population.sites;
          population = pop.Population.total;
          strata;
        })
      objects
    |> Array.of_list
  in
  let w = Context.workload ctx in
  {
    workload_name = w.Moard_inject.Workload.name;
    variant;
    model;
    harts = w.Moard_inject.Workload.harts;
    seed;
    confidence;
    z;
    ci_width;
    batch;
    max_samples;
    objectives;
  }

let sample_member objective ~stratum ~index =
  let s = objective.strata.(stratum) in
  Population.decode s.members.(s.order.(index))

(* -------------------------------------------------------------------- *)

let allocate ~budget remaining =
  if budget < 0 then invalid_arg "Plan.allocate: budget";
  let n = Array.length remaining in
  Array.iter (fun r -> if r < 0 then invalid_arg "Plan.allocate: remaining")
    remaining;
  let total = Array.fold_left ( + ) 0 remaining in
  let b = min budget total in
  let alloc = Array.make n 0 in
  if b > 0 then begin
    (* proportional shares, integer floors, then largest-remainder
       distribution (ties broken by index) — deterministic and never over
       a stratum's remaining population *)
    let fracs = Array.make n 0.0 in
    let assigned = ref 0 in
    Array.iteri
      (fun i r ->
        let share = float_of_int b *. float_of_int r /. float_of_int total in
        let base = int_of_float (Float.floor share) in
        alloc.(i) <- base;
        assigned := !assigned + base;
        fracs.(i) <- share -. float_of_int base)
      remaining;
    let order = Array.init n Fun.id in
    Array.sort
      (fun i j ->
        match compare fracs.(j) fracs.(i) with 0 -> compare i j | c -> c)
      order;
    let left = ref (b - !assigned) in
    let k = ref 0 in
    while !left > 0 do
      let i = order.(!k mod n) in
      if alloc.(i) < remaining.(i) then begin
        alloc.(i) <- alloc.(i) + 1;
        decr left
      end;
      incr k
    done
  end;
  alloc

(* -------------------------------------------------------------------- *)

(* FNV-1a over a canonical byte rendering of everything that determines
   the campaign: parameters, population sizes and the members themselves. *)
let hash t =
  let h = ref Fnv.offset in
  let byte b = h := Fnv.add_byte !h b in
  let int i =
    for shift = 0 to 7 do
      byte (i lsr (shift * 8))
    done
  in
  let str s =
    h := Fnv.add_string !h s;
    byte 0
  in
  str "moard-campaign-plan-v1";
  str t.workload_name;
  (* The single-bit rendering predates error models: folding the default
     model into the hash would orphan every existing journal, so only
     non-default models contribute. *)
  if t.model <> Errmodel.Single_bit then begin
    str "error-model";
    str (Errmodel.to_string t.model)
  end;
  (* Likewise: hart counts do not change a parallel program's text or its
     site populations, so without this the serial and every multi-hart
     configuration of one program would collide; folding the default in
     would orphan every pre-existing journal. *)
  if t.harts <> 1 then begin
    str "harts";
    int t.harts
  end;
  (* Protected-variant campaigns run a transformed program under the same
     workload name; the variant tag keeps their journals and store keys
     from colliding with the unprotected ones. Empty (the unprotected
     program) contributes nothing, so every pre-existing journal still
     resolves. *)
  if t.variant <> "" then begin
    str "variant";
    str t.variant
  end;
  int t.seed;
  str (Printf.sprintf "%h" t.confidence);
  str (Printf.sprintf "%h" t.ci_width);
  int t.batch;
  int t.max_samples;
  Array.iter
    (fun o ->
      str o.object_name;
      int (Array.length o.sites);
      int o.population;
      Array.iter
        (fun s ->
          str s.label;
          int s.population;
          Array.iter int s.members)
        o.strata)
    t.objectives;
  Printf.sprintf "%016Lx" !h
