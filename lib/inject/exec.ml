let cap_domains d = min (max 1 d) (Domain.recommended_domain_count ())

let run ?cancel ~domains ctx f units =
  let n = Array.length units in
  let d = max 1 (min domains n) in
  let out = Array.make n None in
  let work w ctx =
    let u = ref w in
    while !u < n do
      Option.iter Moard_chaos.Cancel.check cancel;
      out.(!u) <- Some (f w ctx units.(!u));
      u := !u + d
    done
  in
  let spawned =
    List.init (d - 1) (fun w ->
        Domain.spawn (fun () -> work (w + 1) (Context.shard ctx)))
  in
  let mine = try Ok (work 0 ctx) with e -> Error e in
  let theirs =
    List.map (fun h -> try Ok (Domain.join h) with e -> Error e) spawned
  in
  List.iter (function Error e -> raise e | Ok () -> ()) (mine :: theirs);
  Array.map Option.get out
