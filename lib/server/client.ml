type t = { fd : Unix.file_descr }

let connect ?timeout_s ~socket () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_UNIX socket);
     match timeout_s with
     | None -> ()
     | Some s ->
       (* a bounded wait on every read and write: a daemon that stalls
          or drops our response frame cannot hang the client — the
          syscall fails with EAGAIN and surfaces as Unix_error *)
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
       Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let with_proto = function
  | Jsonx.Obj fields when not (List.mem_assoc "proto" fields) ->
    Jsonx.Obj (("proto", Jsonx.Int Protocol.version) :: fields)
  | req -> req

(* Every response header carries a status. A frame without one is a
   payload read in place of a header frame lost on the wire: a transport
   failure, never an answer. *)
let request t req =
  Protocol.send t.fd (with_proto req);
  match Protocol.recv t.fd with
  | Some ((header, _) as resp) ->
    if Jsonx.str (Jsonx.member "status" header) = None then
      raise (Protocol.Protocol_error "response header without a status");
    resp
  | None ->
    raise (Protocol.Protocol_error "daemon closed the connection mid-request")

let rpc ?timeout_s ~socket req =
  let c = connect ?timeout_s ~socket () in
  Fun.protect ~finally:(fun () -> close c) (fun () -> request c req)

let error_of header =
  match Jsonx.str (Jsonx.member "status" header) with
  | Some "error" ->
    Some
      ( Option.value ~default:"?" (Jsonx.str (Jsonx.member "code" header)),
        Option.value ~default:"" (Jsonx.str (Jsonx.member "message" header)) )
  | _ -> None

(* Whether a response-less transport failure may be retried for this
   request.  A campaign run advances its journal server-side; replaying
   one whose fate we never learned could interleave with the original
   still running.  (Results are content-addressed, so the *response*
   would be identical — it is the concurrent journal append we must not
   provoke.)  Everything else moardd serves is a pure read. *)
let idempotent req =
  match req with
  | Jsonx.Obj fields -> (
    match List.assoc_opt "op" fields with
    | Some (Jsonx.Str "campaign") -> false
    | _ -> true)
  | _ -> true

(* Typed errors that mean "try again later": the daemon refused before
   doing any work.  "integrity" is a request whose checksum did not
   survive the wire — rejected before dispatch, so a resend is safe
   even for non-idempotent ops.  "unavailable" is the cluster proxy
   reporting that no shard answered — by then the request may already
   have escaped to a shard, so a resend is safe only for idempotent
   ops (a duplicate pure read recomputes byte-identical content;
   a duplicate campaign could interleave with a journal append). *)
let retryable_code ~idempotent = function
  | "overloaded" | "draining" | "integrity" -> true
  | "unavailable" -> idempotent
  | _ -> false

(* Connection-refused family: the daemon is not there (yet). *)
let retryable_connect = function
  | Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET), _, _)
    ->
    true
  | _ -> false

exception Retry of exn

(* Capped exponential with deterministic jitter in [1/2, 1) of the
   cap — jitter decorrelates retry herds, the explicit stream keeps any
   single schedule reproducible.  Exposed so tests and the cluster
   proxy share the exact schedule. *)
let backoff ~base_delay_s ~max_delay_s rng i =
  let cap = Float.min max_delay_s (base_delay_s *. (2. ** float_of_int i)) in
  cap *. (0.5 +. (0.5 *. Moard_chaos.Rng.next_float rng))

let rpc_retry ?(attempts = 5) ?(base_delay_s = 0.05) ?(max_delay_s = 2.0)
    ?timeout_s ?(seed = 0) ?rng ~socket req =
  if attempts < 1 then invalid_arg "Client.rpc_retry: attempts";
  let rng =
    match rng with Some r -> r | None -> Moard_chaos.Rng.make seed
  in
  let backoff i = backoff ~base_delay_s ~max_delay_s rng i in
  let may_retry_transport = idempotent req in
  let rec go i =
    let attempt () =
      (* connect failures are always retryable (no request escaped);
         past that point only idempotent requests are *)
      let c =
        try connect ?timeout_s ~socket ()
        with e when retryable_connect e -> raise (Retry e)
      in
      Fun.protect
        ~finally:(fun () -> close c)
        (fun () ->
          try request c req
          with
          | (Protocol.Protocol_error _ | Unix.Unix_error _) as e
          when may_retry_transport
          ->
            raise (Retry e))
    in
    match attempt () with
    | (header, _) as resp -> (
      match error_of header with
      | Some (code, _)
        when retryable_code ~idempotent:may_retry_transport code
             && i + 1 < attempts ->
        Unix.sleepf (backoff i);
        go (i + 1)
      | _ -> resp)
    | exception Retry e ->
      if i + 1 < attempts then begin
        Unix.sleepf (backoff i);
        go (i + 1)
      end
      else raise e
  in
  go 0
