(** Client side of the [moardd] protocol.

    Thin by design: build a request with {!Jsonx}, get back the response
    header and the raw payload bytes (untouched, so they can be diffed
    against offline CLI output). The [proto] field is stamped onto every
    request so the daemon can reject a version skew. *)

type t

val connect : ?timeout_s:float -> socket:string -> unit -> t
(** [timeout_s] arms [SO_RCVTIMEO]/[SO_SNDTIMEO] on the connection: a
    stalled or mid-frame-dead daemon then fails the read with
    [Unix.Unix_error (EAGAIN, _, _)] instead of hanging the client
    forever. Default: no timeout (long campaign computations are
    legitimate).
    @raise Unix.Unix_error if the daemon is not there. *)

val close : t -> unit

val request : t -> Jsonx.t -> Jsonx.t * string option
(** Send one request object, wait for its response. Adds ["proto"] if
    the request lacks it.
    @raise Protocol.Protocol_error on framing violations, including a
    response header without a ["status"] (what a lost header frame
    leaves: the payload frame read as the header);
    @raise Unix.Unix_error if the connection drops. *)

val rpc : ?timeout_s:float -> socket:string -> Jsonx.t -> Jsonx.t * string option
(** One-shot: connect, {!request}, close. *)

val backoff :
  base_delay_s:float -> max_delay_s:float -> Moard_chaos.Rng.t -> int -> float
(** [backoff ~base_delay_s ~max_delay_s rng i] is the delay before retry
    [i]: capped exponential ([base * 2^i], capped at [max]) jittered
    into [[cap/2, cap)] by the next draw of [rng].  Pure in the stream:
    the same [rng] state yields the same schedule. *)

val rpc_retry :
  ?attempts:int ->
  ?base_delay_s:float ->
  ?max_delay_s:float ->
  ?timeout_s:float ->
  ?seed:int ->
  ?rng:Moard_chaos.Rng.t ->
  socket:string ->
  Jsonx.t ->
  Jsonx.t * string option
(** {!rpc} with capped jittered exponential backoff (defaults: 5
    attempts, 50 ms base doubling to a 2 s cap, each delay drawn by
    {!backoff}).  Jitter comes from an explicit {!Moard_chaos.Rng}
    stream: pass [rng] to splice the schedule into a larger seeded plan
    (the chaos harnesses and the cluster proxy do), or just [seed]
    (default 0) for a self-contained reproducible stream.

    What retries, and why it is safe:
    - connect refusals ([ECONNREFUSED]/[ENOENT]/[ECONNRESET]) — no
      request escaped the client;
    - typed [overloaded]/[draining]/[integrity] responses — the daemon
      refused before doing any work (the last is a request checksum
      that did not survive the wire);
    - typed [unavailable] responses (a cluster proxy with no healthy
      shard for the key) — {e only} for idempotent requests, since the
      proxy may have already forwarded the request to a shard before
      giving up;
    - transport failures mid-request (torn frame, dropped response,
      receive timeout) — {e only} for idempotent requests. A campaign
      run ([op = "campaign"]) advances a server-side journal, so once
      sent with unknown fate it is never resent; every other op is a
      pure content-addressed read ({!Moard_store.Key}), for which a
      duplicate compute produces byte-identical results.

    Non-retryable typed errors (bad-request, internal, timeout, …)
    return immediately; exhausting [attempts] re-raises the last
    transport error. *)

val error_of : Jsonx.t -> (string * string) option
(** [(code, message)] if the header is an error response. *)
