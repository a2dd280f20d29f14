(** Content-addressed store keys.

    A key is a stable digest over everything a cached result is a pure
    function of: the program's textual IR (hashed), the target object
    name, the error-pattern family, the model configuration, and — for
    campaign results — the {!Moard_campaign.Plan.hash} (which already
    covers seed, confidence, batch, strata and sampling orders). Two
    queries collide iff a correct implementation must give them the same
    answer; any drift in program text, options or plan changes the key and
    the old entry simply goes cold (to be swept by [store gc]).

    The digest is MD5 over a canonical [k=v] listing prefixed with a
    scheme tag, so key derivation itself is versioned. *)

type t = private string

val to_hex : t -> string
(** 32 lowercase hex digits: the entry's file name stem. *)

val of_parts : (string * string) list -> t
(** Digest a canonical part listing. Part names and values must not
    contain newlines. Exposed for tests and exotic callers; the typed
    constructors below are the real API. *)

val program_hash : Moard_ir.Program.t -> string
(** FNV-1a (16 hex digits) of the program's textual IR — the program
    identity every key includes. *)

val advf :
  program:Moard_ir.Program.t ->
  object_name:string ->
  options:Moard_core.Model.options ->
  t
(** Key of an aDVF summary: program, object, error model
    ([options.model]) and the model parameters that shape the result
    (k, shadow_cap, fi_budget, use_cache). *)

val campaign : program:Moard_ir.Program.t -> plan:Moard_campaign.Plan.t -> t
(** Key of a campaign report: program and plan hash (the plan hash binds
    workload name, seed, confidence, ci width, batch, caps and the frozen
    per-stratum sampling orders). *)

val predict :
  programs:(int * Moard_ir.Program.t) list ->
  object_name:string ->
  model:Moard_bits.Errmodel.t ->
  seed:int ->
  confidence:float ->
  ci_width:float ->
  max_samples:int ->
  target:int ->
  t
(** Key of a cross-input-size prediction: the [(size, program)] training
    set (sorted by size, so argument order cannot split the cache), the
    object, the error model's canonical name, the campaign parameters the
    training plans are built from, and the target size. Anything that
    could change a predicted byte changes the key. *)

val advise :
  program:Moard_ir.Program.t ->
  objects:string list ->
  model:Moard_bits.Errmodel.t ->
  seed:int ->
  confidence:float ->
  ci_width:float ->
  max_samples:int ->
  t
(** Key of a resilience-advisor report: the unprotected program (the
    protected variants are derived from it deterministically), the target
    objects in request order, the campaign parameters, and a transform
    generation tag — the advisor's plan generation and IR rewrites are
    part of the cached function, so changing them rolls the keys cold
    instead of serving stale advice. *)

val tape : program:Moard_ir.Program.t -> entry:string -> t
(** Key of a packed golden tape: program and entry point. *)
