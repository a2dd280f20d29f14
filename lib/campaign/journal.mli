(** The on-disk campaign journal: crash-safe, versioned, plan-bound,
    checksummed.

    A line-oriented append-only log. The header carries the schema version
    and the {!Plan.hash} of the plan the journal belongs to; a journal
    whose version or plan hash does not match is rejected outright — a
    resumed campaign must never silently mix sampling orders. Sample
    records are buffered per batch and only count once the batch's commit
    line — which carries an FNV-1a64 checksum of the batch's S lines — is
    fully written, so a campaign killed mid-write resumes at the previous
    batch boundary and replays to a state bit-identical to an
    uninterrupted run (batch boundaries are deterministic from the plan),
    and a bit flipped inside a committed batch is detected rather than
    replayed as a different valid sample.

    All I/O goes through an injectable {!Moard_chaos.Fx.t} (default: the
    real filesystem), which is how the chaos harness tears appends and
    flips read bytes.

    Format (one record per line):
    {v
    moard-campaign-journal 2
    plan <16 hex digits>
    m <key> <value>            (campaign parameters, for plan rebuild)
    S <obj> <stratum> <sample> <code>
    C <obj> <count> <16 hex>   (commit: count + checksum of the S block)
    v} *)

val schema_version : int

exception Rejected of string
(** Journal exists but cannot be used: wrong magic, wrong schema version,
    or wrong plan hash. *)

type record = { obj : int; stratum : int; sample : int; code : int }
(** One resolved sample: objective index, stratum index, sample index in
    the stratum's frozen order, and the outcome code
    ({!Engine.code_of_outcome}). *)

type writer

val create :
  ?fx:Moard_chaos.Fx.t ->
  path:string ->
  plan_hash:string ->
  meta:(string * string) list ->
  unit ->
  writer
(** Start a fresh journal (truncates). [meta] keys/values must be
    space-free; they let [campaign resume]/[report] rebuild the plan. *)

val reopen :
  ?fx:Moard_chaos.Fx.t -> path:string -> plan_hash:string -> unit -> writer
(** Open an existing journal for appending.
    @raise Rejected on version or plan-hash mismatch. *)

val commit_batch : writer -> obj:int -> (int * int * int) list -> unit
(** Append one batch of [(stratum, sample, code)] records for objective
    [obj], followed by its checksummed commit line, in a single open/
    append/close cycle. *)

val close : writer -> unit
(** No-op (the writer holds no open handle); kept so writer lifetimes
    stay explicit at call sites. *)

val replay :
  ?fx:Moard_chaos.Fx.t -> path:string -> plan_hash:string -> unit -> record list
(** Committed records, in execution order. Uncommitted, checksum-failing
    or otherwise corrupt tail lines are dropped (that is the crash being
    survived, not an error).
    @raise Rejected on version or plan-hash mismatch. *)

val read_meta : ?fx:Moard_chaos.Fx.t -> path:string -> unit -> (string * string) list
(** The meta key/value pairs, validating only the schema version — used to
    rebuild the plan before {!replay} can check its hash. *)

type fsck_report = {
  path : string;
  header_ok : bool;  (** magic + schema version parsed *)
  plan_hash : string option;
  meta : (string * string) list;
  batches : int;  (** committed batches that verified *)
  records : int;  (** records inside them *)
  torn_tail : bool;  (** file does not end in a newline *)
  bad_line : int option;
      (** 1-based line where replay stops trusting the file, if before
          the end *)
}

val fsck : ?fx:Moard_chaos.Fx.t -> path:string -> unit -> fsck_report
(** Offline integrity pass over one journal: never raises on damage
    (only on an unreadable file), reports what a resume would see. *)
