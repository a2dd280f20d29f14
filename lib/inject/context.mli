(** Deterministic fault injector (paper §IV).

    Holds the loaded machine, the golden run and its outputs, and the
    golden dynamic trace. Each injection re-runs the workload with one
    fault and classifies the outcome against the golden outputs.

    An error-equivalence cache (after Relyzer [7] / GangES [20], which the
    paper leverages for the same purpose) memoizes outcomes keyed on the
    static instruction, its operand values, the consumption site kind and
    the error pattern: two dynamic occurrences of one instruction with
    identical operand values and the same injected corruption are
    equivalent, so the second is resolved without a run. *)

type t

val make : Workload.t -> t
(** Loads the program, performs the golden run (traced; the tape comes
    back frozen and is therefore shareable across domains).
    @raise Invalid_argument if the golden run itself traps or any declared
    target/output global does not exist. *)

val shard : t -> t
(** A worker's view of the same analysis: shares the machine, the frozen
    golden tape and the golden outputs — all read-only — but owns a fresh
    error-equivalence cache, run counters and the memory buffer its
    injected runs execute in, so shards can be used from different domains
    without synchronization and without re-executing the golden run. One
    context (or shard) must not inject from two domains at once. *)

val golden_executions : unit -> int
(** Process-wide count of golden (traced) workload executions performed by
    {!make}, across all domains. {!shard} performs none. *)

val workload : t -> Workload.t
val machine : t -> Moard_vm.Machine.t
val tape : t -> Moard_trace.Tape.t

val gmem : t -> Moard_analysis.Gmem.t
(** Golden-memory timeline of the golden tape (built once by {!make};
    immutable, shared by {!shard}). Feeds the vectorized replay's
    corrupted-address resolution. *)

val golden_floats : t -> float array
val golden_steps : t -> int
val object_of : t -> string -> Moard_trace.Data_object.t
val segment : t -> string -> bool

val observe : t -> Moard_vm.Memory.t -> int64 array * float array
(** Output vector of a finished run: raw bit images and float view. *)

val classify_patched :
  t ->
  (int * Moard_bits.Bitval.t * Moard_ir.Types.t) list ->
  Outcome.t option
(** Observation of a finished injected run whose final memory equals the
    golden memory except at the given [(addr, value-as-stored, store type)]
    cells — the terminal step of the batched kernel's replay-to-end
    ({!Moard_analysis.Vreplay}), equivalent to {!inject}'s classification
    of such a run but without executing anything. [None] when a patch
    falls outside the observed outputs, is not element-aligned, or was
    stored with a size other than the element's (the caller must fall
    back to a real injection). *)

val inject : ?resume:bool -> t -> Moard_vm.Fault.t -> Outcome.t
(** Uncached single injection. With [resume:true] the run restarts from a
    golden-state checkpoint at the fault event instead of from the
    pristine image — exact, because execution before the fault is
    byte-identical to the golden run — and only pays for the suffix. The
    context caches the most recent checkpoint, so sweeping many patterns
    of one site amortizes a single prefix execution. Every run executes
    in the context's own memory buffer, reset from its start image, so
    injecting allocates no memory image per run. *)

val inject_at :
  ?use_cache:bool -> ?resume:bool -> t -> Moard_trace.Consume.t ->
  Moard_bits.Pattern.t -> Outcome.t
(** Injection at a consumption site of the golden trace, cached by error
    equivalence unless [use_cache:false]. [resume] as in {!inject}. *)

val fault_of_site : Moard_trace.Consume.t -> Moard_bits.Pattern.t -> Moard_vm.Fault.t

type ekey
(** An error-equivalence class: static instruction, operand bit images,
    consumption-site kind and flipped bits — the key of the internal
    outcome cache. Immutable; structural equality and [Hashtbl.hash] are
    meaningful, so it can key external tables. *)

val ekey : t -> Moard_trace.Consume.t -> Moard_bits.Pattern.t -> ekey
(** The equivalence class of an injection, exposed so campaign drivers can
    memoize outcomes {e partition-independently}: with the per-shard cache
    of {!inject_at}, which class member gets executed (and therefore which
    outcome the class memoizes) depends on how sites were dealt to shards;
    a driver that keys its own table with [ekey] and resolves each new
    class with the uncached {!inject} gets results that are bit-identical
    for any domain count. *)

val runs : t -> int
(** Fault-injection executions actually performed. *)

val cache_hits : t -> int

val inject_steps : t -> int
(** Total dynamic instructions executed on behalf of injections —
    full runs, checkpoint builds and resumed suffixes alike. The honest
    work metric when resumed runs make {!runs} alone misleading. *)
