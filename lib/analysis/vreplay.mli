(** Vectorized replay-to-end: predict the {e injection outcome} of every
    changed bit of a consumption site in one walk over the tape tail.

    A scalar exhaustive sweep re-executes the whole workload once per
    changed pattern. But an injected run is the golden run with one value
    substituted at the site — so as long as its control flow does not
    diverge, it replays the {e same} dynamic instruction stream, and its
    final state differs from the golden state only in a small contaminated
    set of cells. This module tracks those sets for all (up to 64) changed
    bits of a site simultaneously against the golden tape, and reports for
    each bit either the exact run fate or [Unknown] when only a real
    injection can tell (control divergence, wild accesses, overlapping
    memory views, contamination-set explosion).

    Soundness of the fates it does commit to:
    - [Same]: the bit's contamination died (overwritten, or never consumed
      again and outside the outputs), so the injected run's observable
      outputs equal the golden outputs.
    - [Trap]: an operation consuming contamination certainly traps — the
      injected run crashes with that trap at that step.
    - [Outputs]: the run reaches the end of the tape with contamination
      confined to known output cells; patching those cells over the golden
      output vector reproduces the injected run's observation exactly
      (see [Context.classify_patched]).

    The walk prescreens events on the packed tape (no event decoding) and
    only decodes the ones that interact with a contaminated cell. *)

type fate =
  | Same  (** injected run converges to the golden outputs *)
  | Trap of Moard_vm.Trap.t  (** injected run certainly crashes *)
  | Outputs of (int * Moard_bits.Bitval.t * Moard_ir.Types.t) list
      (** injected run finishes; outputs = golden patched with these
          [(addr, value-as-stored, store type)] cells *)
  | Unknown  (** needs a real injection *)

val run :
  gmem:Gmem.t ->
  tape:Moard_trace.Tape.t ->
  outputs:Moard_trace.Data_object.t list ->
  start:int ->
  seeds:(int * Masking.changed_out) list ->
  unit ->
  fate array
(** [run ~gmem ~tape ~outputs ~start ~seeds] replays the tape tail
    [(start, length)] once. [seeds] gives, for each changed lane of the
    site at index [start], the corrupted output of the consuming
    operation ({!Masking.changed_out}). Returns a 64-slot array indexed
    by lane; slots not named in [seeds] are meaningless. The tape must be
    frozen (liveness indexes are consulted).

    [gmem] is the golden-memory timeline of the tape. With it, a lane
    whose contamination reaches a load or store {e address} register is
    resolved exactly — wild address = certain trap, redirected access =
    golden-memory question — instead of a real injection, which would
    kill the batched throughput of address-feeding objects like
    pivot-index arrays. *)
