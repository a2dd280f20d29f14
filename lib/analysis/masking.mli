(** Operation-level error-masking analysis (paper §III-C).

    Given a consumption site of the target data object and an error
    pattern, decide — from operation semantics alone, without running the
    application — whether the error is masked by the consuming operation,
    and if not, what corrupted value it hands to error propagation.

    Two entry points answer the same question: {!analyze} for one pattern
    (the scalar oracle), and {!analyze_all} for a whole error-model
    pattern set of a site at once. The batched one runs a per-lane
    kernel: the consuming opcode's own {!Moard_vm.Semantics}, one call
    per lane with the corrupted operand in its slot, classified by the
    same rule as {!analyze}. Every consuming opcode has a kernel, so the
    per-pattern scalar walk survives solely as the differential oracle;
    {!scan_executions} counts the (never expected) last-resort falls into
    it. *)

type t =
  | Masked of Verdict.kind
      (** the operation's result is unchanged by the corruption *)
  | Changed of {
      out : changed_out;
      overshadow : bool;
          (** the corrupted operand of an add/sub stays smaller in magnitude
              than the other operand: any eventual masking is attributed to
              operation-level value overshadowing (paper §III-C) *)
    }
  | Crash_certain of Moard_vm.Trap.t
      (** the corrupted operand makes the operation itself trap *)
  | Divergent
      (** the corruption flips the consuming branch: needs fault injection *)

and changed_out =
  | To_reg of { frame : int; reg : int; value : Moard_bits.Bitval.t }
  | To_mem of { addr : int; value : Moard_bits.Bitval.t; ty : Moard_ir.Types.t }

val analyze :
  Moard_trace.Event.t -> Moard_trace.Consume.kind -> Moard_bits.Pattern.t -> t
(** Read-modify-write store destinations must be delegated by the caller
    to the statement's deriving read via {!Derive.store_rmw_source} before
    calling this (the model does).
    @raise Invalid_argument if the site is not a consumption of the event
    (e.g. a slot of a pure copy). *)

(** The verdict of every pattern of one site under an error model, as
    disjoint lane sets partitioning [Patternset.full_n ~n:lanes] — set
    bit [i] stands for lane [i], i.e. pattern
    [Errmodel.pattern_at model width i]; under the single-bit model that
    is exactly "flip bit [i]". All masked lanes of a site share one kind:
    the kind is a function of (opcode, slot) — see
    {!Reexec.exact_mask_kind} — and the only other masked source (an
    unchanged branch verdict) is [Logic_cmp] on exactly the opcode whose
    exact kind is [Logic_cmp]. *)
type verdicts = {
  width : Moard_bits.Bitval.width;
  model : Moard_bits.Errmodel.t;
  lanes : int;  (** [Errmodel.lanes model width] *)
  masked : Moard_bits.Patternset.t;
  mask_kind : Verdict.kind;  (** kind shared by every masked lane *)
  crash : Moard_bits.Patternset.t;
  traps : (int * Moard_vm.Trap.t) list;
      (** per-lane traps of the crash set, ascending lane order *)
  divergent : Moard_bits.Patternset.t;
  changed : Moard_bits.Patternset.t;
  out_where : changed_out option;
      (** the first changed lane's output; every changed lane writes the
          same register or memory cell *)
  out_bits : Bytes.t;
      (** the image changed lane [i] writes there, at byte [8 i] *)
  overshadow : Moard_bits.Patternset.t;  (** subset of [changed] *)
}

val analyze_all :
  ?model:Moard_bits.Errmodel.t ->
  Moard_trace.Event.t -> Moard_trace.Consume.kind -> verdicts
(** Classify all [Errmodel.lanes model width] patterns of the site in one
    call ([model] defaults to [Single_bit]). Agrees with {!analyze} on
    [Errmodel.pattern_at model width i] for every lane [i]. Same
    delegation and exception contract as {!analyze}. *)

val trap_of_lane : verdicts -> int -> Moard_vm.Trap.t
(** The trap of one lane of the crash set.
    @raise Invalid_argument if the lane is not in the crash set. *)

val changed_out : verdicts -> int -> changed_out
(** The output of one lane of the changed set, as {!analyze_all}
    computed it — what seeds the propagation replay.
    @raise Invalid_argument if the lane is not in the changed set. *)

val changed_out_at :
  ?model:Moard_bits.Errmodel.t ->
  Moard_trace.Event.t -> Moard_trace.Consume.kind -> lane:int ->
  changed_out * bool
(** The [Changed] payload (output and overshadow flag) of one lane of the
    changed set, recomputed by the scalar {!analyze}: equal to
    {!changed_out} and the lane's membership of [overshadow].
    @raise Invalid_argument if the lane is not in the changed set. *)

val scan_executions : unit -> int
(** Process-wide count of falls into the per-pattern scalar walk — the
    observable behind "every registry object sweeps on the batched path":
    a full-registry sweep must leave it unchanged. *)
