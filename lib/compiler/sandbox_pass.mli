(** Load/store sandboxing (paper sections 4.3.1 and 5).

    Rewrites every kernel memory operation — loads, stores, atomics and
    both pointers of [memcpy] — so that the effective address can never
    fall in the ghost partition or in SVA-internal memory:

    - any address [>= 0xffffff0000000000] is ORed with bit 39, which
      maps ghost addresses onto the kernel partition and leaves kernel
      addresses unchanged (3 extra instructions per memory operand);
    - any address inside SVA-internal memory is replaced by 0 (4 extra
      instructions per memory operand), reproducing the paper's
      simplification of keeping SVA memory inside the kernel data
      segment rather than in its own masked partition.

    The pass is a pure IR-to-IR transform; codegen lowers the added
    compare/or/select instructions like any others, so the run-time cost
    of sandboxing emerges from actually executing them. *)

val instrument_program : ?mitigation:Mitigation.t -> Ir.program -> Ir.program
(** Instrument every function of a kernel program.  [mitigation]
    (default [Off]) selects the masking variant: [Off] and [Fence] use
    the classic predicated sequence ([Fence]'s lfences are inserted by
    the separate {!Fence_pass}); [Safe_mask] uses the branchless
    data-dependency sequence. *)

val instrument_func : ?mitigation:Mitigation.t -> Ir.func -> Ir.func

val instrument_instr : ?mitigation:Mitigation.t -> Ir.instr -> Ir.instr list
(** The per-instruction transform: a memory operation becomes the mask
    sequence(s) plus the rewritten operation; anything else is returned
    unchanged.  Exposed so tests can build deliberately de-instrumented
    "evil pass" variants that {!Image_verify} must catch. *)

val safe_mask_instructions : int
(** Length of the branchless [Safe_mask] sequence (9). *)

val masked_address : int64 -> int64
(** The run-time semantics of the inserted sequence, as one function:
    what address an instrumented kernel access actually touches.  Used
    by the kernel's memory-accessor layer (which models compiled kernel
    code without going through codegen) and by tests to cross-check the
    IR sequence. *)

val added_instructions_per_operand : int
(** How many instructions instrumentation adds per memory operand
    (used by instrumentation-overhead assertions in tests). *)
