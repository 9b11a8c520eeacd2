(** Executor for linked native code images.

    Runs compiled (possibly instrumented) code — in the slot-allocated
    form produced by {!Linker.link} — against the world exposed by an
    {!Exec_env.env}: the simulated machine's memory, I/O ports, the
    SVA-OS intrinsics, and kernel helper functions.  The executor keeps
    an explicit call stack, so control-data attacks are expressible:
    [tamper_return] lets a test (or a simulated kernel buffer overflow)
    corrupt a return address the instant it is popped, and indirect
    calls read their targets from data the program computed.  CFI
    instrumentation, when present in the image, catches both.

    Every executed instruction calls [charge], so the cycle cost of
    instrumentation emerges from actually executing the extra
    instructions rather than from a bolted-on estimate.  Frames are
    spans of one reusable register-file stack and symbol/label
    resolution is O(1) (precomputed at link time); none of that changes
    what [charge] sees — the lowered code has slot-for-slot the same
    shape, so simulated cycle counts are identical to the pre-linking
    executor's.

    The kernel itself runs module code on {!Exec_compile}; this
    executor is a test oracle, the reference that engine is checked
    against (cycle goldens, the differential fuzz, the executor
    bench). *)

val run : ?fuel:int -> Exec_env.env -> Linker.image -> string -> int64 array -> int64
(** [run env image func args] executes [func].  Returns the function's
    result (0 for void).  @raise Not_found if [func] is not a symbol. *)
