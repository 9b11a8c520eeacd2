(** Executor for linked native code images.

    Runs compiled (possibly instrumented) code — in the slot-allocated
    form produced by {!Linker.link} — against the world exposed by an
    {!env}: the simulated machine's memory, I/O ports, the SVA-OS
    intrinsics, and kernel helper functions.  The executor keeps an
    explicit call stack, so control-data attacks are expressible:
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
    executor is the reference that engine is checked against (cycle
    goldens, the differential fuzz, the executor bench). *)

type env = {
  load : int64 -> Ir.width -> int64;
  store : int64 -> Ir.width -> int64 -> unit;
  memcpy : dst:int64 -> src:int64 -> len:int64 -> unit;
  io_read : int64 -> int64;
  io_write : int64 -> int64 -> unit;
  extern : string -> int64 array -> int64;
      (** Direct calls to functions not present in the image. *)
  call_foreign : int64 -> int64 array -> int64;
      (** Indirect calls whose (possibly masked) target lies outside the
          image. Only consulted by {e unchecked} indirect calls; checked
          ones refuse such targets. *)
  charge : Vg_obs.Obs.Tag.t -> int -> unit;
      (** Cycle accounting.  The tag says what the cycles pay for
          ({!Vg_obs.Obs.Tag.Exec} for ordinary instructions,
          {!Vg_obs.Obs.Tag.Cfi} for label checks,
          {!Vg_obs.Obs.Tag.Copy} for memcpy length cost) so sinks can
          attribute instrumentation overhead; implementations that don't
          care simply ignore it. *)
  tamper_return : (int64 -> int64) option;
      (** Attack hook: rewrite each popped return address. *)
  spec_depth : int;
      (** Transient window budget in macro-ops.  0 (the default)
          disables speculation entirely: no windows open, no cache
          model is consulted, execution is byte-identical to a
          speculation-free build. *)
  spec_load : int64 -> Ir.width -> int64 option;
      (** Resolve a load on the wrong path: returns the value and warms
          the address's cache line without charging cycles, or [None]
          if the address does not translate (the window squashes).
          Typically {!Vg_machine.Machine.spec_load}. *)
  spec_window : unit -> unit;
      (** Bookkeeping hook called once per opened window. *)
}

val null_env : env
(** An environment whose memory is a tiny private scratch array and
    whose other callbacks reject; convenient base for tests:
    [{ null_env with load = ...; store = ... }]. *)

exception Cfi_violation of string
(** A CFI check failed: the kernel thread would be terminated. *)

exception Exec_trap of string
(** Non-CFI execution error (bad jump, arity mismatch, fuel, ...). *)

val run : ?fuel:int -> env -> Linker.image -> string -> int64 array -> int64
(** [run env image func args] executes [func].  Returns the function's
    result (0 for void).  @raise Not_found if [func] is not a symbol. *)
