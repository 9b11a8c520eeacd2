(** The contract between an execution engine and its world.

    {!Exec_compile.run} (the kernel's engine) and the slot executor kept
    as a test oracle both run linked images against an {!env}: the
    simulated machine's memory, I/O ports, the SVA-OS intrinsics, and
    kernel helper functions.  A run that breaks the rules ends in one
    of the two exceptions below. *)

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
