(** The contract between an execution engine and its world.

    {!Exec_compile.run} (the kernel's engine) and the slot executor kept
    as a test oracle both run linked images against an {!env}: the
    simulated machine's memory, I/O ports, the SVA-OS intrinsics, and
    kernel helper functions.  A run that breaks the rules ends in one
    of the two exceptions below. *)

type env = {
  load : Bytes.t -> Ir.width -> unit;
      (** [load cell width]: load [width] bytes at the address in
          [cell] and put the value in [cell]
          ([set cell value (... (get cell address))]).  The memory
          callbacks exchange words through the engine's cell rather
          than as arguments and results, so an access boxes no [int64]
          on either side. *)
  store : Bytes.t -> Ir.width -> unit;
      (** [store cell width]: store [get cell value] at
          [get cell address], truncated to [width]. *)
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
  observed : unit -> bool;
      (** Whether something watches the individual charges (an armed
          observability hub).  While it answers [false] an engine may
          sum consecutive [Exec] ticks and pay them in one [charge]
          before anything can read the clock: before every other
          callback, before raising and before returning.  The engine
          asks at the start of a run and again after every [extern],
          [call_foreign], [io_read] and [io_write], the callbacks that
          can run code which arms a hub. *)
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

(** {1 The memory exchange cell}

    A cell is {!cell_bytes} bytes: the word at offset {!address} is the
    address of a load or store, the word at offset {!value} the value a
    store writes or a load returns.  {!get} and {!set} are compiler
    primitives, so they read and write the words unboxed in any
    module. *)

val cell_bytes : int
(** 16. *)

val address : int
(** 0. *)

val value : int
(** 8. *)

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"
