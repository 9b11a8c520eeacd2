(** The kernel's memory-access discipline.

    Every memory access the (OCaml-modelled) kernel performs goes
    through this module, which plays the role of the code the Virtual
    Ghost compiler would have emitted:

    - in a [Native_build] kernel, {!load}/{!store} translate the given
      virtual address directly — including ghost and SVA addresses,
      which is exactly the attack surface;
    - in a [Virtual_ghost] kernel, the address is first transformed by
      {e the same function the sandboxing pass implements in IR}
      ({!Vg_compiler.Sandbox_pass.masked_address}), and the extra
      instructions are charged to the cycle clock.

    Accesses that fault (e.g. a masked ghost address landing on an
    unmapped kernel page) read zero / drop the store rather than
    killing the kernel — the paper's observed behaviour is "the kernel
    simply reads unknown data out of its own address space".

    Beyond real addressed accesses, subsystems charge abstract
    instrumented work through {!work} (N memory operations of kernel
    bookkeeping whose bytes are not individually modelled) and
    {!fn_entry} (per-function CFI cost), so that instrumentation
    overhead scales with the amount of kernel code a path executes. *)

type t

(** [create ?mitigation sva] — [mitigation] (default [Off]) is the
    Spectre hardening the kernel was compiled under: it adds the
    corresponding per-memory-operand surcharge
    ({!Vg_compiler.Fence_pass.fence_cycles} under [Fence], the two
    extra mask instructions under [Safe_mask]) to every Virtual Ghost
    access and {!work} unit, charged to the [Spec] cycle tag. *)
val create : ?mitigation:Vg_compiler.Mitigation.t -> Sva.t -> t

val sva : t -> Sva.t
val machine : t -> Machine.t
val mode : t -> Sva.mode

val load : t -> int64 -> len:int -> int64
(** Instrumented kernel load ([len] in 1/2/4/8). *)

val store : t -> int64 -> len:int -> int64 -> unit
(** Instrumented kernel store. *)

val read_into : t -> int64 -> bytes -> off:int -> len:int -> unit
(** [read_into t addr dst ~off ~len] is an instrumented bulk read (a
    [memcpy] out of somewhere) into [dst] at [off].  The range is taken
    in page chunks; each chunk pays its own mask (under Virtual Ghost)
    and its own {!Machine.read_virt_into} copy charge, and lands
    straight in [dst] — one host copy.  A chunk that faults reads as
    zeros (with a [Security{sandbox}] event under Virtual Ghost) and
    later chunks are still copied.
    @raise Invalid_argument if [off]/[len] do not fit [dst]. *)

val read_bytes : t -> int64 -> len:int -> bytes
(** Allocating form of {!read_into}. *)

val write_bytes : t -> int64 -> bytes -> unit
(** Instrumented bulk write, chunked, masked and charged as
    {!read_into}; each chunk is written from its offset in the source
    (no sub-buffers), and a faulting chunk's store is dropped. *)

val read_budgeted : t -> int64 -> bytes -> bool
(** [read_budgeted t addr dst] fills [dst] from [addr] with a copy
    whose cost the caller charges as a fixed budget: each chunk is
    masked and faults as in {!read_into}, but the copy charges no
    [Copy], [Mem], [Tlb], [Mask] or [Spec] cycles and touches neither
    the TLB nor the cache-line set.  [false] if some chunk faulted
    (it reads as zeros, with the same [Security{sandbox}] event under
    Virtual Ghost). *)

val write_budgeted : t -> int64 -> bytes -> bool
(** The write direction of {!read_budgeted}: a faulting chunk's store
    is dropped. *)

val work : t -> int
  -> unit
(** [work t n] models [n] kernel memory operations on kernel-private
    data structures: charges [n * mem_access], plus [n * sandbox_mask]
    under Virtual Ghost. *)

val fn_entry : t -> unit
(** Models entering one instrumented kernel function: charges the CFI
    label/check cost under Virtual Ghost, nothing otherwise. *)

