(** The assembled kernel: a miniature FreeBSD-like monolithic kernel
    ported to the SVA-OS API.

    The kernel never touches hardware directly: page-table updates go
    through {!Sva.map_page} and friends, trap entry/exit through
    {!Sva.enter_trap}/{!Sva.return_from_trap}, and its memory accesses
    through {!Kmem} (which models compilation with or without the
    Virtual Ghost passes — the build mode is fixed at {!boot}).

    User code runs as OCaml closures (managed by the userland runtime)
    that invoke system calls through {!Syscalls}; calls that would
    block return [EAGAIN].  Direct process driving is cooperative; the
    {!Sched} fiber scheduler adds timer-tick preemption at syscall
    boundaries via the {!t.preempt} hook. *)

type t = {
  machine : Machine.t;
  sva : Sva.t;
  kmem : Kmem.t;
  frames : Frame_alloc.t;
  bc : Buffer_cache.t;
  fs : Diskfs.t;
  net : Netstack.t;
  procs : (int, Proc.t) Hashtbl.t;
  mutable next_pid : int;
  current : int array;
      (** per-CPU: pid whose address space is installed on that core *)
  overrides : (Syscall_abi.Sysno.t, syscall_override) Hashtbl.t;
      (** loadable-module replacements, keyed by validated syscall
          number: the registry {!Module_loader.loaded_overrides} lists
          in its order *)
  override_of : syscall_override option array;
      (** the same replacements indexed by syscall number, which the
          trap path reads without hashing; {!Module_loader} keeps the
          two in step *)
  module_externs : (string, t -> Proc.t -> int64 array -> int64) Hashtbl.t;
      (** kernel helper API exposed to module native code *)
  frame_refs : (int, int) Hashtbl.t;
      (** copy-on-write frame sharing counts (absent = 1) *)
  modules : (string, Syscall_abi.Sysno.t list) Hashtbl.t;
      (** loaded module name -> syscalls it overrides *)
  proc_lock : Spinlock.t;  (** guards the process table / pid counter *)
  frame_lock : Spinlock.t;  (** guards the physical frame allocator *)
  swap : Swap_state.t;
      (** ghost-swap pressure engine state (driven by {!Ghost_swap}) *)
  mutable preempt : unit -> unit;
      (** called at the syscall-trap epilogue; the {!Sched} scheduler
          installs a hook that yields the running fiber when the
          core's timer has fired.  Default: nothing (cooperative). *)
  mutable block : unit -> bool;
      (** called by blocking syscalls when the wanted condition is not
          yet true: yield the caller and return [true] to retry after a
          wakeup, or return [false] to give up — the syscall then
          reports [EAGAIN].  Default: [fun () -> false], so directly
          driven processes keep the historical non-blocking contract;
          {!Sched.run} installs a fiber-yielding hook. *)
  child_wq : Waitq.t;  (** woken on every process exit (wait sleeps here) *)
  mutable syscall_count : int;
  spec_mitigation : Vg_compiler.Mitigation.t;
      (** the Spectre hardening selected at boot: the kernel image and
          every loaded module are compiled under it, and the
          translation cache refuses instrumented blobs carrying any
          other mitigation *)
  installer_rng : Vg_crypto.Drbg.t;
      (** pads the key sections of the application images the trusted
          installer signs for this kernel
          ({!Vg_apps.Ssh_suite.install_images}); seeded by a constant
          at boot, so identically booted kernels install identical
          images, and separate from the SVA's entropy stream *)
  mutable images : Appimage.t array;
      (** install handles for [execve]: index = handle (see
          {!image_handle}) *)
}

and syscall_override = {
  func : string;  (** the overriding module function *)
  compiled : Vg_compiler.Exec_compile.t;
      (** the module's closure-compiled image
          ({!Vg_compiler.Exec_compile.image} reads the linked image
          back); only ever obtained through
          {!Vg_compiler.Trans_cache.find_compiled}, i.e. after the image
          verifier accepted the image *)
}

val boot :
  frame_limit:int option ->
  spec_mitigation:Vg_compiler.Mitigation.t ->
  mode:Sva.mode ->
  Machine.t ->
  t
(** Initialise SVA, the frame allocator, buffer cache, a fresh file
    system (or remount an existing one), the network stack, and the
    init process (pid 1).  [frame_limit] caps the kernel's frame
    allocator — a memory-constrained machine that forces ghost
    swapping.  Module override code always runs on the
    closure-compiled translation ({!Vg_compiler.Exec_compile}) of its
    verified image.  [spec_mitigation] selects the Spectre hardening of
    the sandbox: the kernel image and every module are compiled under
    it and the translation cache is bound to it
    ({!Vg_compiler.Trans_cache.set_mitigation}).

    Only [Vg_fleet.Node.boot] and [Node.reboot] call this, with every
    argument from the node's [Vg_fleet.Node_config]. *)

val mode : t -> Sva.mode
val init_process : t -> Proc.t

val find_proc : t -> int -> Proc.t option

val image_handle : t -> Appimage.t -> int
(** The install handle [execve] takes for an image: registered on
    first use, and reused for the same image (physical equality), so
    exec'ing one image many times does not grow the table. *)

val image_of_handle : t -> int -> Appimage.t option
val current_pid : t -> int
val current_proc : t -> Proc.t

val switch_to : t -> Proc.t -> unit
(** Context switch on the current core, through the SVA-mediated path:
    [sva.swap.integer] (the only way threads change — saved register
    state never leaves SVA memory) followed by the checked page-table
    install.  A refusal (thread live on another core) is fatal here;
    hostile schedulers get the [Error] from {!Sva.swap_integer}. *)

val reap_zombie : t -> parent:int -> int option
(** Remove one zombie child of pid [parent] from the process table
    (the table-side half of [wait]); returns its pid.  Used by the
    fiber runtime, which reaps on the dying fiber's core instead of
    context-switching to the parent. *)

val create_process : t -> parent:Proc.t -> Proc.t Errno.result
(** Allocate a pid, address space and SVA thread (used by [fork] and
    by the userland runtime for initial processes). *)

val map_user_page : t -> Proc.t -> int64 -> unit Errno.result
(** Demand-map one traditional user page (allocates and zeroes a
    frame). *)

val ensure_user_range : t -> Proc.t -> int64 -> len:int -> unit Errno.result
(** Map every page overlapping [va, va+len). *)

val handle_page_fault : t -> Proc.t -> int64 -> unit Errno.result
(** The kernel's page-fault handler: trap accounting plus demand
    mapping and copy-on-write resolution.  [EFAULT] for addresses
    outside the user range. *)

val share_frame : t -> int -> unit
(** Add a copy-on-write reference to a frame (fork). *)

val release_frame : t -> int -> unit
(** Drop a reference; the frame is zeroed and freed when the last
    reference goes (zero-on-free pool, where the zeroing cost is
    charged). *)

val resolve_cow_range : t -> Proc.t -> int64 -> len:int -> unit
(** Ensure a user range is privately writable before a kernel copyout
    (the write fault the hardware would deliver mid-copy). *)

val user_ro : Pagetable.perm
(** Read-only user mapping used for shared copy-on-write pages. *)

val free_user_pages : t -> Proc.t -> unit
(** Tear down all traditional user pages of a process. *)

