(** The SVA-OS hardware abstraction layer and Virtual Ghost VM.

    This is the trusted computing base interposed between the kernel
    and the hardware (paper sections 3-5).  It runs at the same
    privilege level as the kernel — nothing here is a hypervisor — and
    its data is protected from the kernel by the compiler
    instrumentation, not by page permissions.  The kernel must use the
    operations below for everything hardware-related:

    - MMU configuration ({!map_page}, {!unmap_page}, {!protect_page}),
      with run-time checks that ghost frames, SVA-internal frames and
      native-code frames can never be exposed to the OS;
    - trap entry and exit ({!enter_trap}, {!return_from_trap}), which
      save the Interrupt Context in SVA-internal memory and zero
      registers before the kernel sees them;
    - thread state ({!new_thread}, {!clone_thread_state},
      {!reinit_icontext});
    - signal-handler dispatch ({!permit_function}, {!ipush_function},
      {!icontext_save}, {!icontext_load});
    - ghost memory ({!allocgm}, {!freegm}) and its swapping
      ({!swap_out_ghost}, {!swap_in_ghost});
    - key management ({!get_app_key}, via the TPM-rooted chain) and
      trusted randomness ({!random_bytes});
    - programmed I/O ({!io_read}, {!io_write}) with port checks that
      keep the IOMMU configuration out of the kernel's reach.

    Booting with [mode = Native_build] produces the baseline system:
    the same API shape, but none of the Virtual Ghost checks — which is
    both the performance baseline and the system the attack suite
    succeeds against. *)

type mode = Native_build | Virtual_ghost

type t

(** {1 Boot} *)

val boot : ?vg_key_bits:int -> mode:mode -> Machine.t -> t
(** Initialise the VM on a machine: reserve and map SVA-internal
    memory, set up the IST, derive the key chain from the TPM (the
    RSA pair, [vg_key_bits] wide — default 256 — is generated on first
    boot and resealed into TPM NVRAM), seed the trusted DRBG, and (in
    Virtual Ghost mode) configure the IOMMU to exclude protected
    frames. *)

val mode : t -> mode
val machine : t -> Machine.t
val vg_public_key : t -> Vg_crypto.Rsa.public
val vg_private_key_for_installer : t -> Vg_crypto.Rsa.private_
(** Trusted-installer escape hatch used to sign application binaries
    (the paper assumes installation by a trusted administrator). *)

val translation_cache : t -> Vg_compiler.Trans_cache.t
(** The signed native-code translation cache for kernel/module code. *)

(** {1 Frame registry} *)

type frame_use =
  | Kernel_managed  (** ordinary memory the OS controls *)
  | Ghost_frame of int  (** ghost memory owned by process [pid] *)
  | Sva_internal
  | Code_frame  (** holds native code translations *)

val frame_use : t -> int -> frame_use
val set_code_frame : t -> int -> unit
(** Mark a frame as holding native code (refused writable mappings). *)

(** {1 Checked MMU operations} *)

type mmu_error =
  | Protected_frame of frame_use
  | Protected_range of string
  | Not_ghost_owner

val pp_mmu_error : Format.formatter -> mmu_error -> unit

val declare_address_space : t -> pid:int -> Pagetable.t
(** Create (and register) a process address space. *)

val release_address_space : t -> Pagetable.t -> unit

val map_page :
  t -> Pagetable.t -> va:int64 -> frame:int -> perm:Pagetable.perm ->
  (unit, mmu_error) result
(** Kernel-requested mapping.  In Virtual Ghost mode the call is
    refused when it would (a) map a ghost or SVA-internal frame
    anywhere, (b) create any mapping inside the ghost or SVA virtual
    ranges, (c) remap or write-enable native code. *)

val unmap_page : t -> Pagetable.t -> va:int64 -> (unit, mmu_error) result

val unmap_pages : t -> Pagetable.t -> vas:int64 list -> unit
(** Batched unmap for address-space teardown: the same per-page checks
    as {!unmap_page}, but one cross-core TLB shootdown for the whole
    batch (failures are skipped), as real kernels batch exit/munmap
    invalidations. *)

val protect_page :
  t -> Pagetable.t -> va:int64 -> perm:Pagetable.perm -> (unit, mmu_error) result

val map_kernel_page :
  t -> va:int64 -> frame:int -> perm:Pagetable.perm -> (unit, mmu_error) result
(** Same checks, against the shared kernel page table. *)

(** {1 Trap entry / exit} *)

val enter_trap : t -> tid:int -> unit
(** Hardware trap reached the VM: save the interrupted thread's
    context (into SVA memory under Virtual Ghost; onto the
    kernel-visible stack otherwise), zero registers (Virtual Ghost),
    charge trap costs, and flip to kernel privilege. *)

val return_from_trap : t -> tid:int -> unit
(** Resume the thread from its (possibly tampered, in native mode)
    saved context; charges return cost and restores user privilege. *)

(** {1 SVA-mediated context switching} *)

val swap_integer : t -> tid:int -> (unit, string) result
(** [sva.swap.integer]: the {e only} way the kernel switches threads.
    The outgoing thread's integer state stays inside SVA memory, the
    CPU's registers are zeroed on the way in, and the incoming thread's
    state is loaded by the VM — the kernel names threads by opaque tid
    and never observes saved register state.  Refuses (with a
    [Security] event) to resume a thread that is currently live on
    another CPU.  On multi-CPU machines the cross-CPU run-state check
    charges {!Cost.sva_swap_smp}; on one CPU it is free. *)

val swap_idle : t -> unit
(** Park the current core in its per-CPU idle context: the outgoing
    thread's state is saved into SVA memory and the thread becomes
    resumable from any core.  Called by the scheduler when a fiber is
    preempted or finishes. *)

val running_on : t -> cpu:int -> int option
(** Which thread the VM believes is live on core [cpu]. *)

(** {1 Threads and interrupt contexts} *)

val new_thread : t -> pid:int -> entry:int64 -> stack:int64 -> int
(** [sva.newstate]: create a thread whose Interrupt Context starts at
    [entry]; returns the thread id. *)

val clone_thread : t -> tid:int -> new_pid:int -> int
(** Fork support: duplicate the Interrupt Context into a new thread. *)

val free_thread : t -> tid:int -> unit
(** Forget a thread.  Freeing a process's last thread also drops its
    registered signal handlers ({!permit_function}) and its
    application key, so a thread the kernel later creates with the
    same pid inherits neither. *)

val thread_icontext : t -> tid:int -> Icontext.t
(** The VM's authoritative copy (reads the kernel-visible mirror first
    in native mode, making tampering effective there).
    @raise Not_found for unknown threads. *)

val set_syscall_result : t -> tid:int -> int64 -> unit
(** Write the return value register of a thread's saved context. *)

val native_ic_address : t -> tid:int -> int64 option
(** Where the context sits in kernel-visible memory — [Some va] in
    native builds (the attack surface), [None] under Virtual Ghost. *)

val reinit_icontext :
  t ->
  tid:int ->
  pt:Pagetable.t ->
  image:Appimage.t ->
  stack:int64 ->
  (bytes * int list, string) result
(** [sva.reinit.icontext] for [execve]: validate the image signature,
    decrypt its application key, point the context at the image entry,
    and unmap (zeroing) any ghost memory of the previous program.
    Returns the application key (held in SVA memory; applications read
    it via {!get_app_key}) and the ghost frames released back to the
    OS. *)

(** {1 Signal-handler dispatch} *)

val permit_function : t -> pid:int -> int64 -> unit
(** [sva.permitFunction]: the application registers an address as a
    valid signal-handler entry. *)

val is_permitted : t -> pid:int -> int64 -> bool
(** Whether the process registered the address as a handler. *)

val ipush_function :
  t -> tid:int -> target:int64 -> arg:int64 -> (unit, string) result
(** [sva.ipush.function]: push the current context and arrange for the
    thread to run [target] on resume.  Under Virtual Ghost the target
    must have been registered with {!permit_function}. *)

val icontext_load : t -> tid:int -> (int64, string) result
(** [sigreturn]: pop the pushed context.  The result is the restored
    context's result register (gpr 0), which sigreturn returns. *)

val saved_contexts : t -> tid:int -> int
(** How many contexts {!ipush_function} saved that {!icontext_load}
    has not popped. *)

(** {1 Ghost memory} *)

val allocgm :
  t -> pid:int -> pt:Pagetable.t -> va:int64 -> frames:int list ->
  (unit, string) result
(** Map the supplied kernel-provided frames at [va] (page-aligned,
    inside the ghost partition).  Each frame must be kernel-managed
    and mapped nowhere; frames are zeroed before use. *)

val freegm :
  t -> pid:int -> pt:Pagetable.t -> va:int64 -> count:int -> (int list, string) result
(** Unmap [count] pages of ghost memory, zero the frames and return
    them to the OS.  Pages of the range that are currently swapped out
    are released by invalidating their freshness entry (their stored
    blobs can never be restored); only the resident frames appear in
    the returned list. *)

(** {2 Sealed swapping}

    "Unlike programmed I/O, swapping of ghost memory is the
    responsibility of Virtual Ghost" (paper section 3.3): the OS picks
    victims and stores bytes, but only the VM touches plaintext.  Under
    Virtual Ghost a swapped page leaves the VM as
    [nonce || AES-CTR+HMAC(pid || va || version || page)] under a
    per-boot key derived from the TPM chain, and the VM keeps a
    per-page version table in its own protected memory — swap-in
    verifies integrity {e and} freshness, so corrupted blobs, blobs
    belonging to another page or process, and stale-but-valid blobs
    (replay) are all refused, each with one [Security{swap}] event.
    The native baseline stores raw page bytes and restores whatever
    the kernel presents. *)

val swap_out_ghost :
  t -> pid:int -> pt:Pagetable.t -> va:int64 -> (int * bytes, string) result
(** Seal one ghost page, unmap and zero it, and hand the (frame, blob)
    pair to the OS for storage. *)

val swap_in_ghost :
  t -> pid:int -> pt:Pagetable.t -> va:int64 -> frame:int -> blob:bytes ->
  (unit, string) result
(** Verify a stored blob and restore the page into [frame].  Every
    refusal — unknown page, bad frame, corrupted blob, substitution,
    replay — emits one [Security{swap}] event under Virtual Ghost. *)

(** {1 Monotonic counters}

    Support for the paper's future-work item on replay protection
    ("how should applications ensure that the OS does not perform
    replay attacks by providing older versions of previously encrypted
    files?"): the VM keeps named monotonic counters per application
    identity (the application key), persisted in TPM NVRAM so they
    survive reboots and sealed so the OS cannot roll them back. *)

val counter_next : t -> pid:int -> string -> (int, string) result
(** Increment and return the named counter for the calling
    application; fails when the process has no application key (no
    durable identity to bind the counter to). *)

val counter_current : t -> pid:int -> string -> (int option, string) result
(** Current value, [None] if never incremented. *)

(** {1 Keys and randomness} *)

val get_app_key : t -> pid:int -> bytes option
(** [sva.getKey]: the application key recovered at [execve]. *)

val random_bytes : t -> int -> bytes
(** [sva.random]: entropy the OS cannot influence (defeats Iago
    attacks on /dev/random). *)

(** {1 Programmed I/O} *)

val io_read : t -> port:int64 -> int64
val io_write : t -> port:int64 -> int64 -> (unit, string) result
(** Port I/O with run-time checks: writes to the IOMMU configuration
    ports are refused in Virtual Ghost mode (paper section 4.3.3). *)

val iommu_config_port : int64
(** The simulated IOMMU control port. *)

