(** The remaining attack vectors of the paper's section 2.2, each as a
    self-contained experiment returning whether the attack succeeded
    (stole or corrupted ghost data).  Run against both build modes,
    they demonstrate the paper's claim table: every vector succeeds on
    the baseline and fails under Virtual Ghost.  Each experiment boots
    its own node, reporting to the hub [obs]. *)

val mmu_remap_attack : obs:Vg_obs.Obs.t -> mode:Sva.mode -> bool
(** The kernel asks the MMU layer to map the victim's ghost frame at a
    kernel-readable address and reads it (section 2.2.1, MMU vector). *)

val dma_attack : obs:Vg_obs.Obs.t -> mode:Sva.mode -> bool
(** The kernel programs a device to DMA the ghost frame out to the
    disk, then reads the disk (section 2.2.1, DMA vector).  Includes
    the attempt to reconfigure the IOMMU through its I/O port first. *)

val icontext_tamper_attack : obs:Vg_obs.Obs.t -> mode:Sva.mode -> bool
(** The kernel rewrites the program counter in the victim's saved
    Interrupt Context so the victim resumes in attacker-chosen code
    (section 2.2.4). *)

val evil_mmap_program : unit -> Ir.program
(** The hostile [sys_mmap] module used by {!iago_mmap_attack}: returns
    a pointer into the caller's own ghost heap.  Exposed so the
    [vgsim verify] catalogue can verify the attack modules too. *)

val iago_mmap_attack : obs:Vg_obs.Obs.t -> mode:Sva.mode -> ghosting:bool -> bool
(** A hostile [mmap] returns a pointer into the application's own ghost
    heap; a non-ghosting (unmasked) application writing through it
    corrupts its own secret (section 2.2.5).  [ghosting] selects
    whether the application was compiled with the masking pass. *)

val ring_ghost_buffer_attack : obs:Vg_obs.Obs.t -> mode:Sva.mode -> bool
(** A syscall-ring submission carries a [write] whose buffer register
    points at the application's ghost secret (the batched variant of
    the direct-read vector).  Success means the secret reached the
    exfiltration file; under Virtual Ghost the instrumented copyin
    masks the access and the file holds zeros. *)

val file_replay_attack : obs:Vg_obs.Obs.t -> mode:Sva.mode -> bool
(** The OS keeps an old version of an application's encrypted
    configuration file and substitutes it later (paper section 10's
    replay concern).  Success means the application accepted the stale
    data.  The Virtual Ghost run uses the replay-protected
    {!Vg_userland.Sealed_store}; the baseline has nothing to detect
    the swap with. *)

val swap_tamper_attack : obs:Vg_obs.Obs.t -> mode:Sva.mode -> bool
(** The OS modifies a swapped-out ghost page before handing it back
    (section 2.2.2); success means the modification went undetected.
    Under the baseline there is no sealed swapping at all, so the OS
    trivially reads and modifies the page — reported as success. *)

val swap_replay_attack : obs:Vg_obs.Obs.t -> mode:Sva.mode -> bool
(** The OS keeps a stale — but authentically sealed — copy of a
    swapped-out ghost page and serves it after the application has
    rotated the page's contents (paper section 3.3 / section 10's
    replay concern, applied to swap).  Drives the real kernel swap
    paths ({!Vg_kernel.Ghost_swap}).  Success means the application
    silently got its old secret back; Virtual Ghost versions every
    seal and refuses the stale blob with one [Security{swap}] event. *)

val swap_substitution_attack : obs:Vg_obs.Obs.t -> mode:Sva.mode -> bool
(** The OS swaps out ghost pages of two processes and serves the
    victim's blob when the colluding process faults its own page back
    in.  Success means the colluder read the victim's secret; Virtual
    Ghost binds pid and address into the sealed header and refuses the
    foreign blob with one [Security{swap}] event. *)

val swap_thrash_attack : obs:Vg_obs.Obs.t -> mode:Sva.mode -> bool
(** Hostile eviction policy: thrash-bomb one hot ghost page (evict,
    fault, evict, ...) and use the stream of stored blobs as an
    oracle.  Success means a blob carried the plaintext secret or two
    evictions of the unchanged page produced identical blobs (an
    equality oracle).  The thrashing itself is a denial of service the
    threat model permits — but under Virtual Ghost the data never
    leaks, never corrupts, and every seal is fresh. *)

val sfip_sequence_attack : obs:Vg_obs.Obs.t -> mode:Sva.mode -> bool
(** A hijacked process whose honest workload is open/read/close tries
    to [connect]/[send] its config file to an attacker — a transition
    its syscall-flow profile never contains.  Under Virtual Ghost the
    profile (recorded from the honest run) is enforced at dispatch:
    the process is killed at the first out-of-policy call with one
    [Security{sfip}] event and [ESFIP].  The baseline has no signed
    profiles, so the sequence executes and the secret leaves. *)

val sfip_ring_sequence_attack : obs:Vg_obs.Obs.t -> mode:Sva.mode -> bool
(** The same vector through the batched syscall ring: the [connect]
    hides between two in-policy entries of one batch.  The kernel vets
    the whole batch — intra-batch transitions included — before
    running any entry, so under enforcement the batch yields zero
    completions; success means the connect's completion came back. *)

val sfip_profile_swap_attack : obs:Vg_obs.Obs.t -> mode:Sva.mode -> bool
(** The OS swaps the strict profile inside a signed app image for a
    permissive one (recorded from the attack sequence itself).
    Profiles live in the image's signed region, so under Virtual Ghost
    [execve] refuses the tampered image outright; the baseline checks
    no signatures, loads the permissive profile and the exfiltration
    runs "in policy". *)

val smp_remap_race_attack : obs:Vg_obs.Obs.t -> mode:Sva.mode -> bool
(** Two-CPU variant of the MMU vector: while the victim is live on
    core 0 with its ghost page mapped, a malicious module on core 1
    races a remap of the backing frame into the kernel address space
    and reads it.  Virtual Ghost refuses the mapping (emitting a
    [Security] event) and would broadcast a TLB shootdown on any
    successful remap; the baseline kernel happily installs the alias
    and steals the secret. *)
