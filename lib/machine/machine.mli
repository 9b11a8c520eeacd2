(** The assembled simulated machine.

    An array of CPU cores — each with its own privilege level, current
    address space, TLB, cycle clock and local timer — over shared
    lazily-allocated physical memory and the device complement of the
    paper's testbed: console, SSD, a gigabit NIC (whose far end is
    exposed so workload generators can play the remote client), an
    IOMMU, and a TPM.

    The simulator executes one core at a time: {!switch_core} selects
    which core the accessors operate on and whose clock subsequent
    {!charge}s advance.  Parallel execution is modelled by the
    scheduler interleaving cores deterministically on the simulated
    clock (always resuming the most-behind core), so wall-clock time is
    the {e maximum} over the per-core clocks ({!max_cycles}).  A
    machine created with [cpus:1] behaves exactly as the
    single-CPU machine always has — same charges, same clock.

    Virtual-memory accessors perform the full translation and
    permission check and raise {!Page_fault} exactly as hardware would;
    the SVA layer and the kernel build their memory disciplines on top
    of these raw accessors. *)

type privilege = User | Kernel

type access = Read | Write | Exec

exception
  Page_fault of {
    va : int64;
    access : access;
    present : bool;  (** true when mapped but permission-denied *)
  }

type t

val create :
  cpus:int ->
  phys_frames:int ->
  disk_sectors:int ->
  obs:Vg_obs.Obs.t ->
  spec_depth:int ->
  seed:string ->
  t
(** Build a machine; [Vg_fleet.Node_config] holds the defaults.  The
    seed determinises the TPM and entropy source.  The machine reports
    to [obs] and to no other hub.  [spec_depth] is the speculative-window
    budget in macro-ops; at 0 the machine has no speculation, no cache
    side channel, and cycle counts identical to the pre-speculation
    cost model. *)

(** {1 Cores} *)

val cpus : t -> int

val cpu : t -> int
(** Index of the core currently executing. *)

val switch_core : t -> int -> unit
(** Select which core subsequent accessors and charges apply to.  This
    is the simulator's interleaver stepping, not a hardware action — it
    charges nothing. *)

(** {1 Clock and accounting} *)

val charge : ?tag:Vg_obs.Obs.Tag.t -> t -> int -> unit
(** Advance the current core's cycle clock, attributing the cycles to
    [tag] (default {!Vg_obs.Obs.Tag.Other}).  The clock advances
    identically whether or not observability sinks are attached. *)

val cycles : t -> int
(** The current core's clock. *)

val core_cycles : t -> int -> int
(** [core_cycles t i] is core [i]'s clock. *)

val max_cycles : t -> int
(** Wall-clock time of the machine: the maximum over per-core clocks
    (equals {!cycles} on a 1-CPU machine). *)

val elapsed_seconds : t -> float
val reset_clock : t -> unit

(** {1 Observability} *)

val obs : t -> Vg_obs.Obs.t

val tracing : t -> bool
(** True iff at least one sink is attached — cheap enough to guard
    event construction on hot paths. *)

val emit : t -> Vg_obs.Obs.Event.t -> unit
(** Emit an event stamped with the current core's cycle clock.  No-op
    (one boolean load) when no sink is attached; never charges
    cycles. *)

(** {1 CPU state} *)

val privilege : t -> privilege
val set_privilege : t -> privilege -> unit

val kernel_pt : t -> Pagetable.t
(** The shared kernel address-space page table (high half). *)

val current_pt : t -> Pagetable.t
(** The current core's installed process page table (user + ghost
    partitions). *)

val set_current_pt : t -> Pagetable.t -> unit
(** Context switch: installs a new user page table on the current core
    and flushes its TLB. *)

(** {1 Inter-processor interrupts} *)

val tlb_shootdown : t -> unit
(** Invalidate every {e remote} core's TLB: the current core pays
    {!Cost.ipi_send} per target and each target pays
    {!Cost.ipi_deliver} on its own clock, with an [Ipi] event per
    target.  On a 1-CPU machine this is a complete no-op (zero cycles),
    so uniprocessor runs are unaffected. *)

val ipis_received : t -> int -> int
(** How many IPIs core [i] has taken (shootdown audit). *)

(** {1 Per-core timer} *)

val arm_timer : t -> period:int -> unit
(** Arm every core's local timer to fire each [period] cycles (next
    deadline relative to each core's current clock). *)

val disarm_timer : t -> unit

val timer_pending : t -> bool
(** Has the current core's timer deadline passed?  (Interrupts are
    taken at trap boundaries — the scheduler polls this on the
    return-to-user path.) *)

val ack_timer : t -> unit
(** Service a pending tick on the current core: charges
    {!Cost.timer_irq}, emits [Timer_tick], advances the deadline past
    the current clock.  No-op if the timer is disarmed. *)

(** {1 Virtual memory} *)

val translate : t -> access -> int64 -> int64
(** [translate t access va] is the physical address, charging TLB
    costs. @raise Page_fault on missing mapping or permission. *)

val read_virt : t -> int64 -> len:int -> int64
val write_virt : t -> int64 -> len:int -> int64 -> unit
(** Single-word accessors ([len] in 1/2/4/8); they charge
    {!Cost.mem_access} plus translation costs and obey the current
    privilege level. *)

val iter_pages : int64 -> int -> (pos:int -> va:int64 -> len:int -> unit) -> unit
(** [iter_pages va len f] splits [va, va+len) at page boundaries and
    calls [f] on each piece in order: its offset [pos] in the range, its
    address and its length.  The bulk accessors below and [Kmem]'s
    per-chunk copies walk ranges with it. *)

val read_virt_into : t -> int64 -> bytes -> off:int -> len:int -> unit
(** [read_virt_into t va dst ~off ~len] copies [len] bytes at [va] into
    [dst] at [off].  One modelled copy: a single [Cost.copy_cycles len]
    charge before the first translation, then page by page, each page
    translated and blitted straight into [dst] — one host copy, no
    intermediate buffer.  A fault on a later page leaves the earlier
    pages' bytes in [dst].
    @raise Page_fault as {!translate} does.
    @raise Invalid_argument if [off]/[len] do not fit [dst]. *)

val write_virt_from : t -> int64 -> bytes -> off:int -> len:int -> unit
(** [write_virt_from t va src ~off ~len]: the write direction of
    {!read_virt_into}, from [src] at [off]; pages before a faulting one
    are already written. *)

val read_bytes_virt : t -> int64 -> len:int -> bytes
(** Allocating form of {!read_virt_into}. *)

val write_bytes_virt : t -> int64 -> bytes -> unit
(** {!write_virt_from} of a whole buffer. *)

val memcpy_virt : t -> dst:int64 -> src:int64 -> len:int -> unit
(** Read the whole source into one staging buffer, then write it out:
    two modelled copies with today's translate/fault order (a faulting
    source writes nothing) and memmove semantics on overlap. *)

val flush_tlb : t -> unit
(** Flush the current core's TLB only; see {!tlb_shootdown} for the
    cross-core protocol. *)

(** {1 Speculation and the cache side channel}

    A machine created with [spec_depth > 0] models a speculative
    pipeline: execution engines may transiently run up to [spec_depth]
    macro-ops past a mispredicted branch or select, and the word-sized
    accessors maintain a VA-indexed cache-line presence set whose
    timing difference ({!Cost.cache_miss}, tagged [Spec]) is
    architecturally observable.  At depth 0 every function below is
    inert and the cache is never consulted. *)

val spec_depth : t -> int
(** The transient-window budget this machine was created with. *)

val spec_load : t -> int64 -> len:int -> int64 option
(** Transient load: raw page-table walk (no TLB fill, no fault, no
    cycle charge — the work will be squashed) that nonetheless pulls
    the target's cache line in.  [None] if the address is unmapped, or
    always at depth 0. *)

val spec_window_opened : t -> unit
(** Execution engines call this once per transient window they open
    (statistics only; charges nothing). *)

val spec_flush : t -> unit
(** Flush the cache-line set (clflush over the probe array).  Leaves
    the TLB alone. *)

type spec_stats = {
  windows : int;  (** transient windows opened *)
  transient_loads : int;  (** loads that executed transiently *)
  cache_hits : int;
  cache_misses : int;
}

val spec_stats : t -> spec_stats

(** {1 Components} *)

val mem : t -> Phys_mem.t
val console : t -> Console.t
val disk : t -> Disk.t
val nic : t -> Nic.t
(** The machine-side NIC endpoint. *)

val remote_nic : t -> Nic.t
(** The far end of the wire — the "client machine" in the network
    benchmarks. *)

type harness = { mutable last_conn : int; stashes : (int, bytes Queue.t) Hashtbl.t }
(** The client machine's connection state, kept by
    [Vg_kernel.Netstack.Remote]: the last (odd) id it named and the
    frames received for each open connection.  It dies with the machine. *)

val harness : t -> harness

val iommu : t -> Iommu.t
val tpm : t -> Tpm.t

val hw_random : t -> int -> bytes
(** Hardware entropy (RDRAND-style); feeds the SVA DRBG. *)
