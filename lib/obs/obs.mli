(** Structured observability for the simulator.

    Every simulated-cycle charge carries a {!Tag.t} saying which
    mechanism the cycles pay for, and the layers emit {!Event.t} values
    at interesting state transitions (traps, syscalls, MMU verdicts,
    ghost memory operations, security denials).  Pluggable {!sink}s
    consume both streams: {!Obs_stats} aggregates cycles per tag,
    {!Obs_trace} exports a Chrome-trace JSON timeline, and
    {!Obs_recorder} keeps an ordered event log for tests.

    The zero-overhead-off guarantee: with no sink attached, a probe is
    one boolean load ({!is_armed}); and nothing in this module — sinks
    attached or not — ever advances the simulated cycle clock, so
    simulated cycle counts are byte-identical either way. *)

module Tag : sig
  type t =
    | Exec
    | Mem
    | Tlb
    | Copy
    | Zero
    | Trap
    | Trap_save
    | Trap_return
    | Context_switch
    | Page_fault
    | Mmu_check
    | Mask
    | Cfi
    | Crypto
    | Disk
    | Net
    | Io
    | Kernel_work
    | Other
    | Sched
    | Ipi
    | Timer
    | Lock
    | Verify
    | Ring
    | Sfip
    | Swap
    | Spec

  val all : t list
  val count : int

  val index : t -> int
  (** A dense index in [0, count); lets sinks use plain arrays. *)

  val to_string : t -> string
end

module Event : sig
  type mmu_op = Map | Unmap | Protect
  type verdict = Allowed | Denied of string

  type t =
    | Trap_enter of { tid : int; pid : int }
    | Trap_exit of { tid : int; pid : int }
    | Syscall of { name : string; pid : int }
    | Mmu of { op : mmu_op; va : int64; verdict : verdict }
    | Ghost_alloc of { pid : int; pages : int }
    | Ghost_free of { pid : int; pages : int }
    | Swap_out of { pid : int; va : int64 }
    | Swap_in of { pid : int; va : int64; ok : bool }
    | Cfi_violation of { detail : string }
    | Security of { subsystem : string; detail : string }
    | Device_io of { port : int64; write : bool }
    | Module_load of { name : string; overrides : int }
    | Sched_switch of { cpu : int; prev_tid : int; next_tid : int }
    | Ipi of { from_cpu : int; to_cpu : int }
    | Timer_tick of { cpu : int }
    | Lock_contend of { name : string; cpu : int; last_cpu : int }

  val mmu_op_to_string : mmu_op -> string

  val kind : t -> string
  (** Stable kebab-case discriminator ("syscall", "security", ...). *)

  val is_security : t -> bool
  (** True for events that record a defence engaging: MMU denials,
      rejected swap-ins, CFI violations, and explicit [Security]
      events. *)

  val describe : t -> string
end

type sink = {
  name : string;
  on_charge : cycles:int -> Tag.t -> int -> unit;
      (** [on_charge ~cycles tag n]: [n] cycles were just charged under
          [tag]; [cycles] is the machine clock {e after} the charge. *)
  on_event : cycles:int -> Event.t -> unit;
}

type t
(** A hub: the sinks observing one machine.  There is no shared hub;
    each machine reports to the one it was created with. *)

val create : unit -> t

val is_armed : t -> bool
(** True iff at least one sink is attached.  Hot paths check this
    before building an event. *)

val attach : t -> sink -> unit
val detach : t -> sink -> unit

val with_sink : t -> sink -> (unit -> 'a) -> 'a
(** Attach for the duration of the callback (detached on exception). *)

val charge : t -> cycles:int -> Tag.t -> int -> unit
val event : t -> cycles:int -> Event.t -> unit
