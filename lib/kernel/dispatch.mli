(** The unified numbered-syscall dispatch.

    Exactly one place performs decode → policy check → handler →
    encode: {!run}.  Every trap ({!Syscalls}' typed wrappers all trap
    through it), every batched submission-ring entry and every
    loadable-module override funnels through it, so an overridden call
    behaves identically whether it arrives by trap or by ring, and
    every result crosses the boundary through the single
    {!Syscall_abi} codec.

    Handlers are {!Syscall_abi.Entry} records registered by
    {!Syscalls} at module initialisation, one for every number: paths
    arrive as (user VA, length) registers and struct results leave
    through a user buffer, so all of them fit a ring entry.  The
    table's {!Syscall_abi.disposition} refuses fork, execve, exit and
    ring_enter from a ring with [ENOSYS].

    Syscall-flow integrity (SFIP) lives at this choke point: when the
    process carries a {!Syscall_policy}, the per-call gate in {!run}
    or {!precheck} (whole ring batches) vets the transition before the
    handler runs (exit stays outside the policy); an out-of-policy sequence kills the process with one
    [Security{sfip}] event and [ESFIP].  Unprofiled processes
    ([policy = None]) pay nothing — not even a cycle charge. *)

type origin = Trap | Ring

type handler = Kernel.t -> Proc.t -> int64 array -> int64 Errno.result
(** Builtin body: register arguments in, codec-shaped result out.
    Encoding to the result register happens in {!run}, not here. *)

type entry = handler Syscall_abi.Entry.t

val register : entry -> unit
(** Install (or replace) the builtin entry for its number. *)

val entry : Syscall_abi.Sysno.t -> entry option
val entries : unit -> entry list
(** All registered entries, in numbering order. *)

val on_kill : (Kernel.t -> Proc.t -> unit) ref
(** Teardown hook run after an SFIP kill (set by {!Syscalls}: close
    descriptors, release ghost memory, zombie the process — but keep
    the SVA thread alive so the in-flight trap epilogue completes). *)

val precheck : Kernel.t -> Proc.t -> int array -> unit Errno.result
(** Whole-batch SFIP gate for [ring_enter] over the submitted raw
    numbers: scan the sequence — intra-batch transitions included —
    from the current cursor before any entry executes, skipping the
    numbers {!run} refuses from a ring without judging them (invalid
    ones and those not {!Syscall_abi.ring_callable}).  Commits nothing; pays the
    per-entry check charge for the whole batch up front, so in-policy
    entries then run through {!run} with [prechecked:true] for free.
    [Error ESFIP] — first out-of-policy entry named in the event —
    means the batch must execute nothing. *)

val run :
  Kernel.t ->
  Proc.t ->
  origin:origin ->
  ?prechecked:bool ->
  sysno:int ->
  int64 array ->
  int64
(** Execute syscall [sysno] with register arguments: validate the raw
    number ([ENOSYS] if out of table), refuse from a ring what the
    table keeps to traps ([ENOSYS]: fork, execve, exit, a nested
    ring_enter), run the policy gate (skipped in favour of a cursor
    commit when [prechecked]; exit is never judged), honour any module
    override, otherwise the registered builtin, and return the
    ABI-encoded result register.  An override that raises a CFI
    violation or an execution trap terminates its kernel thread: the
    call returns [EFAULT], the console logs [vg: kernel thread
    terminated: <msg>], and exactly one event is emitted
    ([Cfi_violation], or [Security{module-trap}]).  Callers are inside
    a trap; this performs no trap protocol of its own. *)
