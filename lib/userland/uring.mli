(** Userland submission-ring library over {!Syscalls.ring_enter}.

    Queue syscalls by {!Syscall_abi} number with {!submit}, hand a
    batch to the kernel with {!enter} (one trap for the whole batch),
    and collect ABI-encoded completions with {!reap}.  The ring lives
    in traditional user memory ({!Runtime.ualloc}); a ghosting program
    must also point submission buffers at traditional memory, exactly
    as it would for a direct call. *)

type t

val create : Runtime.ctx -> depth:int -> t
(** Allocate and zero a ring of [depth] slots.
    @raise Invalid_argument for depth outside 1..4096. *)

val depth : t -> int
val base : t -> int64

val submit :
  t -> sysno:Syscall_abi.Sysno.t -> args:int64 array -> user_data:int64 -> bool
(** Queue one submission (up to four register arguments); [false] when
    the submission ring is full (entries submitted but not yet
    consumed by {!enter} fill slots).  Taking a validated
    {!Syscall_abi.Sysno.t} means well-typed userland cannot queue a
    number the kernel would refuse — attack code that wants to probe
    raw numbers writes SQE bytes directly instead. *)

val enter : t -> to_submit:int -> int Errno.result
(** One [ring_enter] trap: the kernel consumes up to [to_submit]
    queued entries and writes their completions. *)

val reap : t -> Syscall_ring.cqe list
(** Drain new completions, oldest first ([result] fields are
    ABI-encoded — decode with {!Syscall_abi.decode}). *)

(** {1 Stats} *)

val enters : t -> int
val submitted : t -> int
val completed : t -> int
