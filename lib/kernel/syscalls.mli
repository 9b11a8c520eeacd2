(** The system-call layer.

    Every call performs the full trap protocol: context switch to the
    calling process if needed, {!Sva.enter_trap} (Interrupt Context
    save — into SVA memory under Virtual Ghost — plus register
    zeroing), instrumented dispatch work, the handler, result
    write-back into the saved context, and {!Sva.return_from_trap}.
    Buffer arguments are user virtual addresses: the kernel moves data
    with its instrumented accessors, so a pointer into ghost memory
    passed to a Virtual Ghost kernel simply does not reach the
    application's data (which is why the ghosting libc wrappers copy
    through traditional memory).

    There is one way into the kernel: every wrapper here traps into
    {!Dispatch.run} with register arguments, exactly as a submission
    ring entry ({!ring_enter}) or a caller of a loadable-module
    override ({!Module_loader}, keyed by {!Syscall_abi.Sysno.t}) does,
    so an overridden call behaves identically whether it arrives by
    trap or by ring, and every result crosses the boundary through the
    single {!Syscall_abi} codec.  This module registers a builtin
    {!Syscall_abi.Entry} for every number into {!Dispatch} at
    initialisation.

    The wrappers act as the C library.  A path goes to the kernel as a
    (user VA, length) pair, and a struct result (stat, a directory
    listing, pipe descriptors, a ready set, an exit status) comes back
    through a user buffer.  The wrappers stage those bytes in the
    first pages of the process's first anonymous mapping (the
    runtime's bounce buffer, {!Proc.mmap_base}); staging charges
    nothing, since it models bytes a libc already holds.  The kernel
    reads paths and writes struct results with budgeted copies
    ({!Kmem.read_budgeted}): masked and fault-handled like any user
    buffer, but paid for by the body's fixed charge.  Under Virtual
    Ghost a path pointer into ghost memory faults ([EFAULT], one
    [Security{sandbox}] event).

    Syscall-flow integrity: processes carrying a {!Syscall_policy} get
    every call, trap or ring, checked against their transition graph;
    out-of-policy sequences kill the process with one [Security{sfip}]
    event and [ESFIP].  [exit] remains always-allowed, and unprofiled
    processes are charged nothing. *)

type open_flags = { create : bool; truncate : bool; append : bool }

val syscall : Kernel.t -> Proc.t -> Syscall_abi.Sysno.t -> int64 array -> int64
(** One trap with raw register arguments — the trap prologue,
    {!Dispatch.run}, and (for every call but exit) the result
    write-back and return path — returning the ABI-encoded result
    register.  Every wrapper below is this call after staging its
    arguments. *)

val rdonly : open_flags
val creat_trunc : open_flags

(** {1 Files} *)

val open_ : Kernel.t -> Proc.t -> string -> open_flags -> int Errno.result
val close : Kernel.t -> Proc.t -> int -> unit Errno.result
val read : Kernel.t -> Proc.t -> fd:int -> buf:int64 -> len:int -> int Errno.result
val write : Kernel.t -> Proc.t -> fd:int -> buf:int64 -> len:int -> int Errno.result
val lseek : Kernel.t -> Proc.t -> fd:int -> pos:int -> int Errno.result
val unlink : Kernel.t -> Proc.t -> string -> unit Errno.result
val mkdir : Kernel.t -> Proc.t -> string -> unit Errno.result
val stat : Kernel.t -> Proc.t -> string -> Diskfs.stat Errno.result
val rename : Kernel.t -> Proc.t -> src:string -> dst:string -> unit Errno.result
val fstat : Kernel.t -> Proc.t -> fd:int -> Diskfs.stat Errno.result
val dup2 : Kernel.t -> Proc.t -> src:int -> dst:int -> unit Errno.result
(** Make descriptor [dst] refer to the same open object as [src]
    (closing whatever [dst] held, sockets included).  [EBADF] for a
    negative [dst] or one at or above {!Proc.fd_limit}; [dup2 fd fd]
    is a no-op. *)

val readdir : Kernel.t -> Proc.t -> string -> (string * int) list Errno.result
(** Directory listing of a path (getdents-style): (name, inode) pairs.
    The listing comes back as 32-byte dirents in the staging space;
    [ENOMEM] if the directory holds more than fit there. *)

val fsync : Kernel.t -> Proc.t -> unit Errno.result

(** {1 Processes} *)

val getpid : Kernel.t -> Proc.t -> int
(** Also the "null syscall" of the LMBench table. *)

val fork : Kernel.t -> Proc.t -> Proc.t Errno.result
(** The syscall returns the child's pid; the wrapper looks the child
    process object up (the runtime decides when its closure runs). *)

val execve : Kernel.t -> Proc.t -> Appimage.t -> unit Errno.result
(** Passes the image's install handle ({!Kernel.image_handle}); the
    kernel copies the image text into user memory and reinitialises
    the Interrupt Context through the VM (signature check, key
    recovery). *)

val exit_ : Kernel.t -> Proc.t -> int -> unit
(** Enters through the trap prologue and runs no epilogue: the
    process's thread is gone when the body returns.  Outside the
    syscall-flow policy. *)

val wait : ?block:bool -> Kernel.t -> Proc.t -> int Errno.result
(** Reap a zombie child and return its pid; [ECHILD] with none.
    Passes a null status pointer, so nothing is staged (init, which
    has no user mapping, reaps this way).  Default [block:false] keeps
    the historical contract — [EAGAIN] while children run (LMBench
    drives the reap loop itself).  With [block:true] the caller sleeps
    on the kernel's child waitqueue until a child exits (requires the
    {!Sched} block hook; without a scheduler it still returns
    [EAGAIN]). *)

val wait_status : ?block:bool -> Kernel.t -> Proc.t -> (int * int) Errno.result
(** {!wait} that also asks for the exit status: [Ok (pid, status)]. *)

(** {1 Memory} *)

val mmap : Kernel.t -> Proc.t -> len:int -> int64 Errno.result
(** Anonymous mapping; returns its base address. *)

val munmap : Kernel.t -> Proc.t -> addr:int64 -> len:int -> unit Errno.result

val allocgm : Kernel.t -> Proc.t -> va:int64 -> pages:int -> unit Errno.result
(** Ghost-memory allocation: the kernel supplies frames and the VM
    checks, zeroes and maps them. *)

val freegm : Kernel.t -> Proc.t -> va:int64 -> pages:int -> unit Errno.result

(** {1 Signals} *)

val signal : Kernel.t -> Proc.t -> signum:int -> handler:int64 -> unit Errno.result
val kill : Kernel.t -> Proc.t -> pid:int -> signum:int -> unit Errno.result
(** Delivers via [sva.ipush.function] on the trap's way out, after the
    result register is written (also for a kill inside a ring batch);
    under Virtual Ghost an unregistered handler target is refused by
    the VM (the delivery is dropped and logged). *)

val sigreturn : Kernel.t -> Proc.t -> unit Errno.result

(** {1 Pipes, sockets, select} *)

val pipe : Kernel.t -> Proc.t -> (int * int) Errno.result
val listen : Kernel.t -> Proc.t -> port:int -> int Errno.result
val accept : Kernel.t -> Proc.t -> fd:int -> int Errno.result
(** [EAGAIN] when no connection is pending. *)

val connect_to : Kernel.t -> Proc.t -> Netstack.addr -> int Errno.result
(** Outbound connection to a unified address — [Local port] is the far
    harness NIC endpoint, [Peer {node; port}] a fleet sibling over the
    fabric; returns a connected socket descriptor.  [ECONNREFUSED] for
    a [Peer] address when no fabric is attached. *)

val connect : Kernel.t -> Proc.t -> port:int -> int Errno.result
(** [connect k proc ~port] = [connect_to k proc (Local port)]. *)

val send : Kernel.t -> Proc.t -> fd:int -> buf:int64 -> len:int -> int Errno.result
val recv : Kernel.t -> Proc.t -> fd:int -> buf:int64 -> len:int -> int Errno.result
val select : Kernel.t -> Proc.t -> int list -> int list Errno.result
(** Subset of the given descriptors that are ready, in one
    non-consuming level-triggered scan (never blocks). *)

val poll : Kernel.t -> Proc.t -> int list -> int list Errno.result
(** Level-triggered readiness over a descriptor set, backed by kernel
    waitqueues.  An empty set returns [Ok []] at once.  When nothing
    is ready and the {!Sched} block hook is installed, the caller
    sleeps on every descriptor's waitqueue and re-scans on wakeup;
    without a scheduler it degrades to one scan.  Readiness is
    non-consuming: a listener with a pending connection stays ready
    until accepted. *)

val set_blocking : Kernel.t -> Proc.t -> fd:int -> bool -> unit Errno.result
(** Opt a descriptor into (or out of) blocking reads/accepts: when
    blocking, [read]/[recv]/[accept] sleep on the descriptor's
    waitqueue instead of returning [EAGAIN].  Descriptors are born
    non-blocking. *)

(** {1 The submission ring} *)

val ring_enter :
  Kernel.t -> Proc.t -> ring:int64 -> depth:int -> to_submit:int -> int Errno.result
(** One trap, many dispatches: consume up to [to_submit] submission
    entries from the ring at traditional-memory address [ring] (layout
    {!Syscall_ring}, [depth] slots), run each through the numbered
    dispatch, and write ABI-encoded completions.  Returns the number
    of entries consumed.  [EFAULT] if [ring] is not a traditional user
    address; entry {e buffers} pointing into ghost memory are defused
    by the instrumented accessors exactly as in a direct call. *)

(** {1 Module machinery} *)

val genuine_read : Kernel.t -> Proc.t -> fd:int -> buf:int64 -> len:int -> int Errno.result
(** The built-in read handler, bypassing any module override — exposed
    so modules can chain to it (registered as [extern.genuine_read]). *)

val register_builtin_externs : Kernel.t -> unit
(** Install the kernel helper API modules link against:
    [extern.genuine_read], [extern.klog], [extern.kmmap],
    [extern.signal_install], [extern.kill], [extern.genuine_mmap] and
    [extern.open_exfil]. *)
