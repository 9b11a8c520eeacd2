(** Kernel process objects.

    A process owns an address space (its page table), one thread (the
    SVA thread id, whose Interrupt Context the VM guards), a descriptor
    table, its traditional user pages, and the ghost regions it has
    allocated.  [code_map] is the simulator's stand-in for the text
    segment: the userland runtime registers an executable closure per
    code address, and "executing at pc X" means running the closure
    registered at X — which is how injected-code attacks are expressed
    (see the attack suite). *)

type fd_kind =
  | File of { ino : int; mutable offset : int }
  | Pipe_read of Pipe_dev.t
  | Pipe_write of Pipe_dev.t
  | Sock_listen of int  (** bound port *)
  | Sock_conn of int  (** connection id *)
  | Console_out

type state = Running | Zombie of int  (** exit status *)

type t = {
  pid : int;
  mutable parent : int;
  pt : Pagetable.t;
  tid : int;
  fds : (int, fd_kind) Hashtbl.t;
  mutable next_fd : int;
  user_frames : (int64, int) Hashtbl.t;  (** user vpage -> frame *)
  cow : (int64, unit) Hashtbl.t;  (** vpages shared copy-on-write *)
  mutable ghost_regions : (int64 * int) list;  (** base va, page count *)
  mutable mmap_cursor : int64;
  mutable state : state;
  signal_handlers : (int, int64) Hashtbl.t;  (** signum -> handler pc *)
  code_map : (int64, int64 -> unit) Hashtbl.t;
  mutable image : Appimage.t option;
  blocking : (int, unit) Hashtbl.t;  (** fds opted into blocking I/O *)
  mutable policy : Syscall_policy.t option;
      (** syscall-flow-integrity state; [None] = unprofiled (no checks,
          no cycle charges).  Installed by [execve] from the signed
          image's profile, or by the userland runtime's [?sfip]. *)
  mutable pending_signals : (t * int) list;
      (** (target, signal) pairs a [kill] in the current trap queued,
          newest first; the trap epilogue delivers them after writing
          the result register *)
}

val mmap_base : int64
(** Where a process's first anonymous mapping starts ([mmap_cursor]'s
    initial value). *)

val fd_limit : int
(** Descriptor numbers are below this; [dup2] refuses a target at or
    above it with [EBADF]. *)

val make : pid:int -> parent:int -> pt:Pagetable.t -> tid:int -> t

val add_fd : t -> fd_kind -> int
(** Install a descriptor at the lowest free number. *)

val find_fd : t -> int -> fd_kind option
val remove_fd : t -> int -> unit

val set_blocking : t -> int -> bool -> unit
(** Opt a descriptor into (or out of) blocking I/O.  Descriptors are
    born non-blocking — the historical contract of this kernel's
    cooperative scheduler — so event-loop code works unchanged and
    blocking is a per-fd opt-in. *)

val is_blocking : t -> int -> bool

val is_zombie : t -> bool
