(** The numbered system-call ABI.

    One generated table maps syscall numbers to names, register
    arities and result codecs.  Typed {!Syscalls} wrappers,
    loadable-module overrides ({!Module_loader}) and the batched
    submission ring ({!Syscall_ring}) all address kernel entry points
    through this numbering, and every result crossing the boundary
    goes through the single encode/decode convention defined here —
    there is no other path for a handler's value to reach user
    registers.

    {!Sysno.t} is a private int: the only ways to obtain one are the
    [sys_*] values, {!Sysno.of_int} (bounds-checked — this is where
    the ring's raw wire numbers are laundered) and {!Sysno.of_name}.
    Holding a [Sysno.t] therefore proves validity, which is why
    {!describe}, {!Sysno.to_name}, {!arity} and {!codec} are total. *)

(** {1 Validated syscall numbers} *)

module Sysno : sig
  type t = private int

  val count : int
  (** Size of the table; numbers are [0 .. count-1]. *)

  val of_int : int -> t option
  (** The only entry point for untrusted raw numbers (ring SQEs). *)

  val to_int : t -> int
  val of_name : string -> t option

  val to_name : t -> string
  (** Total: every [t] has a name.  Inverse of {!of_name}. *)

  val all : t list
  (** Every syscall, in numbering order. *)

  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int
end

(** {1 Descriptors} *)

type result_codec =
  | Int_result
      (** non-negative payload or [-Errno.to_int e]; lossless because
          [Errno.to_int] is injective *)
  | Addr_result
      (** full 64-bit addresses; only the Linux [MAP_FAILED] window
          [-4096, -1] decodes as an errno, so ghost-region pointers
          high in the canonical hole pass through verbatim *)

type disposition =
  | Anywhere  (** by trap or from a ring entry *)
  | Trap_only
      (** by trap only: a ring entry gets [ENOSYS] (fork, execve,
          ring_enter) *)
  | No_return
      (** by trap only, outside the syscall-flow policy, and with no
          trap epilogue: the caller's thread is gone (exit) *)

type desc = {
  name : string;
  arity : int;
      (** register arguments.  A path is two of them (user VA, length);
          a struct result is a user buffer the kernel copies out to *)
  codec : result_codec;
  disposition : disposition;
}

val describe : Sysno.t -> desc
val arity : Sysno.t -> int
val codec : Sysno.t -> result_codec
val disposition : Sysno.t -> disposition

val ring_callable : Sysno.t -> bool
(** [disposition n = Anywhere]. *)

(** {1 Syscall numbers} *)

val sys_read : Sysno.t
val sys_write : Sysno.t
val sys_open : Sysno.t
val sys_close : Sysno.t
val sys_lseek : Sysno.t
val sys_unlink : Sysno.t
val sys_mkdir : Sysno.t
val sys_stat : Sysno.t
val sys_rename : Sysno.t
val sys_fstat : Sysno.t
val sys_dup2 : Sysno.t
val sys_readdir : Sysno.t
val sys_fsync : Sysno.t
val sys_getpid : Sysno.t
val sys_fork : Sysno.t
val sys_execve : Sysno.t
val sys_exit : Sysno.t
val sys_wait : Sysno.t
val sys_mmap : Sysno.t
val sys_munmap : Sysno.t
val sys_allocgm : Sysno.t
val sys_freegm : Sysno.t
val sys_signal : Sysno.t
val sys_kill : Sysno.t
val sys_sigreturn : Sysno.t
val sys_pipe : Sysno.t
val sys_listen : Sysno.t
val sys_accept : Sysno.t
val sys_connect : Sysno.t
val sys_send : Sysno.t
val sys_recv : Sysno.t
val sys_select : Sysno.t
val sys_poll : Sysno.t
val sys_set_blocking : Sysno.t
val sys_ring_enter : Sysno.t

(** {1 Entries}

    The first-class shape of one kernel entry point: its number, wire
    metadata, and a handler.  {!Dispatch} keeps a registry of
    [handler Entry.t] and is the one place where decode → policy-check
    → handler → encode happens; the ['h] parameter keeps this module
    free of kernel types. *)

module Entry : sig
  type 'h t = private {
    sysno : Sysno.t;
    name : string;
    arity : int;
    codec : result_codec;
    handler : 'h;
  }

  val make : Sysno.t -> 'h -> 'h t
  (** Name, arity and codec are filled in from the table — an entry
      cannot disagree with the ABI descriptor for its number. *)
end

(** {1 Result codecs}

    Encode/decode are OCaml-level: the simulated cost of moving a
    result register is already part of the trap protocol, so these
    charge no cycles. *)

val encode_int : int Errno.result -> int64
val decode_int : int64 -> int Errno.result
val encode_addr : int64 Errno.result -> int64
val decode_addr : int64 -> int64 Errno.result

val encode : result_codec -> int64 Errno.result -> int64
val decode : result_codec -> int64 -> int64 Errno.result
