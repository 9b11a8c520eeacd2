(** A booted machine + kernel pair: the single entry point replacing
    direct [Machine.create] / [Kernel.boot] call chains.  {!boot} is
    cycle-identical to the two-call form for equal configuration —
    the compat contract the golden tests pin. *)

type t

val boot : ?id:int -> Node_config.t -> t
(** Create the machine and boot the kernel described by the config.
    [id] (default 0) is the node's fleet-wide identity; standalone
    callers never need it. *)

val id : t -> int
val config : t -> Node_config.t
val machine : t -> Machine.t
val kernel : t -> Kernel.t
val net : t -> Netstack.t
val mode : t -> Sva.mode

val launch :
  t -> ?image:Appimage.t -> ?sfip:Syscall_policy.t -> ghosting:bool ->
  (Runtime.ctx -> 'a) -> 'a
(** {!Runtime.launch} on this node's kernel. *)

val listen : t -> port:int -> unit Errno.result
val www : t -> path:string -> bytes -> unit Errno.result
(** Create [path] on the node's file system holding [data]. *)
