(** A booted machine + kernel pair.  {!boot} and {!reboot} are the
    only callers of [Machine.create] (through
    {!Node_config.create_machine}) and [Kernel.boot]. *)

type t

val boot : Node_config.t -> t
(** Create the machine and boot the kernel described by the config. *)

val reboot : t -> t
(** Boot a fresh kernel from the node's config on the same machine:
    the disk (and so the file system) and the TPM persist; processes
    and sockets do not.  Use the returned node from then on. *)

val config : t -> Node_config.t
val machine : t -> Machine.t
val kernel : t -> Kernel.t
val net : t -> Netstack.t

val launch :
  t -> ?image:Appimage.t -> ?sfip:Syscall_policy.t -> ghosting:bool ->
  (Runtime.ctx -> 'a) -> 'a
(** {!Runtime.launch} on this node's kernel. *)

val listen : t -> port:int -> unit Errno.result
val www : t -> path:string -> bytes -> unit Errno.result
(** Create [path] on the node's file system holding [data]. *)
