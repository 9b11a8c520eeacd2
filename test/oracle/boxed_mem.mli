(** {!Exec_env.env} memory callbacks from functions over boxed words,
    for test environments that log or check each access. *)

val load : (int64 -> Ir.width -> int64) -> Bytes.t -> Ir.width -> unit
(** [load f] answers a load at address [a] with [f a width]. *)

val store : (int64 -> Ir.width -> int64 -> unit) -> Bytes.t -> Ir.width -> unit
(** [store f] passes a store's address, width and value to [f]. *)
