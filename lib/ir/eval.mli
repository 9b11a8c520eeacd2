(** Pure operational semantics of the IR, shared by the execution
    engine, the optimizer's constant folder and the test oracles (the
    reference interpreter and the slot executor) so they cannot
    drift. *)

exception Trap of string
(** Raised on division by zero.  The reference interpreter's [Trap] is
    an alias of this exception, so either name catches it. *)

val truncate : Ir.width -> int64 -> int64
(** Keep the low bits of a value per the access width. *)

val eval_binop : Ir.binop -> int64 -> int64 -> int64
(** 64-bit wrapping semantics of the IR binary operations.
    @raise Trap on division by zero. *)

val eval_cmp : Ir.cmp -> int64 -> int64 -> int64
(** 0 or 1. *)
