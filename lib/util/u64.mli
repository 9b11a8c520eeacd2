(** Unsigned interpretation of [int64], used for 64-bit virtual and
    physical addresses throughout the simulator.  Addresses in the
    kernel half of the canonical x86-64 address space have the sign bit
    set, so every comparison here must be unsigned. *)

val compare : int64 -> int64 -> int
(** Unsigned comparison. *)

val lt : int64 -> int64 -> bool
val le : int64 -> int64 -> bool
val ge : int64 -> int64 -> bool
val gt : int64 -> int64 -> bool

val in_range : int64 -> lo:int64 -> hi:int64 -> bool
(** [in_range a ~lo ~hi] is [lo <= a < hi], unsigned. *)

val min : int64 -> int64 -> int64
val max : int64 -> int64 -> int64

val div : int64 -> int64 -> int64
(** Unsigned division. *)

val rem : int64 -> int64 -> int64
(** Unsigned remainder. *)

val to_hex : int64 -> string
(** [to_hex a] is ["0x%016x"]-style rendering. *)

val of_int : int -> int64

val add : int64 -> int64 -> int64
val sub : int64 -> int64 -> int64
val logand : int64 -> int64 -> int64
val logor : int64 -> int64 -> int64

