(** Byte-string helpers shared by the cryptographic primitives.

    All functions are total unless stated otherwise; offsets are byte
    offsets and out-of-range accesses raise [Invalid_argument] via the
    underlying [Bytes] primitives. *)

val of_hex : string -> bytes
(** [of_hex s] decodes a hexadecimal string (even length, upper or lower
    case digits). @raise Invalid_argument on a malformed string. *)

val to_hex : bytes -> string
(** [to_hex b] encodes [b] as lowercase hexadecimal. *)

val xor_into : src:bytes -> dst:bytes -> unit
(** [xor_into ~src ~dst] xors [src] into [dst] in place.
    @raise Invalid_argument if lengths differ. *)

val xor : bytes -> bytes -> bytes
(** [xor a b] is a fresh buffer holding the bytewise xor of [a] and [b].
    @raise Invalid_argument if lengths differ. *)

val get_u32_be : bytes -> int -> int32
(** Big-endian 32-bit load. *)

val set_u32_be : bytes -> int -> int32 -> unit
(** Big-endian 32-bit store. *)

val get_u32_le : bytes -> int -> int32
(** Little-endian 32-bit load. *)

val set_u32_le : bytes -> int -> int32 -> unit
(** Little-endian 32-bit store. *)

val get_u64_be : bytes -> int -> int64
(** Big-endian 64-bit load. *)

val set_u64_be : bytes -> int -> int64 -> unit
(** Big-endian 64-bit store. *)

val get_u64_le : bytes -> int -> int64
(** Little-endian 64-bit load. *)

