(** HMAC-SHA256 (RFC 2104).

    Used by the Virtual Ghost VM to checksum swapped-out ghost pages and
    to sign cached native-code translations. *)

val mac : key:bytes -> bytes -> bytes
(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag of [msg] under [key].
    Keys longer than the 64-byte block size are pre-hashed per the RFC. *)

val mac_parts : key:bytes -> (bytes * int * int) list -> bytes
(** [mac_parts ~key [(b1, pos1, len1); ...]] is the tag of the
    concatenation of the slices [bi.[posi .. posi + leni - 1]], computed
    without building the concatenation.  [mac ~key msg] is
    [mac_parts ~key [(msg, 0, Bytes.length msg)]].
    @raise Invalid_argument if a slice is out of bounds. *)

val verify : key:bytes -> tag:bytes -> bytes -> bool
(** [verify ~key ~tag msg] recomputes the tag and compares it in
    constant time. *)
