(** Wire layouts of the struct results system calls copy out to a user
    buffer: the kernel side encodes, the typed {!Syscalls} wrappers
    decode. *)

val stat_bytes : int
(** 32: inode, type (0 file, 1 directory), size, link count; each a
    little-endian int64. *)

val encode_stat : Diskfs.stat -> bytes
val decode_stat : bytes -> Diskfs.stat

val dirent_bytes : int
(** 32: the inode as a little-endian int32, then the NUL-padded name. *)

val encode_dirents : (string * int) list -> cap:int -> bytes
(** The first [cap] of the (name, inode) entries. *)

val decode_dirents : bytes -> int -> (string * int) list

val fd_bytes : int
(** 4: a descriptor (or wait's exit status) as a little-endian
    int32. *)

val encode_fds : int list -> bytes

val decode_fd : bytes -> int -> int
(** The [i]th descriptor. *)

val decode_fds : bytes -> int -> int list
