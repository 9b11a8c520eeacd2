(** A small UFS-flavoured file system on the simulated disk.

    Fixed-size inode table, block and inode bitmaps, 4 KiB blocks, 12
    direct block pointers plus one single-indirect block per inode
    (maximum file size ≈ 4 MiB — comfortably above the 1 MiB files the
    paper's network benchmarks transfer).  Directories are files of
    32-byte entries.  All metadata passes through the {!Buffer_cache},
    so repeated operations are CPU-bound and pay kernel-instrumentation
    costs, which is what Table 3/4 and Postmark measure.

    Paths are absolute, ['/']-separated, with no [.]/[..] handling.
    A path that is relative or holds a NUL byte is [EINVAL] in every
    path operation. *)

type t

type itype = Reg | Dir

type stat = { ino : int; itype : itype; size : int; nlink : int }

val mkfs : ?charge_work:(int -> unit) -> Buffer_cache.t -> t
(** Format and mount: writes a fresh superblock, bitmaps and root
    directory.  [charge_work n] accounts [n] instrumented kernel memory
    operations of metadata work (wired to {!Kmem.work}). *)

val mount : ?charge_work:(int -> unit) -> Buffer_cache.t -> (t, string) result
(** Mount an existing file system; [Error] if the superblock magic is
    wrong. *)

val sync : t -> unit

val root_ino : int

(** {1 Namespace} *)

val lookup : t -> string -> int Errno.result
(** Resolve an absolute path to an inode number. *)

val create : t -> string -> int Errno.result
(** Create an empty regular file; fails with [EEXIST] if present. *)

val mkdir : t -> string -> int Errno.result
val unlink : t -> string -> unit Errno.result
(** Remove a regular file and free its storage. *)

val rmdir : t -> string -> unit Errno.result

val rename : t -> src:string -> dst:string -> unit Errno.result
(** Move a directory entry; replaces an existing regular file at
    [dst].  Renaming an entry onto itself does nothing and succeeds;
    moving a directory into its own subtree is [EINVAL]. *)

val readdir : t -> ino:int -> (string * int) list Errno.result
val stat : t -> ino:int -> stat Errno.result

(** {1 File contents} *)

val read : t -> ino:int -> off:int -> len:int -> bytes Errno.result
(** Short reads at end-of-file return fewer bytes. *)

val write : t -> ino:int -> off:int -> bytes -> int Errno.result
(** Returns the byte count written; extends the file as needed.
    [ENOSPC] when the disk fills. *)

val truncate : t -> ino:int -> len:int -> unit Errno.result
(** Only shrinking (including to zero) is supported; freed blocks go
    back to the bitmap. *)

(** {1 Statistics} *)

val free_blocks : t -> int
