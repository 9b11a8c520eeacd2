(** Simulated physical memory.

    Memory is organised as 4 KiB frames, allocated on first touch so a
    machine can be configured with gigabytes of physical memory without
    paying for it up front.  The frames sit in a two-level array indexed
    by frame number (a directory slot per 2 MiB, a leaf of 512 frame
    slots allocated with the first frame touched in its range), so
    finding a frame involves no hashing.  Addresses are physical byte
    addresses; accesses must not cross a frame boundary (the MMU hands
    out frame-aligned regions, and the simulator's accessors split
    larger transfers). *)

type t

val frame_bytes : int
(** 4096. *)

val create : frames:int -> t
(** [create ~frames] makes a memory of [frames] * 4 KiB bytes. *)

val frames : t -> int

exception Bad_physical_address of int64

val read : t -> addr:int64 -> len:int -> int64
(** Little-endian load of [len] bytes (1, 2, 4 or 8), zero-extended.
    @raise Bad_physical_address out of range or crossing a frame. *)

val write : t -> addr:int64 -> len:int -> int64 -> unit
(** Little-endian truncating store. *)

(** {1 The MMU's forms}

    The same accesses with the physical address as an [int], which a
    translated address always fits: the MMU passes it without boxing.
    Out of range or crossing a frame, they raise
    {!Bad_physical_address} with the address as an [int64]. *)

val read_at : t -> int -> len:int -> int64
(** [read_at t pa ~len] is [read t ~addr:(Int64.of_int pa) ~len]. *)

val write_at : t -> int -> len:int -> int64 -> unit
(** [write_at t pa ~len v] is [write t ~addr:(Int64.of_int pa) ~len v]. *)

val blit_at : t -> int -> bytes -> off:int -> len:int -> to_mem:bool -> unit
(** [blit_at t pa buf ~off ~len ~to_mem] is {!blit_from} ([to_mem]) or
    {!blit_to} at [pa], except that the caller has already checked
    [off] and [len] against [buf]. *)

val blit_to : t -> addr:int64 -> bytes -> off:int -> len:int -> unit
(** [blit_to t ~addr dst ~off ~len] copies [len] bytes of memory at
    [addr] into [dst] at [off], frame by frame and straight into [dst]
    (no intermediate buffer); may cross frame boundaries.  Frames are
    checked as they are reached, so bytes before a bad frame have
    already landed.
    @raise Bad_physical_address on a frame out of range.
    @raise Invalid_argument if [off]/[len] do not fit [dst]. *)

val blit_from : t -> addr:int64 -> bytes -> off:int -> len:int -> unit
(** [blit_from t ~addr src ~off ~len] copies [len] bytes of [src] from
    [off] into memory at [addr]; the write direction of {!blit_to}. *)

val read_bytes : t -> addr:int64 -> len:int -> bytes
(** Allocating form of {!blit_to}: a fresh buffer of [len] bytes. *)

val write_bytes : t -> addr:int64 -> bytes -> unit
(** {!blit_from} of a whole buffer. *)

val copy_frame : t -> src:int -> dst:int -> unit
(** Copy frame [src] onto frame [dst] in one blit (the copy-on-write
    page copy).  @raise Bad_physical_address on a frame out of range. *)

val zero_frame : t -> int -> unit
(** Clear one frame — used when ghost frames change hands so data never
    leaks between owners.  The frame's storage is released; it reads as
    zeros and is allocated again on its next touch. *)

val frame_is_allocated : t -> int -> bool
(** Whether the frame has been touched (backing storage exists) and
    not zeroed since.  @raise Bad_physical_address on a frame out of
    range, like {!zero_frame} and {!copy_frame}. *)
