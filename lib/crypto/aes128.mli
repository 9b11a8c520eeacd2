(** AES-128 block cipher (FIPS 197), encryption direction only.

    This is the cipher the Virtual Ghost prototype hard-codes as the
    application key algorithm ("a 128-bit AES application key is
    hard-coded into SVA-OS for our experiments", Section 5).  Counter
    mode, the only mode used here, never runs the inverse cipher.

    The implementation is table-driven: four 256-entry round tables
    [Te0]..[Te3] fold SubBytes, ShiftRows and MixColumns into four
    lookups and xors per column, and the key schedule is 44 native-int
    words.  The S-box and the tables are derived at module
    initialisation from the GF(2^8) definition rather than transcribed,
    eliminating table typos.  Lookups are indexed by secret data, so the
    cipher is not constant-time on the host; the simulated machine's
    clock is the cost model, not host cache timing. *)

type key
(** Expanded key schedule. *)

val expand : bytes -> key
(** [expand k] expands a 16-byte key.
    @raise Invalid_argument if [k] is not 16 bytes. *)

val encrypt_into : key -> src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> unit
(** [encrypt_into k ~src ~src_off ~dst ~dst_off] encrypts the 16 bytes
    of [src] at [src_off] into [dst] at [dst_off] without allocating.
    [src] and [dst] may be the same buffer.
    @raise Invalid_argument if either block is out of bounds. *)

val encrypt_block : key -> bytes -> bytes
(** [encrypt_block k plain] encrypts one 16-byte block into a fresh
    buffer. *)

val block_size : int
(** 16. *)

val key_size : int
(** 16. *)
