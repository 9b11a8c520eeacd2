(** SHA-256 (FIPS 180-4), implemented from scratch for the Virtual Ghost
    trusted computing base.

    Used for application-image signing, swap-page checksums and as the
    compression function inside {!Hmac}. *)

type ctx
(** Streaming hash context. *)

val init : unit -> ctx
(** Fresh context. *)

val update : ctx -> bytes -> unit
(** Absorb a buffer.
    @raise Invalid_argument if the context was already finalized. *)

val update_sub : ctx -> bytes -> pos:int -> len:int -> unit
(** Absorb a slice of a buffer.
    @raise Invalid_argument if the slice is out of bounds or the context
    was already finalized. *)

val finalize : ctx -> bytes
(** Produce the 32-byte digest.  This spends the context: a later
    [update], [update_sub] or [finalize] on it raises
    [Invalid_argument "Sha256: context already finalized"] instead of
    hashing on top of the padded final state. *)

val digest : bytes -> bytes
(** One-shot hash of a whole buffer. *)

val digest_string : string -> bytes
(** One-shot hash of a string. *)

