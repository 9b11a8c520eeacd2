(** Hash tables on [int] and [int64] keys for the simulator's
    per-access paths.

    The polymorphic [Hashtbl] hashes every key through the runtime's
    generic [caml_hash] and compares it with polymorphic [compare], a C
    call each.  These tables inline both.

    {!Int} and {!Int64} hash as the polymorphic table does on the same
    key, so a table holds its bindings in the same buckets and iterates
    them in the same order: swapping one in changes no simulated
    result.  That order is what they are for, so use them only for a
    table something iterates (a page table's entries, the thread
    table).  A table nothing iterates (the TLB, the cache-line set, a
    page table's frame counts) uses {!Ident}, or an array when its keys
    are dense and bounded (physical frames). *)

val hash_int : int -> int
(** [hash_int k = Hashtbl.hash k]. *)

val hash_int64 : int64 -> int
(** [hash_int64 k = Hashtbl.hash k]. *)

module Int : Hashtbl.S with type key = int
module Int64 : Hashtbl.S with type key = int64

module Ident : Hashtbl.S with type key = int
(** The key is its own hash: a lookup is one mask and one compare.  Its
    buckets, and so its iteration order, differ from the polymorphic
    table's. *)
