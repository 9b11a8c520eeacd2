(** Hash tables on [int] and [int64] keys for the simulator's
    per-access paths (TLB, page tables, physical frames).

    The polymorphic [Hashtbl] hashes every key through the runtime's
    generic [caml_hash] and compares it with polymorphic [compare], a C
    call each.  These tables inline both.  Their hash is the one the
    polymorphic table uses on the same key, so a table holds its
    bindings in the same buckets and iterates them in the same order:
    swapping one in changes no simulated result. *)

val hash_int : int -> int
(** [hash_int k = Hashtbl.hash k]. *)

val hash_int64 : int64 -> int
(** [hash_int64 k = Hashtbl.hash k]. *)

module Int : Hashtbl.S with type key = int
module Int64 : Hashtbl.S with type key = int64
