(* The runtime's [Hashtbl.hash] on an [int] or [int64] key, written out
   in OCaml: one MurmurHash3 mix of the key's 32-bit fold, then the
   finaliser, as caml_hash does for a single immediate or custom value.
   Keeping the exact function keeps every table's bucket layout, and so
   its iteration order, what the polymorphic table gave. *)

let[@inline] rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land 0xffff_ffff

let[@inline] mix h d =
  let d = d * 0xcc9e2d51 land 0xffff_ffff in
  let d = rotl32 d 15 * 0x1b873593 land 0xffff_ffff in
  let h = rotl32 (h lxor d) 13 in
  ((h * 5) + 0xe6546b64) land 0xffff_ffff

let[@inline] final_mix h =
  let h = h lxor (h lsr 16) in
  let h = h * 0x85ebca6b land 0xffff_ffff in
  let h = h lxor (h lsr 13) in
  let h = h * 0xc2b2ae35 land 0xffff_ffff in
  h lxor (h lsr 16)

(* caml_hash mixes the tagged word [2d + 1], folded to 32 bits as
   [(w asr 32) lxor (w asr 63) lxor w]; in terms of [d] that is the
   expression below. *)
let[@inline] hash_int d =
  let w = (d lsl 1) lor 1 in
  final_mix (mix 0 ((d asr 31) lxor (d asr 62) lxor w land 0xffff_ffff)) land 0x3fff_ffff

let[@inline] hash_int64 d =
  let fold = Int64.to_int (Int64.logxor d (Int64.shift_right_logical d 32)) in
  final_mix (mix 0 (fold land 0xffff_ffff)) land 0x3fff_ffff

module Int = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash = hash_int
end)

module Int64 = Hashtbl.Make (struct
  type t = int64

  let equal = Int64.equal
  let hash = hash_int64
end)

(* No mixing at all: the key is its own hash.  Sequential keys (page
   numbers, frame numbers, cache lines) land in distinct buckets, and a
   lookup costs one mask.  The bucket layout differs from the tables
   above, so only a table nothing iterates may use it. *)
module Ident = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (k : int) = k
end)
