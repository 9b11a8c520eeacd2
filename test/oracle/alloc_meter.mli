(** The one host-allocation meter of the tests and the bench.

    It counts as vgbench counts: minor words plus words allocated
    straight on the major heap (major minus promoted), after emptying
    the minor heap, so a word promoted during the call was allocated
    by it and words promoted from before the call are not subtracted.
    A buffer over 256 words skips the minor heap, so minor words alone
    would miss it. *)

type t = {
  words : float;  (** every word the call allocated *)
  direct_major : float;  (** of which straight on the major heap *)
}

val count : (unit -> 'a) -> 'a * t
(** [count f] runs [f] once and counts what it allocated. *)

val words : (unit -> 'a) -> 'a * int
(** [words f] is [count f]'s word total, as an [int]. *)
