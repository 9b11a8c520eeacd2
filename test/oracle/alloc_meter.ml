type t = { words : float; direct_major : float }

let count f =
  (* An empty minor heap first, so every word promoted during [f] was
     allocated by [f]. *)
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  let r = f () in
  let minor1, promoted1, major1 = Gc.counters () in
  let direct_major = major1 -. major0 -. (promoted1 -. promoted0) in
  (r, { words = minor1 -. minor0 +. direct_major; direct_major })

let words f =
  let r, c = count f in
  (r, int_of_float c.words)
