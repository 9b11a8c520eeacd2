type perm = { writable : bool; user : bool; executable : bool }
type pte = { frame : int; perm : perm }

module Tbl = Vg_util.Int_tbl

(* [entries] is iterated (fork copies it, teardown walks it), so it
   keeps the polymorphic table's order; [frame_refs] is only probed. *)
type t = {
  entries : pte Tbl.Int64.t;
  (* frame -> number of vpages mapping it: a count answers "is this
     frame mapped here?" without scanning [entries]. *)
  frame_refs : int Tbl.Ident.t;
}

let create () = { entries = Tbl.Int64.create 256; frame_refs = Tbl.Ident.create 256 }

let incr_ref t frame =
  Tbl.Ident.replace t.frame_refs frame
    (1 + Option.value ~default:0 (Tbl.Ident.find_opt t.frame_refs frame))

let decr_ref t frame =
  match Tbl.Ident.find_opt t.frame_refs frame with
  | None -> ()
  | Some 1 -> Tbl.Ident.remove t.frame_refs frame
  | Some n -> Tbl.Ident.replace t.frame_refs frame (n - 1)

let map t ~vpage pte =
  (match Tbl.Int64.find_opt t.entries vpage with
  | Some old -> decr_ref t old.frame
  | None -> ());
  Tbl.Int64.replace t.entries vpage pte;
  incr_ref t pte.frame

let unmap t ~vpage =
  match Tbl.Int64.find_opt t.entries vpage with
  | None -> ()
  | Some old ->
      decr_ref t old.frame;
      Tbl.Int64.remove t.entries vpage

let lookup t ~vpage = Tbl.Int64.find_opt t.entries vpage
let iter t f = Tbl.Int64.iter f t.entries
let maps_frame t frame = Tbl.Ident.mem t.frame_refs frame

let count t = Tbl.Int64.length t.entries

let copy t =
  { entries = Tbl.Int64.copy t.entries; frame_refs = Tbl.Ident.copy t.frame_refs }
