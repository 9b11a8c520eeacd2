let frame_bytes = 4096

(* Frames are allocated on first touch.  The table is keyed by frame
   number and grows with the frames in use; it is never sized by
   [nframes], which would cost a node 8 bytes per frame of physical
   memory whether it uses them or not. *)
module Frames = Vg_util.Int_tbl.Int

type t = { nframes : int; frames : bytes Frames.t }

exception Bad_physical_address of int64

let create ~frames =
  if frames <= 0 then invalid_arg "Phys_mem.create: need at least one frame";
  { nframes = frames; frames = Frames.create 1024 }

let frames t = t.nframes

let frame_of t i =
  match Frames.find_opt t.frames i with
  | Some b -> b
  | None ->
      let b = Bytes.make frame_bytes '\000' in
      Frames.replace t.frames i b;
      b

let locate t addr len =
  let frame = Int64.to_int (Int64.shift_right_logical addr 12) in
  let off = Int64.to_int (Int64.logand addr 0xfffL) in
  if
    Int64.compare addr 0L < 0
    || frame >= t.nframes
    || off + len > frame_bytes
  then raise (Bad_physical_address addr);
  (frame, off)

let read t ~addr ~len =
  let frame, off = locate t addr len in
  let b = frame_of t frame in
  match len with
  | 1 -> Int64.of_int (Char.code (Bytes.get b off))
  | 2 -> Int64.of_int (Bytes.get_uint16_le b off)
  | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le b off)) 0xffffffffL
  | 8 -> Bytes.get_int64_le b off
  | _ -> invalid_arg "Phys_mem.read: len must be 1, 2, 4 or 8"

let write t ~addr ~len v =
  let frame, off = locate t addr len in
  let b = frame_of t frame in
  match len with
  | 1 -> Bytes.set b off (Char.chr (Int64.to_int (Int64.logand v 0xffL)))
  | 2 -> Bytes.set_uint16_le b off (Int64.to_int (Int64.logand v 0xffffL))
  | 4 -> Bytes.set_int32_le b off (Int64.to_int32 v)
  | 8 -> Bytes.set_int64_le b off v
  | _ -> invalid_arg "Phys_mem.write: len must be 1, 2, 4 or 8"

(* Copy [len] bytes between memory at [addr] and [buf] at [off], frame
   by frame and straight from source to destination: into memory when
   [to_mem], out of it otherwise. *)
let blit t ~addr buf ~off ~len ~to_mem =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg (if to_mem then "Phys_mem.blit_from" else "Phys_mem.blit_to");
  let pos = ref 0 in
  let addr = ref addr in
  while !pos < len do
    let chunk = min (len - !pos) (frame_bytes - Int64.to_int (Int64.logand !addr 0xfffL)) in
    let frame, foff = locate t !addr chunk in
    if to_mem then Bytes.blit buf (off + !pos) (frame_of t frame) foff chunk
    else Bytes.blit (frame_of t frame) foff buf (off + !pos) chunk;
    pos := !pos + chunk;
    addr := Int64.add !addr (Int64.of_int chunk)
  done

let blit_to t ~addr dst ~off ~len = blit t ~addr dst ~off ~len ~to_mem:false
let blit_from t ~addr src ~off ~len = blit t ~addr src ~off ~len ~to_mem:true

let read_bytes t ~addr ~len =
  let out = Bytes.create len in
  blit_to t ~addr out ~off:0 ~len;
  out

let write_bytes t ~addr src = blit_from t ~addr src ~off:0 ~len:(Bytes.length src)

let copy_frame t ~src ~dst =
  let frame i =
    if i < 0 || i >= t.nframes then
      raise (Bad_physical_address (Int64.of_int (i * frame_bytes)));
    frame_of t i
  in
  let from = frame src in
  Bytes.blit from 0 (frame dst) 0 frame_bytes

let zero_frame t i =
  if i < 0 || i >= t.nframes then
    raise (Bad_physical_address (Int64.of_int (i * frame_bytes)));
  Frames.remove t.frames i

let frame_is_allocated t i = Frames.mem t.frames i
