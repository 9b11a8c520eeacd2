let frame_bytes = 4096

(* Frames are allocated on first touch, in a two-level array indexed by
   frame number: a directory with one slot per 512 frames (2 MiB), each
   slot a leaf of 512 frame slots.  A leaf is allocated with the first
   frame touched in its range; until then the directory slot holds
   [vacant], one leaf of [absent] slots shared by every untouched
   range and never written.  A node pays 8 bytes per 2 MiB of physical
   memory up front and 4 KiB per 2 MiB range it touches, never 8 bytes
   per frame it does not use.  Finding a frame is two loads and a
   compare, with no hashing. *)
let leaf_bits = 9
let leaf_mask = (1 lsl leaf_bits) - 1

type t = { nframes : int; dir : bytes array array; vacant : bytes array }

exception Bad_physical_address of int64

(* The marker of an untouched frame slot; no frame is ever empty. *)
let absent = Bytes.empty

let create ~frames =
  if frames <= 0 then invalid_arg "Phys_mem.create: need at least one frame";
  let vacant = Array.make (leaf_mask + 1) absent in
  { nframes = frames; dir = Array.make (((frames - 1) lsr leaf_bits) + 1) vacant; vacant }

let frames t = t.nframes

let touch t i =
  let leaf =
    let l = t.dir.(i lsr leaf_bits) in
    if l != t.vacant then l
    else begin
      let l = Array.make (leaf_mask + 1) absent in
      t.dir.(i lsr leaf_bits) <- l;
      l
    end
  in
  let b = Bytes.make frame_bytes '\000' in
  leaf.(i land leaf_mask) <- b;
  b

(* Frame [i]'s bytes, allocating them on first touch.  [i] is in range:
   every caller checks it first. *)
let[@inline] frame_of t i =
  let b = Array.unsafe_get (Array.unsafe_get t.dir (i lsr leaf_bits)) (i land leaf_mask) in
  if b != absent then b else touch t i

let check_frame t i =
  if i < 0 || i >= t.nframes then
    raise (Bad_physical_address (Int64.of_int (i * frame_bytes)))

(* An [int] physical address [pa] whose [len] bytes lie inside one
   frame of this memory, or the exception. *)
let[@inline] check_at t pa len =
  if pa < 0 || pa lsr 12 >= t.nframes || (pa land 0xfff) + len > frame_bytes then
    raise (Bad_physical_address (Int64.of_int pa))

(* The [int64] address as an [int], once it is known to lie in memory
   (an address past [max_int] would wrap). *)
let[@inline] to_pa t addr =
  if Int64.compare addr 0L < 0 || Int64.compare addr (Int64.of_int (t.nframes * frame_bytes)) >= 0
  then raise (Bad_physical_address addr);
  Int64.to_int addr

let read_at t pa ~len =
  check_at t pa len;
  let b = frame_of t (pa lsr 12) and off = pa land 0xfff in
  match len with
  | 1 -> Int64.of_int (Char.code (Bytes.get b off))
  | 2 -> Int64.of_int (Bytes.get_uint16_le b off)
  | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le b off)) 0xffffffffL
  | 8 -> Bytes.get_int64_le b off
  | _ -> invalid_arg "Phys_mem.read: len must be 1, 2, 4 or 8"

let write_at t pa ~len v =
  check_at t pa len;
  let b = frame_of t (pa lsr 12) and off = pa land 0xfff in
  match len with
  | 1 -> Bytes.set b off (Char.chr (Int64.to_int (Int64.logand v 0xffL)))
  | 2 -> Bytes.set_uint16_le b off (Int64.to_int (Int64.logand v 0xffffL))
  | 4 -> Bytes.set_int32_le b off (Int64.to_int32 v)
  | 8 -> Bytes.set_int64_le b off v
  | _ -> invalid_arg "Phys_mem.write: len must be 1, 2, 4 or 8"

let read t ~addr ~len = read_at t (to_pa t addr) ~len
let write t ~addr ~len v = write_at t (to_pa t addr) ~len v

(* Copy [len] bytes between memory at [pa] and [buf] at [off], frame by
   frame and straight from source to destination: into memory when
   [to_mem], out of it otherwise.  The caller has checked [off] and
   [len] against [buf]. *)
let blit_at t pa buf ~off ~len ~to_mem =
  let pos = ref 0 in
  while !pos < len do
    let pa = pa + !pos in
    let chunk = min (len - !pos) (frame_bytes - (pa land 0xfff)) in
    check_at t pa chunk;
    if to_mem then Bytes.blit buf (off + !pos) (frame_of t (pa lsr 12)) (pa land 0xfff) chunk
    else Bytes.blit (frame_of t (pa lsr 12)) (pa land 0xfff) buf (off + !pos) chunk;
    pos := !pos + chunk
  done

(* A transfer may run off the end of memory after its first frame: the
   frames before the bad one land, and the exception names the first
   byte past the end, as a frame-by-frame walk from [addr] would. *)
let blit t ~addr buf ~off ~len ~to_mem =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg (if to_mem then "Phys_mem.blit_from" else "Phys_mem.blit_to");
  let pa = if len = 0 then 0 else to_pa t addr in
  let fits = min len ((t.nframes * frame_bytes) - pa) in
  blit_at t pa buf ~off ~len:fits ~to_mem;
  if fits < len then raise (Bad_physical_address (Int64.add addr (Int64.of_int fits)))

let blit_to t ~addr dst ~off ~len = blit t ~addr dst ~off ~len ~to_mem:false
let blit_from t ~addr src ~off ~len = blit t ~addr src ~off ~len ~to_mem:true

let read_bytes t ~addr ~len =
  let out = Bytes.create len in
  blit_to t ~addr out ~off:0 ~len;
  out

let write_bytes t ~addr src = blit_from t ~addr src ~off:0 ~len:(Bytes.length src)

let copy_frame t ~src ~dst =
  check_frame t src;
  check_frame t dst;
  Bytes.blit (frame_of t src) 0 (frame_of t dst) 0 frame_bytes

let zero_frame t i =
  check_frame t i;
  let leaf = t.dir.(i lsr leaf_bits) in
  if leaf != t.vacant then leaf.(i land leaf_mask) <- absent

let frame_is_allocated t i =
  check_frame t i;
  t.dir.(i lsr leaf_bits).(i land leaf_mask) != absent
