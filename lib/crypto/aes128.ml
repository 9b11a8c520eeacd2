let block_size = 16
let key_size = 16

(* GF(2^8) multiplication modulo the AES polynomial x^8+x^4+x^3+x+1. *)
let gf_mul a b =
  let rec loop a b acc =
    if b = 0 then acc
    else
      let acc = if b land 1 = 1 then acc lxor a else acc in
      let a = if a land 0x80 <> 0 then (a lsl 1) lxor 0x11b else a lsl 1 in
      loop a (b lsr 1) acc
  in
  loop a b 0

(* The S-box is the multiplicative inverse followed by the FIPS 197
   affine transform.  Inverses are found by exhausting the field once. *)
let sbox =
  let inv = Array.make 256 0 in
  for a = 1 to 255 do
    for b = 1 to 255 do
      if gf_mul a b = 1 then inv.(a) <- b
    done
  done;
  let affine x =
    let rotl8 v n = ((v lsl n) lor (v lsr (8 - n))) land 0xff in
    x lxor rotl8 x 1 lxor rotl8 x 2 lxor rotl8 x 3 lxor rotl8 x 4 lxor 0x63
  in
  Array.init 256 (fun x -> affine inv.(x))

(* Words are big-endian: byte [r] of a column is bits [31-8r .. 24-8r],
   so row 0 is the most significant byte.  [te0.(x)] is the column
   SubBytes+MixColumns produce from [x] in row 0, i.e. (2s, s, s, 3s)
   with s = S(x); [te1]..[te3] are the same column for rows 1..3, which
   is [te0] rotated right by 8, 16 and 24 bits.  One round of the
   cipher is then four lookups and four xors per output column. *)
let ror32 w n = ((w lsr n) lor (w lsl (32 - n))) land 0xffffffff

let te0 =
  Array.init 256 (fun x ->
      let s = sbox.(x) in
      (gf_mul s 2 lsl 24) lor (s lsl 16) lor (s lsl 8) lor gf_mul s 3)

let te1 = Array.map (fun w -> ror32 w 8) te0
let te2 = Array.map (fun w -> ror32 w 16) te0
let te3 = Array.map (fun w -> ror32 w 24) te0

(* The 44-word key schedule of FIPS 197 section 5.2, one word per int.
   The type is abstract and only [expand] builds one, so reads of
   words 0..43 need no bounds check. *)
type key = int array

let[@inline] get_be32 b i =
  (Char.code (Bytes.unsafe_get b i) lsl 24)
  lor (Char.code (Bytes.unsafe_get b (i + 1)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (i + 2)) lsl 8)
  lor Char.code (Bytes.unsafe_get b (i + 3))

let[@inline] set_be32 b i w =
  Bytes.unsafe_set b i (Char.unsafe_chr (w lsr 24));
  Bytes.unsafe_set b (i + 1) (Char.unsafe_chr ((w lsr 16) land 0xff));
  Bytes.unsafe_set b (i + 2) (Char.unsafe_chr ((w lsr 8) land 0xff));
  Bytes.unsafe_set b (i + 3) (Char.unsafe_chr (w land 0xff))

let sub_word w =
  (sbox.(w lsr 24) lsl 24)
  lor (sbox.((w lsr 16) land 0xff) lsl 16)
  lor (sbox.((w lsr 8) land 0xff) lsl 8)
  lor sbox.(w land 0xff)

let expand k =
  if Bytes.length k <> key_size then invalid_arg "Aes128.expand: need 16 bytes";
  let w = Array.make 44 0 in
  for i = 0 to 3 do
    w.(i) <- get_be32 k (4 * i)
  done;
  let rcon = ref 1 in
  for i = 4 to 43 do
    let prev = w.(i - 1) in
    let temp =
      if i mod 4 = 0 then begin
        (* RotWord + SubWord + Rcon *)
        let t = sub_word (ror32 prev 24) lxor (!rcon lsl 24) in
        rcon := gf_mul !rcon 2;
        t
      end
      else prev
    in
    w.(i) <- w.(i - 4) lxor temp
  done;
  w

(* One full round for one output column: column j takes row r from
   input column (j + r) mod 4, which is ShiftRows folded into the
   lookups. *)
let[@inline] round_column a b c d rk =
  Array.unsafe_get te0 (a lsr 24)
  lxor Array.unsafe_get te1 ((b lsr 16) land 0xff)
  lxor Array.unsafe_get te2 ((c lsr 8) land 0xff)
  lxor Array.unsafe_get te3 (d land 0xff)
  lxor rk

(* The last round has no MixColumns: SubBytes and ShiftRows only. *)
let[@inline] last_column a b c d rk =
  (Array.unsafe_get sbox (a lsr 24) lsl 24)
  lor (Array.unsafe_get sbox ((b lsr 16) land 0xff) lsl 16)
  lor (Array.unsafe_get sbox ((c lsr 8) land 0xff) lsl 8)
  lor Array.unsafe_get sbox (d land 0xff)
  lxor rk

(* Round-key word [i]: always in 0..43, see [key]. *)
let[@inline] rk (key : key) i = Array.unsafe_get key i

let encrypt_into key ~src ~src_off ~dst ~dst_off =
  if
    src_off < 0
    || src_off > Bytes.length src - block_size
    || dst_off < 0
    || dst_off > Bytes.length dst - block_size
  then invalid_arg "Aes128.encrypt_into: block out of bounds";
  let s0 = ref (get_be32 src src_off lxor rk key 0)
  and s1 = ref (get_be32 src (src_off + 4) lxor rk key 1)
  and s2 = ref (get_be32 src (src_off + 8) lxor rk key 2)
  and s3 = ref (get_be32 src (src_off + 12) lxor rk key 3) in
  for round = 1 to 9 do
    let a = !s0 and b = !s1 and c = !s2 and d = !s3 and k = 4 * round in
    s0 := round_column a b c d (rk key k);
    s1 := round_column b c d a (rk key (k + 1));
    s2 := round_column c d a b (rk key (k + 2));
    s3 := round_column d a b c (rk key (k + 3))
  done;
  let a = !s0 and b = !s1 and c = !s2 and d = !s3 in
  set_be32 dst dst_off (last_column a b c d (rk key 40));
  set_be32 dst (dst_off + 4) (last_column b c d a (rk key 41));
  set_be32 dst (dst_off + 8) (last_column c d a b (rk key 42));
  set_be32 dst (dst_off + 12) (last_column d a b c (rk key 43))

let encrypt_block key plain =
  if Bytes.length plain <> block_size then
    invalid_arg "Aes128.encrypt_block: need 16 bytes";
  let out = Bytes.create block_size in
  encrypt_into key ~src:plain ~src_off:0 ~dst:out ~dst_off:0;
  out
