(* Spec-form AES-128 encryption (FIPS 197 section 5.1), kept as a test
   oracle for the table-driven cipher in Vg_crypto.Aes128.  It works on
   a 16-byte state with the byte-oriented round functions exactly as
   the standard writes them: SubBytes, ShiftRows, MixColumns over
   GF(2^8) multiplication, and AddRoundKey.  It shares no code with the
   library cipher: the S-box and key schedule are derived here again. *)

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

(* The multiplicative inverse followed by the FIPS 197 affine map. *)
let sbox =
  let inv = Array.make 256 0 in
  for a = 1 to 255 do
    for b = 1 to 255 do
      if gf_mul a b = 1 then inv.(a) <- b
    done
  done;
  let rotl8 v n = ((v lsl n) lor (v lsr (8 - n))) land 0xff in
  Array.init 256 (fun x ->
      let y = inv.(x) in
      y lxor rotl8 y 1 lxor rotl8 y 2 lxor rotl8 y 3 lxor rotl8 y 4 lxor 0x63)

let xor_into ~src ~dst =
  Bytes.iteri
    (fun i c -> Bytes.set dst i (Char.chr (Char.code c lxor Char.code (Bytes.get dst i))))
    src

(* Word-oriented key schedule: 44 four-byte words, 11 round keys. *)
let expand k =
  assert (Bytes.length k = 16);
  let words = Array.make 44 Bytes.empty in
  for i = 0 to 3 do
    words.(i) <- Bytes.sub k (4 * i) 4
  done;
  let rcon = ref 1 in
  for i = 4 to 43 do
    let prev = words.(i - 1) in
    let temp =
      if i mod 4 = 0 then begin
        (* RotWord + SubWord + Rcon *)
        let t =
          Bytes.init 4 (fun j ->
              Char.chr sbox.(Char.code (Bytes.get prev ((j + 1) mod 4))))
        in
        Bytes.set t 0 (Char.chr (Char.code (Bytes.get t 0) lxor !rcon));
        rcon := gf_mul !rcon 2;
        t
      end
      else Bytes.copy prev
    in
    xor_into ~src:words.(i - 4) ~dst:temp;
    words.(i) <- temp
  done;
  Array.init 11 (fun r -> Bytes.concat Bytes.empty (Array.to_list (Array.sub words (4 * r) 4)))

(* State layout: byte [r + 4*c] is row r, column c (column-major). *)

let sub_bytes state =
  Bytes.iteri (fun i c -> Bytes.set state i (Char.chr sbox.(Char.code c))) state

let shift_rows state =
  let tmp = Bytes.copy state in
  for r = 1 to 3 do
    for c = 0 to 3 do
      Bytes.set state (r + (4 * c)) (Bytes.get tmp (r + (4 * ((c + r) mod 4))))
    done
  done

let mix_columns state =
  let m = [| [| 2; 3; 1; 1 |]; [| 1; 2; 3; 1 |]; [| 1; 1; 2; 3 |]; [| 3; 1; 1; 2 |] |] in
  for c = 0 to 3 do
    let col = Array.init 4 (fun r -> Char.code (Bytes.get state (r + (4 * c)))) in
    for r = 0 to 3 do
      let v = ref 0 in
      for j = 0 to 3 do
        v := !v lxor gf_mul m.(r).(j) col.(j)
      done;
      Bytes.set state (r + (4 * c)) (Char.chr !v)
    done
  done

let encrypt_block rounds plain =
  assert (Bytes.length plain = 16);
  let state = Bytes.copy plain in
  xor_into ~src:rounds.(0) ~dst:state;
  for round = 1 to 9 do
    sub_bytes state;
    shift_rows state;
    mix_columns state;
    xor_into ~src:rounds.(round) ~dst:state
  done;
  sub_bytes state;
  shift_rows state;
  xor_into ~src:rounds.(10) ~dst:state;
  state

(* CTR keystream block [blk] for an 8-byte nonce: nonce || be64(blk). *)
let keystream_block rounds ~nonce blk =
  let counter = Bytes.make 16 '\000' in
  Bytes.blit nonce 0 counter 0 8;
  Bytes.set_int64_be counter 8 (Int64.of_int blk);
  encrypt_block rounds counter
