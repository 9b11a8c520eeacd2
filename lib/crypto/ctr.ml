let tag_size = 32

external get64 : bytes -> int -> int64 = "%caml_bytes_get64"
external set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64"

(* Encrypt (or decrypt) the first [len] bytes of [src] into the first
   [len] bytes of [dst].  Each counter block is encrypted into one scratch
   keystream block, which is xored into the output 8 bytes at a time;
   nothing is allocated per block. *)
let xcrypt ~key ~nonce ~src ~dst ~len =
  if Bytes.length nonce <> 8 then invalid_arg "Ctr.transform: nonce must be 8 bytes";
  let counter = Bytes.make 16 '\000' and ks = Bytes.create 16 in
  Bytes.blit nonce 0 counter 0 8;
  for blk = 0 to ((len + 15) / 16) - 1 do
    (* The low 8 bytes count blocks, big-endian. *)
    for i = 0 to 7 do
      Bytes.unsafe_set counter (15 - i) (Char.unsafe_chr ((blk lsr (8 * i)) land 0xff))
    done;
    Aes128.encrypt_into key ~src:counter ~src_off:0 ~dst:ks ~dst_off:0;
    let pos = 16 * blk in
    if len - pos >= 16 then begin
      set64 dst pos (Int64.logxor (get64 src pos) (get64 ks 0));
      set64 dst (pos + 8) (Int64.logxor (get64 src (pos + 8)) (get64 ks 8))
    end
    else
      for i = pos to len - 1 do
        Bytes.set dst i
          (Char.unsafe_chr
             (Char.code (Bytes.get src i) lxor Char.code (Bytes.unsafe_get ks (i - pos))))
      done
  done

let transform ~key ~nonce data =
  let n = Bytes.length data in
  let out = Bytes.create n in
  xcrypt ~key ~nonce ~src:data ~dst:out ~len:n;
  out

(* Derive independent cipher and MAC keys from one 16-byte master key,
   so a forged tag never leaks keystream material. *)
let derive key =
  let cipher_key = Aes128.expand key in
  let mac_key = Sha256.digest (Bytes.cat (Bytes.of_string "vg-mac") key) in
  (cipher_key, mac_key)

(* The ciphertext goes straight into the [ciphertext || tag] result and
   is streamed into the MAC from there, after the nonce. *)
let seal ~key ~nonce plain =
  let cipher_key, mac_key = derive key in
  let n = Bytes.length plain in
  let out = Bytes.create (n + tag_size) in
  xcrypt ~key:cipher_key ~nonce ~src:plain ~dst:out ~len:n;
  let tag = Hmac.mac_parts ~key:mac_key [ (nonce, 0, Bytes.length nonce); (out, 0, n) ] in
  Bytes.blit tag 0 out n tag_size;
  out

let open_ ~key ~nonce sealed =
  let n = Bytes.length sealed - tag_size in
  if n < 0 then None
  else begin
    let cipher_key, mac_key = derive key in
    let expected =
      Hmac.mac_parts ~key:mac_key [ (nonce, 0, Bytes.length nonce); (sealed, 0, n) ]
    in
    if Constant_time.equal expected (Bytes.sub sealed n tag_size) then begin
      let plain = Bytes.create n in
      xcrypt ~key:cipher_key ~nonce ~src:sealed ~dst:plain ~len:n;
      Some plain
    end
    else None
  end
