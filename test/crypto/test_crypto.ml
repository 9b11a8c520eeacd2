(* Crypto substrate tests: published vectors (FIPS 197, FIPS 180-4,
   RFC 4231, RFC 8439), qcheck properties on round-trips and
   arithmetic laws, a differential check of the table-driven AES and
   CTR against the spec-form oracle in [Aes_ref], and an allocation
   guard on the swap envelope. *)

open Vg_crypto

let hex = Bytes_util.of_hex
let check_hex msg expected b = Alcotest.(check string) msg expected (Bytes_util.to_hex b)

(* ------------------------------------------------------------------ *)
(* Hex / bytes utilities                                               *)

let test_hex_roundtrip () =
  check_hex "round" "deadbeef" (hex "deadbeef");
  Alcotest.(check string) "upper" "deadbeef" (Bytes_util.to_hex (hex "DEADBEEF"))

let test_hex_invalid () =
  Alcotest.check_raises "odd" (Invalid_argument "Bytes_util.of_hex: odd length")
    (fun () -> ignore (hex "abc"));
  Alcotest.check_raises "bad digit"
    (Invalid_argument "Bytes_util.of_hex: not a hex digit") (fun () ->
      ignore (hex "zz"))

let test_endian_helpers () =
  let b = Bytes.create 8 in
  Bytes_util.set_u64_be b 0 0x0102030405060708L;
  Alcotest.(check string) "be bytes" "0102030405060708" (Bytes_util.to_hex b);
  Alcotest.(check int64) "be load" 0x0102030405060708L (Bytes_util.get_u64_be b 0);
  Bytes_util.set_u32_le b 0 0x01020304l;
  Alcotest.(check int32) "le load" 0x01020304l (Bytes_util.get_u32_le b 0)

let test_xor () =
  let a = hex "ff00ff00" and b = hex "0f0f0f0f" in
  check_hex "xor" "f00ff00f" (Bytes_util.xor a b);
  Alcotest.check_raises "len" (Invalid_argument "Bytes_util.xor_into: length mismatch")
    (fun () -> ignore (Bytes_util.xor a (hex "00")))

(* ------------------------------------------------------------------ *)
(* Constant time                                                       *)

let test_ct_equal () =
  Alcotest.(check bool) "eq" true (Constant_time.equal (hex "aabb") (hex "aabb"));
  Alcotest.(check bool) "ne" false (Constant_time.equal (hex "aabb") (hex "aabc"));
  Alcotest.(check bool) "len" false (Constant_time.equal (hex "aabb") (hex "aa"))

let test_ct_select () =
  Alcotest.(check int) "true" 7 (Constant_time.select true 7 9);
  Alcotest.(check int) "false" 9 (Constant_time.select false 7 9)

(* ------------------------------------------------------------------ *)
(* SHA-256 (FIPS 180-4 vectors)                                        *)

let test_sha256_vectors () =
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest_string "");
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest_string "abc");
  check_hex "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha256_million_a () =
  let ctx = Sha256.init () in
  let chunk = Bytes.make 1000 'a' in
  for _ = 1 to 1000 do
    Sha256.update ctx chunk
  done;
  check_hex "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.finalize ctx)

let test_sha256_streaming_split () =
  (* Feeding in odd-sized pieces must match the one-shot digest. *)
  let msg = Bytes.of_string (String.init 321 (fun i -> Char.chr (i mod 256))) in
  let ctx = Sha256.init () in
  let pos = ref 0 in
  List.iter
    (fun len ->
      Sha256.update_sub ctx msg ~pos:!pos ~len;
      pos := !pos + len)
    [ 1; 63; 64; 65; 128 ];
  Alcotest.(check int) "consumed all" 321 !pos;
  Alcotest.(check string) "split = one-shot"
    (Bytes_util.to_hex (Sha256.digest msg))
    (Bytes_util.to_hex (Sha256.finalize ctx))

let spent = Invalid_argument "Sha256: context already finalized"

let finalized_ctx () =
  let ctx = Sha256.init () in
  Sha256.update ctx (Bytes.of_string "abc");
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.finalize ctx);
  ctx

let test_sha256_finalize_twice () =
  let ctx = finalized_ctx () in
  Alcotest.check_raises "second finalize" spent (fun () -> ignore (Sha256.finalize ctx))

let test_sha256_update_after_finalize () =
  let ctx = finalized_ctx () in
  Alcotest.check_raises "update" spent (fun () -> Sha256.update ctx (Bytes.of_string "d"));
  Alcotest.check_raises "update_sub" spent (fun () ->
      Sha256.update_sub ctx Bytes.empty ~pos:0 ~len:0)

(* ------------------------------------------------------------------ *)
(* HMAC (RFC 4231)                                                     *)

let test_hmac_rfc4231 () =
  check_hex "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac ~key:(Bytes.make 20 '\x0b') (Bytes.of_string "Hi There"));
  check_hex "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac ~key:(Bytes.of_string "Jefe")
       (Bytes.of_string "what do ya want for nothing?"));
  (* case 3: 20-byte 0xaa key, 50-byte 0xdd data *)
  check_hex "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.mac ~key:(Bytes.make 20 '\xaa') (Bytes.make 50 '\xdd'))

let test_hmac_long_key () =
  (* RFC 4231 case 6: 131-byte key must be hashed first. *)
  check_hex "case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.mac ~key:(Bytes.make 131 '\xaa')
       (Bytes.of_string "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_hmac_more_rfc4231 () =
  (* case 4: 25-byte key 0x01..0x19, 50 bytes of 0xcd *)
  let key = Bytes.init 25 (fun i -> Char.chr (i + 1)) in
  check_hex "case 4"
    "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
    (Hmac.mac ~key (Bytes.make 50 '\xcd'));
  (* case 7: 131-byte 0xaa key, long message *)
  check_hex "case 7"
    "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
    (Hmac.mac ~key:(Bytes.make 131 '\xaa')
       (Bytes.of_string
          "This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm."))

let test_hmac_verify () =
  let key = Bytes.of_string "k" and msg = Bytes.of_string "m" in
  let tag = Hmac.mac ~key msg in
  Alcotest.(check bool) "ok" true (Hmac.verify ~key ~tag msg);
  Bytes.set tag 0 (Char.chr (Char.code (Bytes.get tag 0) lxor 1));
  Alcotest.(check bool) "tampered" false (Hmac.verify ~key ~tag msg)

(* ------------------------------------------------------------------ *)
(* AES-128 (FIPS 197 appendix C.1)                                     *)

let test_aes_fips197 () =
  let key = Aes128.expand (hex "000102030405060708090a0b0c0d0e0f") in
  let plain = hex "00112233445566778899aabbccddeeff" in
  let cipher = Aes128.encrypt_block key plain in
  check_hex "encrypt" "69c4e0d86a7b0430d8cdb78070b4c55a" cipher

let test_aes_second_vector () =
  (* NIST SP 800-38A F.1.1 ECB-AES128 block 1. *)
  let key = Aes128.expand (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  check_hex "ecb block"
    "3ad77bb40d7a3660a89ecaf32466ef97"
    (Aes128.encrypt_block key (hex "6bc1bee22e409f96e93d7e117393172a"))

let test_aes_ecb_full_f11 () =
  (* NIST SP 800-38A F.1.1: all four ECB-AES128 blocks. *)
  let key = Aes128.expand (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  List.iter
    (fun (plain, cipher) -> check_hex plain cipher (Aes128.encrypt_block key (hex plain)))
    [
      ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97");
      ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf");
      ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688");
      ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4");
    ]

let test_ctr_nist_f51 () =
  (* NIST SP 800-38A F.5.1 CTR-AES128.Encrypt: the counter block is
     f0f1..ff, i.e. nonce f0..f7 with our big-endian 8-byte block
     counter starting at 0xf8f9fafbfcfdfeff.  Our Ctr starts the block
     counter at 0, so test the first block only with a crafted check:
     encrypt the counter block directly. *)
  let key = Aes128.expand (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let keystream = Aes128.encrypt_block key (hex "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff") in
  let plain = hex "6bc1bee22e409f96e93d7e117393172a" in
  check_hex "ctr block 1" "874d6191b620e3261bef6864990db6ce"
    (Bytes_util.xor keystream plain)

let test_aes_bad_sizes () =
  Alcotest.check_raises "key" (Invalid_argument "Aes128.expand: need 16 bytes")
    (fun () -> ignore (Aes128.expand (Bytes.create 5)));
  let key = Aes128.expand (Bytes.create 16) in
  Alcotest.check_raises "block" (Invalid_argument "Aes128.encrypt_block: need 16 bytes")
    (fun () -> ignore (Aes128.encrypt_block key (Bytes.create 15)));
  let oob = Invalid_argument "Aes128.encrypt_into: block out of bounds" in
  Alcotest.check_raises "src" oob (fun () ->
      Aes128.encrypt_into key ~src:(Bytes.create 20) ~src_off:5 ~dst:(Bytes.create 16)
        ~dst_off:0);
  Alcotest.check_raises "dst" oob (fun () ->
      Aes128.encrypt_into key ~src:(Bytes.create 16) ~src_off:0 ~dst:(Bytes.create 16)
        ~dst_off:(-1))

(* ------------------------------------------------------------------ *)
(* AES-CTR envelope                                                    *)

let test_ctr_roundtrip () =
  let key = Aes128.expand (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let nonce = hex "0001020304050607" in
  let msg = Bytes.of_string "ghost memory page contents, arbitrary length." in
  let ct = Ctr.transform ~key ~nonce msg in
  Alcotest.(check bool) "differs" false (Bytes.equal ct msg);
  Alcotest.(check bytes) "round" msg (Ctr.transform ~key ~nonce ct)

let test_seal_open () =
  let key = hex "000102030405060708090a0b0c0d0e0f" in
  let nonce = hex "0011223344556677" in
  let msg = Bytes.of_string "swap me out" in
  let sealed = Ctr.seal ~key ~nonce msg in
  Alcotest.(check int) "overhead" (Bytes.length msg + Ctr.tag_size) (Bytes.length sealed);
  (match Ctr.open_ ~key ~nonce sealed with
  | Some plain -> Alcotest.(check bytes) "round" msg plain
  | None -> Alcotest.fail "open failed");
  Bytes.set sealed 0 (Char.chr (Char.code (Bytes.get sealed 0) lxor 1));
  Alcotest.(check bool) "tamper detected" true (Ctr.open_ ~key ~nonce sealed = None)

let test_seal_wrong_nonce () =
  let key = Bytes.make 16 'k' in
  let sealed = Ctr.seal ~key ~nonce:(hex "0000000000000001") (Bytes.of_string "x") in
  Alcotest.(check bool) "nonce binds" true
    (Ctr.open_ ~key ~nonce:(hex "0000000000000002") sealed = None)

(* ------------------------------------------------------------------ *)
(* Differential: table-driven cipher vs the spec-form oracle           *)

let gen_bytes n = QCheck2.Gen.(map Bytes.of_string (string_size ~gen:char (return n)))
let gen_msg max = QCheck2.Gen.(map Bytes.of_string (string_size ~gen:char (int_bound max)))

let prop_aes_matches_reference =
  QCheck2.Test.make ~name:"aes128 encrypt_block = FIPS 197 round functions"
    ~count:2000
    QCheck2.Gen.(pair (gen_bytes 16) (gen_bytes 16))
    (fun (k, block) ->
      Bytes.equal
        (Aes128.encrypt_block (Aes128.expand k) block)
        (Aes_ref.encrypt_block (Aes_ref.expand k) block))

let prop_ctr_matches_reference =
  QCheck2.Test.make ~name:"ctr transform = reference keystream xor" ~count:100
    QCheck2.Gen.(triple (gen_bytes 16) (gen_bytes 8) (gen_msg 5000))
    (fun (k, nonce, msg) ->
      let rounds = Aes_ref.expand k in
      let expected = Bytes.copy msg in
      for blk = 0 to (Bytes.length msg - 1) / 16 do
        let ks = Aes_ref.keystream_block rounds ~nonce blk in
        for i = 16 * blk to min (Bytes.length msg) (16 * (blk + 1)) - 1 do
          Bytes.set expected i
            (Char.chr (Char.code (Bytes.get msg i) lxor Char.code (Bytes.get ks (i mod 16))))
        done
      done;
      Bytes.equal expected (Ctr.transform ~key:(Aes128.expand k) ~nonce msg))

let prop_seal_open_roundtrip =
  QCheck2.Test.make ~name:"ctr open_ (seal m) = Some m" ~count:200
    QCheck2.Gen.(triple (gen_bytes 16) (gen_bytes 8) (gen_msg 5000))
    (fun (key, nonce, msg) -> Ctr.open_ ~key ~nonce (Ctr.seal ~key ~nonce msg) = Some msg)

let prop_seal_flip_refused =
  QCheck2.Test.make ~name:"ctr any flipped sealed byte is refused" ~count:300
    QCheck2.Gen.(
      quad (gen_bytes 16) (gen_bytes 8) (gen_msg 300) (pair nat (int_range 1 255)))
    (fun (key, nonce, msg, (where, bits)) ->
      let sealed = Ctr.seal ~key ~nonce msg in
      let i = where mod Bytes.length sealed in
      Bytes.set sealed i (Char.chr (Char.code (Bytes.get sealed i) lxor bits));
      Ctr.open_ ~key ~nonce sealed = None)

let prop_sha256_split =
  QCheck2.Test.make ~name:"sha256 random splits = one-shot" ~count:300
    QCheck2.Gen.(pair (gen_msg 700) (list_size (int_bound 12) (int_bound 150)))
    (fun (msg, cuts) ->
      let ctx = Sha256.init () in
      let n = Bytes.length msg in
      let pos =
        List.fold_left
          (fun pos cut ->
            let len = min cut (n - pos) in
            Sha256.update_sub ctx msg ~pos ~len;
            pos + len)
          0 cuts
      in
      Sha256.update_sub ctx msg ~pos ~len:(n - pos);
      Bytes.equal (Sha256.finalize ctx) (Sha256.digest msg))

(* ------------------------------------------------------------------ *)
(* Allocation guard: one swap blob's header || page                    *)

let words_allocated = Vg_oracle.Alloc_meter.words

let test_swap_envelope_allocation () =
  let key = Bytes.make 16 'k' and nonce = hex "0000000000000007" in
  let payload = Bytes.init 4120 (fun i -> Char.chr (i * 7 land 0xff)) in
  let budget = 2000 in
  let sealed, seal_words = words_allocated (fun () -> Ctr.seal ~key ~nonce payload) in
  let opened, open_words = words_allocated (fun () -> Ctr.open_ ~key ~nonce sealed) in
  Alcotest.(check bool) "round-trip" true (opened = Some payload);
  if seal_words > budget then Alcotest.failf "seal allocated %d words (> %d)" seal_words budget;
  if open_words > budget then Alcotest.failf "open_ allocated %d words (> %d)" open_words budget

(* ------------------------------------------------------------------ *)
(* ChaCha20 (RFC 8439 section 2.3.2)                                   *)

let test_chacha20_block () =
  let key = hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
  let nonce = hex "000000090000004a00000000" in
  let block = Chacha20.block ~key ~counter:1l ~nonce in
  check_hex "rfc8439"
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4ed2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    block

let test_chacha20_transform_roundtrip () =
  let key = Bytes.make 32 '\x42' and nonce = Bytes.make 12 '\x07' in
  let msg = Bytes.of_string "the quick brown fox jumps over the lazy dog" in
  let ct = Chacha20.transform ~key ~nonce ~counter:0l msg in
  Alcotest.(check bytes) "round" msg (Chacha20.transform ~key ~nonce ~counter:0l ct)

(* ------------------------------------------------------------------ *)
(* DRBG                                                                *)

let test_drbg_deterministic () =
  let a = Drbg.create ~seed:(Bytes.of_string "seed") in
  let b = Drbg.create ~seed:(Bytes.of_string "seed") in
  Alcotest.(check bytes) "same seed, same stream" (Drbg.bytes a 64) (Drbg.bytes b 64)

let test_drbg_distinct_seeds () =
  let a = Drbg.create ~seed:(Bytes.of_string "seed-a") in
  let b = Drbg.create ~seed:(Bytes.of_string "seed-b") in
  Alcotest.(check bool) "streams differ" false
    (Bytes.equal (Drbg.bytes a 32) (Drbg.bytes b 32))

let test_drbg_forward_secrecy () =
  (* The ratchet means two successive requests never repeat. *)
  let g = Drbg.create ~seed:(Bytes.of_string "s") in
  let x = Drbg.bytes g 32 and y = Drbg.bytes g 32 in
  Alcotest.(check bool) "no repeat" false (Bytes.equal x y)

let test_drbg_int_below () =
  let g = Drbg.create ~seed:(Bytes.of_string "bounds") in
  for _ = 1 to 1000 do
    let v = Drbg.int_below g 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_drbg_reseed_changes_stream () =
  let a = Drbg.create ~seed:(Bytes.of_string "s") in
  let b = Drbg.create ~seed:(Bytes.of_string "s") in
  Drbg.reseed b (Bytes.of_string "entropy");
  Alcotest.(check bool) "diverged" false (Bytes.equal (Drbg.bytes a 16) (Drbg.bytes b 16))

(* ------------------------------------------------------------------ *)
(* Bignum                                                              *)

let bn = Bignum.of_int

let test_bignum_int_roundtrip () =
  List.iter
    (fun n -> Alcotest.(check (option int)) "round" (Some n) (Bignum.to_int (bn n)))
    [ 0; 1; 2; 255; 256; 65535; 1 lsl 30; (1 lsl 40) + 12345; max_int / 4 ]

let test_bignum_bytes_roundtrip () =
  let v = Bignum.of_bytes_be (hex "0123456789abcdef0011") in
  check_hex "round" "0123456789abcdef0011" (Bignum.to_bytes_be v);
  check_hex "padded" "00000123456789abcdef0011" (Bignum.to_bytes_be ~len:12 v)

let test_bignum_division () =
  let a = Bignum.of_bytes_be (hex "ffffffffffffffffffffffffffffffff") in
  let b = Bignum.of_bytes_be (hex "fedcba9876543210") in
  let q, r = Bignum.divmod a b in
  Alcotest.(check bool) "a = q*b + r" true
    (Bignum.equal a (Bignum.add (Bignum.mul q b) r));
  Alcotest.(check bool) "r < b" true (Bignum.compare r b < 0)

let test_bignum_mod_pow_small () =
  (* 5^117 mod 19 = 1 (Fermat: 5^18=1, 117 = 6*18+9; 5^9 mod 19 = 1). *)
  let r = Bignum.mod_pow ~base:(bn 5) ~exp:(bn 117) ~modulus:(bn 19) in
  Alcotest.(check (option int)) "modpow" (Some 1) (Bignum.to_int r);
  let r2 = Bignum.mod_pow ~base:(bn 7) ~exp:(bn 0) ~modulus:(bn 13) in
  Alcotest.(check (option int)) "x^0" (Some 1) (Bignum.to_int r2)

let test_bignum_mod_inverse () =
  (* 3 * 7 = 21 = 1 mod 10 *)
  (match Bignum.mod_inverse (bn 3) ~modulus:(bn 10) with
  | Some v -> Alcotest.(check (option int)) "inv 3 mod 10" (Some 7) (Bignum.to_int v)
  | None -> Alcotest.fail "expected inverse");
  Alcotest.(check bool) "no inverse" true (Bignum.mod_inverse (bn 4) ~modulus:(bn 10) = None)

let test_bignum_primality () =
  let rng = Drbg.create ~seed:(Bytes.of_string "prime-test") in
  List.iter
    (fun (n, expect) ->
      Alcotest.(check bool) (string_of_int n) expect
        (Bignum.is_probable_prime rng (bn n)))
    [ (2, true); (3, true); (4, false); (17, true); (561, false) (* Carmichael *);
      (7919, true); (7917, false); (104729, true) ]

let test_bignum_generate_prime () =
  let rng = Drbg.create ~seed:(Bytes.of_string "genprime") in
  let p = Bignum.generate_prime rng ~bits:96 in
  Alcotest.(check int) "width" 96 (Bignum.bit_length p);
  Alcotest.(check bool) "prime" true (Bignum.is_probable_prime rng p)

let test_bignum_shifts () =
  let v = bn 0b1011 in
  Alcotest.(check (option int)) "shl" (Some 0b101100) (Bignum.to_int (Bignum.shift_left v 2));
  Alcotest.(check (option int)) "shr" (Some 0b10) (Bignum.to_int (Bignum.shift_right v 2));
  Alcotest.(check (option int)) "shl across limb" (Some (11 * (1 lsl 30)))
    (Bignum.to_int (Bignum.shift_left v 30))

(* qcheck: arithmetic laws checked against OCaml ints. *)
let gen_nat30 = QCheck2.Gen.int_bound ((1 lsl 30) - 1)

let prop_add_matches_int =
  QCheck2.Test.make ~name:"bignum add matches int" ~count:500
    QCheck2.Gen.(pair gen_nat30 gen_nat30)
    (fun (a, b) -> Bignum.to_int (Bignum.add (bn a) (bn b)) = Some (a + b))

let prop_mul_matches_int =
  QCheck2.Test.make ~name:"bignum mul matches int" ~count:500
    QCheck2.Gen.(pair gen_nat30 gen_nat30)
    (fun (a, b) -> Bignum.to_int (Bignum.mul (bn a) (bn b)) = Some (a * b))

let prop_divmod_matches_int =
  QCheck2.Test.make ~name:"bignum divmod matches int" ~count:500
    QCheck2.Gen.(pair gen_nat30 (int_range 1 ((1 lsl 30) - 1)))
    (fun (a, b) ->
      let q, r = Bignum.divmod (bn a) (bn b) in
      Bignum.to_int q = Some (a / b) && Bignum.to_int r = Some (a mod b))

let prop_sub_add_roundtrip =
  QCheck2.Test.make ~name:"bignum (a+b)-b = a" ~count:500
    QCheck2.Gen.(pair gen_nat30 gen_nat30)
    (fun (a, b) -> Bignum.equal (Bignum.sub (Bignum.add (bn a) (bn b)) (bn b)) (bn a))

let prop_bytes_roundtrip =
  QCheck2.Test.make ~name:"bignum bytes round-trip" ~count:200
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_range 1 48))
    (fun s ->
      let b = Bytes.of_string s in
      let v = Bignum.of_bytes_be b in
      Bignum.equal v (Bignum.of_bytes_be (Bignum.to_bytes_be v)))

let prop_modpow_matches_naive =
  QCheck2.Test.make ~name:"modpow matches naive" ~count:200
    QCheck2.Gen.(triple (int_bound 1000) (int_bound 40) (int_range 2 1000))
    (fun (b, e, m) ->
      let naive = ref 1 in
      for _ = 1 to e do
        naive := !naive * b mod m
      done;
      Bignum.to_int (Bignum.mod_pow ~base:(bn b) ~exp:(bn e) ~modulus:(bn m))
      = Some !naive)

let prop_mod_inverse_correct =
  QCheck2.Test.make ~name:"mod_inverse correct when it exists" ~count:300
    QCheck2.Gen.(pair (int_range 1 5000) (int_range 2 5000))
    (fun (a, m) ->
      match Bignum.mod_inverse (bn a) ~modulus:(bn m) with
      | None -> true
      | Some v -> (
          match Bignum.to_int (Bignum.rem (Bignum.mul v (bn a)) (bn m)) with
          | Some 1 -> true
          | _ -> false))

(* ------------------------------------------------------------------ *)
(* RSA                                                                 *)

let rsa_key =
  lazy
    (let rng = Drbg.create ~seed:(Bytes.of_string "rsa-test-key") in
     Rsa.generate rng ~bits:256)

let test_rsa_encrypt_roundtrip () =
  let key = Lazy.force rsa_key in
  let rng = Drbg.create ~seed:(Bytes.of_string "rsa-enc") in
  let msg = Bytes.of_string "app key bytes!" in
  let ct = Rsa.encrypt key.Rsa.pub rng msg in
  (match Rsa.decrypt key ct with
  | Some plain -> Alcotest.(check bytes) "round" msg plain
  | None -> Alcotest.fail "decrypt failed");
  Bytes.set ct 3 (Char.chr (Char.code (Bytes.get ct 3) lxor 0x40));
  Alcotest.(check bool) "tampered ciphertext rejected or garbled" true
    (match Rsa.decrypt key ct with
    | None -> true
    | Some plain -> not (Bytes.equal plain msg))

let test_rsa_sign_verify () =
  let key = Lazy.force rsa_key in
  let msg = Bytes.of_string "application image" in
  let signature = Rsa.sign key msg in
  Alcotest.(check bool) "verifies" true (Rsa.verify key.Rsa.pub ~msg ~signature);
  Alcotest.(check bool) "other msg fails" false
    (Rsa.verify key.Rsa.pub ~msg:(Bytes.of_string "tampered image") ~signature);
  Bytes.set signature 0 (Char.chr (Char.code (Bytes.get signature 0) lxor 1));
  Alcotest.(check bool) "bad sig fails" false (Rsa.verify key.Rsa.pub ~msg ~signature)

let test_rsa_public_wire () =
  let key = Lazy.force rsa_key in
  match Rsa.public_of_bytes (Rsa.public_to_bytes key.Rsa.pub) with
  | Some pub ->
      Alcotest.(check bool) "n" true (Bignum.equal pub.Rsa.n key.Rsa.pub.Rsa.n);
      Alcotest.(check bool) "e" true (Bignum.equal pub.Rsa.e key.Rsa.pub.Rsa.e)
  | None -> Alcotest.fail "decode failed"

let test_rsa_message_too_long () =
  let key = Lazy.force rsa_key in
  let rng = Drbg.create ~seed:(Bytes.of_string "x") in
  Alcotest.check_raises "too long"
    (Invalid_argument "Rsa.encrypt: message too long for modulus") (fun () ->
      ignore (Rsa.encrypt key.Rsa.pub rng (Bytes.create 64)))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "vg_crypto"
    [
      ( "bytes_util",
        [
          Alcotest.test_case "hex round-trip" `Quick test_hex_roundtrip;
          Alcotest.test_case "hex invalid" `Quick test_hex_invalid;
          Alcotest.test_case "endian helpers" `Quick test_endian_helpers;
          Alcotest.test_case "xor" `Quick test_xor;
        ] );
      ( "constant_time",
        [
          Alcotest.test_case "equal" `Quick test_ct_equal;
          Alcotest.test_case "select" `Quick test_ct_select;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "million a" `Slow test_sha256_million_a;
          Alcotest.test_case "streaming split" `Quick test_sha256_streaming_split;
          Alcotest.test_case "finalize twice raises" `Quick test_sha256_finalize_twice;
          Alcotest.test_case "update after finalize raises" `Quick
            test_sha256_update_after_finalize;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "RFC 4231" `Quick test_hmac_rfc4231;
          Alcotest.test_case "long key" `Quick test_hmac_long_key;
          Alcotest.test_case "more RFC 4231" `Quick test_hmac_more_rfc4231;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
        ] );
      ( "aes128",
        [
          Alcotest.test_case "FIPS 197" `Quick test_aes_fips197;
          Alcotest.test_case "SP 800-38A" `Quick test_aes_second_vector;
          Alcotest.test_case "SP 800-38A F.1.1 full" `Quick test_aes_ecb_full_f11;
          Alcotest.test_case "CTR NIST F.5.1" `Quick test_ctr_nist_f51;
          Alcotest.test_case "bad sizes" `Quick test_aes_bad_sizes;
        ] );
      ( "ctr",
        [
          Alcotest.test_case "round-trip" `Quick test_ctr_roundtrip;
          Alcotest.test_case "seal/open" `Quick test_seal_open;
          Alcotest.test_case "nonce binds" `Quick test_seal_wrong_nonce;
        ] );
      ( "differential",
        qcheck
          [
            prop_aes_matches_reference; prop_ctr_matches_reference;
            prop_seal_open_roundtrip; prop_seal_flip_refused; prop_sha256_split;
          ] );
      ( "allocation",
        [ Alcotest.test_case "swap envelope seal/open" `Quick test_swap_envelope_allocation ]
      );
      ( "chacha20",
        [
          Alcotest.test_case "RFC 8439 block" `Quick test_chacha20_block;
          Alcotest.test_case "transform round-trip" `Quick test_chacha20_transform_roundtrip;
        ] );
      ( "drbg",
        [
          Alcotest.test_case "deterministic" `Quick test_drbg_deterministic;
          Alcotest.test_case "distinct seeds" `Quick test_drbg_distinct_seeds;
          Alcotest.test_case "forward secrecy" `Quick test_drbg_forward_secrecy;
          Alcotest.test_case "int_below range" `Quick test_drbg_int_below;
          Alcotest.test_case "reseed" `Quick test_drbg_reseed_changes_stream;
        ] );
      ( "bignum",
        [
          Alcotest.test_case "int round-trip" `Quick test_bignum_int_roundtrip;
          Alcotest.test_case "bytes round-trip" `Quick test_bignum_bytes_roundtrip;
          Alcotest.test_case "division invariant" `Quick test_bignum_division;
          Alcotest.test_case "mod_pow small" `Quick test_bignum_mod_pow_small;
          Alcotest.test_case "mod_inverse" `Quick test_bignum_mod_inverse;
          Alcotest.test_case "primality" `Quick test_bignum_primality;
          Alcotest.test_case "generate prime" `Slow test_bignum_generate_prime;
          Alcotest.test_case "shifts" `Quick test_bignum_shifts;
        ] );
      ( "bignum-properties",
        qcheck
          [
            prop_add_matches_int; prop_mul_matches_int; prop_divmod_matches_int;
            prop_sub_add_roundtrip; prop_bytes_roundtrip; prop_modpow_matches_naive;
            prop_mod_inverse_correct;
          ] );
      ( "rsa",
        [
          Alcotest.test_case "encrypt round-trip" `Slow test_rsa_encrypt_roundtrip;
          Alcotest.test_case "sign/verify" `Slow test_rsa_sign_verify;
          Alcotest.test_case "public wire" `Slow test_rsa_public_wire;
          Alcotest.test_case "message too long" `Slow test_rsa_message_too_long;
        ] );
    ]
