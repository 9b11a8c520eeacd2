(* FIPS 180-4 SHA-256 over native ints.  The message schedule and
   compression loop follow the specification directly; every word is a
   63-bit OCaml int holding a 32-bit value, so each sum is masked back
   to 32 bits ([land mask]) to get the spec's mod-2^32 arithmetic.
   Nothing in the compression loop allocates. *)

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
     0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
     0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
     0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
     0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
     0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
     0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
     0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
     0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array; (* 8 chaining words *)
  buf : bytes; (* 64-byte block buffer *)
  mutable buf_len : int; (* bytes pending in [buf] *)
  mutable total : int; (* total message bytes absorbed *)
  w : int array; (* scratch message schedule *)
  mutable finalized : bool; (* [finalize] has run: the state is spent *)
}

let mask = 0xffffffff

let init () =
  {
    h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0;
    finalized = false;
  }

(* Rotations read a 32-bit word doubled into one int, [x lor (x lsl 32)]:
   bits [n .. n+31] of it are [x] rotated right by [n].  The 63-bit int
   drops the top bit of the upper copy, which no rotation by less than
   32 reads.  Each sigma function is then one doubling, a shift per
   rotation and a single mask. *)
let[@inline] dup x = x lor (x lsl 32)

let[@inline] big_sigma0 x =
  let xx = dup x in
  ((xx lsr 2) lxor (xx lsr 13) lxor (xx lsr 22)) land mask

let[@inline] big_sigma1 x =
  let xx = dup x in
  ((xx lsr 6) lxor (xx lsr 11) lxor (xx lsr 25)) land mask

let[@inline] small_sigma0 x =
  let xx = dup x in
  ((xx lsr 7) lxor (xx lsr 18)) land mask lxor (x lsr 3)

let[@inline] small_sigma1 x =
  let xx = dup x in
  ((xx lsr 17) lxor (xx lsr 19)) land mask lxor (x lsr 10)

let[@inline] get_be32 b i =
  (Char.code (Bytes.unsafe_get b i) lsl 24)
  lor (Char.code (Bytes.unsafe_get b (i + 1)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (i + 2)) lsl 8)
  lor Char.code (Bytes.unsafe_get b (i + 3))

(* [block] holds 64 bytes at [pos]; callers check the bounds. *)
let compress ctx block pos =
  let w = ctx.w and h = ctx.h in
  (* Indices below are loop-bounded into the 64-entry [w] and [k]. *)
  for t = 0 to 15 do
    Array.unsafe_set w t (get_be32 block (pos + (4 * t)))
  done;
  for t = 16 to 63 do
    let s0 = small_sigma0 (Array.unsafe_get w (t - 15))
    and s1 = small_sigma1 (Array.unsafe_get w (t - 2)) in
    Array.unsafe_set w t
      ((s1 + Array.unsafe_get w (t - 7) + s0 + Array.unsafe_get w (t - 16)) land mask)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3)
  and e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let e' = !e and a' = !a in
    (* Ch and Maj in their two-operation forms. *)
    let ch = !g lxor (e' land (!f lxor !g)) in
    let t1 = !hh + big_sigma1 e' + ch + Array.unsafe_get k t + Array.unsafe_get w t in
    let maj = (a' land (!b lor !c)) lor (!b land !c) in
    hh := !g;
    g := !f;
    f := e';
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := a';
    a := (t1 + big_sigma0 a' + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let check_live ctx =
  if ctx.finalized then invalid_arg "Sha256: context already finalized"

let update_sub ctx src ~pos ~len =
  check_live ctx;
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    invalid_arg "Sha256.update_sub";
  ctx.total <- ctx.total + len;
  let pos = ref pos and remaining = ref len in
  (* Fill a partially full block buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min !remaining (64 - ctx.buf_len) in
    Bytes.blit src !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx src !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit src !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let update ctx src = update_sub ctx src ~pos:0 ~len:(Bytes.length src)

let finalize ctx =
  check_live ctx;
  let pad_len =
    let rem = ctx.total land 63 in
    if rem < 56 then 56 - rem else 120 - rem
  in
  let pad = Bytes.make (pad_len + 8) '\000' in
  Bytes.set pad 0 '\x80';
  Bytes.set_int64_be pad pad_len (Int64.of_int (ctx.total * 8));
  update ctx pad;
  assert (ctx.buf_len = 0);
  ctx.finalized <- true;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set out (4 * i) (Char.unsafe_chr (v lsr 24));
    Bytes.set out ((4 * i) + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.set out ((4 * i) + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.set out ((4 * i) + 3) (Char.unsafe_chr (v land 0xff))
  done;
  out

let digest msg =
  let ctx = init () in
  update ctx msg;
  finalize ctx

let digest_string s = digest (Bytes.of_string s)
