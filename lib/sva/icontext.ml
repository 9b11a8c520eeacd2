type t = {
  mutable pc : int64;
  mutable sp : int64;
  mutable privilege : Machine.privilege;
  gprs : int64 array;
}

let gpr_count = 16

let create ~pc ~sp ~privilege = { pc; sp; privilege; gprs = Array.make gpr_count 0L }

let clone t = { t with gprs = Array.copy t.gprs }

let byte_size = 8 * (3 + gpr_count)

let privilege_word = function Machine.User -> 3L | Machine.Kernel -> 0L

let store t b =
  if Bytes.length b < byte_size then invalid_arg "Icontext.store: short buffer";
  Bytes.set_int64_le b 0 t.pc;
  Bytes.set_int64_le b 8 t.sp;
  Bytes.set_int64_le b 16 (privilege_word t.privilege);
  for i = 0 to gpr_count - 1 do
    Bytes.set_int64_le b (24 + (8 * i)) t.gprs.(i)
  done

(* A field is written only when its value changed: an [int64] field or
   array slot holds a box, and an unchanged one needs no new box.  A
   trap round trip changes the result register and little else. *)
let load t b =
  if Bytes.length b < byte_size then invalid_arg "Icontext.load: short buffer";
  let pc = Bytes.get_int64_le b 0 and sp = Bytes.get_int64_le b 8 in
  if not (Int64.equal t.pc pc) then t.pc <- pc;
  if not (Int64.equal t.sp sp) then t.sp <- sp;
  t.privilege <- (if Int64.equal (Bytes.get_int64_le b 16) 3L then Machine.User else Machine.Kernel);
  for i = 0 to gpr_count - 1 do
    let v = Bytes.get_int64_le b (24 + (8 * i)) in
    if not (Int64.equal (Array.unsafe_get t.gprs i) v) then t.gprs.(i) <- v
  done
