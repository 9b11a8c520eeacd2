let digit_of_char c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Bytes_util.of_hex: not a hex digit"

let of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then invalid_arg "Bytes_util.of_hex: odd length";
  let b = Bytes.create (n / 2) in
  for i = 0 to (n / 2) - 1 do
    let hi = digit_of_char s.[2 * i] and lo = digit_of_char s.[(2 * i) + 1] in
    Bytes.set b i (Char.chr ((hi lsl 4) lor lo))
  done;
  b

let hex_digits = "0123456789abcdef"

let to_hex b =
  let n = Bytes.length b in
  let s = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let v = Char.code (Bytes.get b i) in
    Bytes.set s (2 * i) hex_digits.[v lsr 4];
    Bytes.set s ((2 * i) + 1) hex_digits.[v land 0xf]
  done;
  Bytes.to_string s

let xor_into ~src ~dst =
  if Bytes.length src <> Bytes.length dst then
    invalid_arg "Bytes_util.xor_into: length mismatch";
  for i = 0 to Bytes.length src - 1 do
    Bytes.set dst i
      (Char.chr (Char.code (Bytes.get src i) lxor Char.code (Bytes.get dst i)))
  done

let xor a b =
  let dst = Bytes.copy b in
  xor_into ~src:a ~dst;
  dst

let get_u32_be = Bytes.get_int32_be
let set_u32_be = Bytes.set_int32_be
let get_u32_le = Bytes.get_int32_le
let set_u32_le = Bytes.set_int32_le
let get_u64_be = Bytes.get_int64_be
let set_u64_be = Bytes.set_int64_be
let get_u64_le = Bytes.get_int64_le
