let compare = Int64.unsigned_compare
let lt a b = compare a b < 0
let le a b = compare a b <= 0
let ge a b = compare a b >= 0
let gt a b = compare a b > 0
let in_range a ~lo ~hi = ge a lo && lt a hi
let min a b = if le a b then a else b
let max a b = if ge a b then a else b
let div = Int64.unsigned_div
let rem = Int64.unsigned_rem
let to_hex a = Printf.sprintf "0x%016Lx" a
let of_int = Int64.of_int
let add = Int64.add
let sub = Int64.sub
let logand = Int64.logand
let logor = Int64.logor

