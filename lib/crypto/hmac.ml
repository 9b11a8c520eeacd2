let block_size = 64

let normalize_key key =
  let key = if Bytes.length key > block_size then Sha256.digest key else key in
  let padded = Bytes.make block_size '\000' in
  Bytes.blit key 0 padded 0 (Bytes.length key);
  padded

let mac_parts ~key parts =
  let key = normalize_key key in
  let ipad = Bytes.make block_size '\x36' and opad = Bytes.make block_size '\x5c' in
  Bytes_util.xor_into ~src:key ~dst:ipad;
  Bytes_util.xor_into ~src:key ~dst:opad;
  let inner = Sha256.init () in
  Sha256.update inner ipad;
  List.iter (fun (b, pos, len) -> Sha256.update_sub inner b ~pos ~len) parts;
  let inner_digest = Sha256.finalize inner in
  let outer = Sha256.init () in
  Sha256.update outer opad;
  Sha256.update outer inner_digest;
  Sha256.finalize outer

let mac ~key msg = mac_parts ~key [ (msg, 0, Bytes.length msg) ]
let verify ~key ~tag msg = Constant_time.equal tag (mac ~key msg)
