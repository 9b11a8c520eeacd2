type env = {
  load : Bytes.t -> Ir.width -> unit;
  store : Bytes.t -> Ir.width -> unit;
  memcpy : dst:int64 -> src:int64 -> len:int64 -> unit;
  io_read : int64 -> int64;
  io_write : int64 -> int64 -> unit;
  extern : string -> int64 array -> int64;
  call_foreign : int64 -> int64 array -> int64;
  charge : Obs.Tag.t -> int -> unit;
  observed : unit -> bool;
  tamper_return : (int64 -> int64) option;
  spec_depth : int;
  spec_load : int64 -> Ir.width -> int64 option;
  spec_window : unit -> unit;
}

exception Cfi_violation of string
exception Exec_trap of string

let cell_bytes = 16
let address = 0
let value = 8

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let null_env =
  let scratch = Bytes.make 4096 '\000' in
  let offset addr =
    let i = Int64.to_int (Int64.logand addr 0xfffL) in
    i
  in
  {
    load =
      (fun cell width ->
        let i = offset (get cell address) in
        set cell value
          (match width with
          | Ir.W8 -> Int64.of_int (Char.code (Bytes.get scratch i))
          | Ir.W16 -> Int64.of_int (Bytes.get_uint16_le scratch i)
          | Ir.W32 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le scratch i)) 0xffffffffL
          | Ir.W64 -> Bytes.get_int64_le scratch i));
    store =
      (fun cell width ->
        let i = offset (get cell address) and v = get cell value in
        match width with
        | Ir.W8 -> Bytes.set scratch i (Char.chr (Int64.to_int (Int64.logand v 0xffL)))
        | Ir.W16 -> Bytes.set_uint16_le scratch i (Int64.to_int (Int64.logand v 0xffffL))
        | Ir.W32 -> Bytes.set_int32_le scratch i (Int64.to_int32 v)
        | Ir.W64 -> Bytes.set_int64_le scratch i v);
    memcpy = (fun ~dst:_ ~src:_ ~len:_ -> raise (Exec_trap "null_env: memcpy"));
    io_read = (fun _ -> raise (Exec_trap "null_env: io_read"));
    io_write = (fun _ _ -> raise (Exec_trap "null_env: io_write"));
    extern = (fun name _ -> raise (Exec_trap ("null_env: extern " ^ name)));
    call_foreign = (fun _ _ -> raise (Exec_trap "null_env: foreign call"));
    charge = (fun _ _ -> ());
    observed = (fun () -> false);
    tamper_return = None;
    spec_depth = 0;
    spec_load = (fun _ _ -> None);
    spec_window = (fun () -> ());
  }
