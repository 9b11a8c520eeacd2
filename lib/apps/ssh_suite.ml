let install_images k ~app_key =
  let vg_key = Sva.vg_private_key_for_installer k.Kernel.sva in
  let rng = k.Kernel.installer_rng in
  let image name =
    Appimage.install ~vg_key ~rng ~name
      ~payload:(Bytes.of_string ("text segment of " ^ name))
      ~entry:0x400000L ~app_key ()
  in
  (image "ssh", image "ssh-keygen", image "ssh-agent")

(* User-level cryptographic work costs cycles on the simulated CPU,
   identically in both builds. *)
let charge_crypto ctx n = Machine.charge ctx.Runtime.kernel.Kernel.machine n

(* Stage a byte string in the application heap. *)
let stage ctx data =
  let va = Runtime.galloc ctx (max 8 (Bytes.length data)) in
  Runtime.poke ctx va data;
  va

let write_file ctx path data =
  match Runtime.sys_open ctx path Syscalls.creat_trunc with
  | Error _ as e -> (match e with Error err -> Error err | Ok _ -> assert false)
  | Ok fd ->
      let va = stage ctx data in
      let r = Runtime.sys_write ctx ~fd ~src:va ~len:(Bytes.length data) in
      ignore (Runtime.sys_close ctx fd);
      (match r with
      | Ok n when n = Bytes.length data -> Ok ()
      | Ok _ -> Error Errno.ENOSPC
      | Error err -> Error err)

let read_file ctx path ~max =
  match Runtime.sys_open ctx path Syscalls.rdonly with
  | Error err -> Error err
  | Ok fd ->
      let va = Runtime.galloc ctx max in
      let r = Runtime.sys_read ctx ~fd ~dst:va ~len:max in
      ignore (Runtime.sys_close ctx fd);
      (match r with Ok n -> Ok (Runtime.peek ctx va n) | Error err -> Error err)

(* ------------------------------------------------------------------ *)
(* ssh-keygen                                                          *)

let sealed_magic = "VGE1"
let plain_magic = "PLN1"

let keygen ctx ~path =
  (* Key material from the VM's trusted entropy (sva.random), immune to
     Iago attacks through /dev/random. *)
  let private_key = Runtime.vg_random ctx 64 in
  let public_key = Vg_crypto.Sha256.digest private_key in
  charge_crypto ctx (64 * Cost.sha_per_byte);
  let file_content =
    match Runtime.get_app_key ctx with
    | Some app_key ->
        let nonce = Runtime.vg_random ctx 8 in
        charge_crypto ctx (64 * Cost.aes_per_byte);
        Bytes.concat Bytes.empty
          [
            Bytes.of_string sealed_magic;
            nonce;
            Vg_crypto.Ctr.seal ~key:app_key ~nonce private_key;
          ]
    | None ->
        (* Baseline system: no key chain, the private key is stored in
           the clear — which is what the OS can steal. *)
        Bytes.cat (Bytes.of_string plain_magic) private_key
  in
  match write_file ctx path file_content with
  | Error err -> Error err
  | Ok () ->
      write_file ctx (path ^ ".pub")
        (Bytes.of_string (Vg_crypto.Bytes_util.to_hex public_key))

let load_private_key ctx ~path =
  match read_file ctx path ~max:4096 with
  | Error err -> Error ("read: " ^ Errno.to_string err)
  | Ok raw ->
      if Bytes.length raw < 4 then Error "key file too short"
      else begin
        let magic = Bytes.to_string (Bytes.sub raw 0 4) in
        if magic = plain_magic then begin
          let key = Bytes.sub raw 4 (Bytes.length raw - 4) in
          Ok (stage ctx key, Bytes.length key)
        end
        else if magic = sealed_magic then begin
          match Runtime.get_app_key ctx with
          | None -> Error "sealed key but no application key available"
          | Some app_key -> (
              let nonce = Bytes.sub raw 4 8 in
              let sealed = Bytes.sub raw 12 (Bytes.length raw - 12) in
              charge_crypto ctx (Bytes.length sealed * Cost.aes_per_byte);
              match Vg_crypto.Ctr.open_ ~key:app_key ~nonce sealed with
              | None -> Error "authentication key corrupt (OS tampering detected)"
              | Some key -> Ok (stage ctx key, Bytes.length key))
        end
        else Error "unrecognised key file format"
      end

(* ------------------------------------------------------------------ *)
(* ssh client bulk transfer (Figure 4)                                 *)

let stream_nonce = Bytes.make 8 '\x17'

let fetch_begin ctx ~port = Syscalls.connect ctx.Runtime.kernel ctx.Runtime.proc ~port

let fetch_complete ctx ~fd ~len ~session_key =
  let va = Runtime.galloc ctx len in
  let received = ref 0 in
  let stalled = ref 0 in
  while !received < len && !stalled < 1000 do
    match
      Runtime.sys_read ctx ~fd ~dst:(Int64.add va (Int64.of_int !received))
        ~len:(len - !received)
    with
    | Ok 0 -> stalled := 1000
    | Ok n ->
        received := !received + n;
        stalled := 0
    | Error Errno.EAGAIN -> incr stalled
    | Error _ -> stalled := 1000
  done;
  if !received < len then
    Error (Printf.sprintf "short transfer: %d of %d bytes" !received len)
  else begin
    (* Decrypt the stream in place. *)
    let cipher = Runtime.peek ctx va len in
    charge_crypto ctx (len * Cost.aes_per_byte);
    let plain =
      Vg_crypto.Ctr.transform
        ~key:(Vg_crypto.Aes128.expand session_key)
        ~nonce:stream_nonce cipher
    in
    Runtime.poke ctx va plain;
    Ok (va, len)
  end

let remote_file_server machine ~session_key ~len ~chunk =
  match Netstack.Remote.accept machine with
  | None -> false
  | Some ep ->
      let plain = Bytes.init len (fun i -> Char.chr (i mod 256)) in
      let cipher =
        Vg_crypto.Ctr.transform
          ~key:(Vg_crypto.Aes128.expand session_key)
          ~nonce:stream_nonce plain
      in
      let sent = ref 0 in
      while !sent < len do
        let n = min chunk (len - !sent) in
        Netstack.Remote.send ep (Bytes.sub cipher !sent n);
        sent := !sent + n
      done;
      Netstack.Remote.close ep;
      true

(* ------------------------------------------------------------------ *)
(* sshd file download (Figure 3)                                       *)

let sshd_serve_file ctx ~listen_fd ~path ~session_key =
  let k = ctx.Runtime.kernel and proc = ctx.Runtime.proc in
  let rec try_accept tries =
    match Syscalls.accept k proc ~fd:listen_fd with
    | Ok fd -> Ok fd
    | Error Errno.EAGAIN when tries > 0 -> try_accept (tries - 1)
    | Error err -> Error err
  in
  match try_accept 100 with
  | Error err -> Error ("accept: " ^ Errno.to_string err)
  | Ok conn_fd -> (
      (* Session setup: version banner, key exchange, channel open —
         a burst of small control messages (syscall-heavy, which is
         what makes small transfers expensive under Virtual Ghost). *)
      let ctl = Runtime.galloc ctx 64 in
      Runtime.poke ctx ctl (Bytes.make 48 '\x2a');
      for _ = 1 to 45 do
        ignore (Runtime.sys_write ctx ~fd:conn_fd ~src:ctl ~len:48)
      done;
      match Runtime.sys_open ctx path Syscalls.rdonly with
      | Error err -> Error ("open: " ^ Errno.to_string err)
      | Ok file_fd ->
          let chunk_len = 32768 in
          let buf = Runtime.galloc ctx chunk_len in
          ignore (Vg_crypto.Aes128.expand session_key);
          let total = ref 0 in
          let eof = ref false in
          let failed = ref None in
          while (not !eof) && !failed = None do
            match Runtime.sys_read ctx ~fd:file_fd ~dst:buf ~len:chunk_len with
            | Ok 0 -> eof := true
            | Ok n ->
                let plain = Runtime.peek ctx buf n in
                charge_crypto ctx (n * Cost.aes_per_byte);
                (* Stream cipher position follows the running total so
                   the whole file is one CTR stream.  For simplicity
                   chunks are block-aligned except the last. *)
                let cipher =
                  Vg_crypto.Chacha20.transform
                    ~key:(Vg_crypto.Sha256.digest session_key)
                    ~nonce:(Bytes.make 12 '\x03')
                    ~counter:(Int32.of_int (!total / 64))
                    plain
                in
                Runtime.poke ctx buf cipher;
                (match Runtime.sys_write ctx ~fd:conn_fd ~src:buf ~len:n with
                | Ok _ -> total := !total + n
                | Error err -> failed := Some (Errno.to_string err))
            | Error err -> failed := Some (Errno.to_string err)
          done;
          ignore (Runtime.sys_close ctx file_fd);
          ignore (Runtime.sys_close ctx conn_fd);
          (match !failed with
          | Some msg -> Error msg
          | None -> Ok !total))

(* ------------------------------------------------------------------ *)
(* ssh-agent                                                           *)

module Agent = struct
  type state = {
    ctx : Runtime.ctx;
    keys : (string, int64 * int) Hashtbl.t; (* name -> heap address, length *)
  }

  let create ctx = { ctx; keys = Hashtbl.create 8 }

  let key_address state name =
    Option.map fst (Hashtbl.find_opt state.keys name)

  (* Framing: type(1) len(4, little-endian) payload. *)
  let ty_add = 1
  let ty_list = 2
  let ty_sign = 3
  let ty_remove = 4
  let ty_ok = 10
  let ty_fail = 11

  let send_frame ctx ~fd ~ty payload =
    let frame = Bytes.create (5 + Bytes.length payload) in
    Bytes.set frame 0 (Char.chr ty);
    Bytes.set_int32_le frame 1 (Int32.of_int (Bytes.length payload));
    Bytes.blit payload 0 frame 5 (Bytes.length payload);
    let va = stage ctx frame in
    match Runtime.sys_write ctx ~fd ~src:va ~len:(Bytes.length frame) with
    | Ok n when n = Bytes.length frame -> Ok ()
    | Ok _ -> Error Errno.EPIPE
    | Error e -> Error e

  (* Cooperative pipes never block mid-frame: a frame is written in one
     syscall and is thus readable in full. *)
  let read_exact ctx ~fd ~len =
    let va = Runtime.galloc ctx (max 8 len) in
    match Runtime.sys_read ctx ~fd ~dst:va ~len with
    | Ok n when n = len -> Ok (Runtime.peek ctx va len)
    | Ok _ -> Error Errno.EPIPE
    | Error e -> Error e

  let read_frame ctx ~fd =
    match read_exact ctx ~fd ~len:5 with
    | Error e -> Error e
    | Ok header ->
        let ty = Char.code (Bytes.get header 0) in
        let len = Int32.to_int (Bytes.get_int32_le header 1) in
        if len = 0 then Ok (ty, Bytes.empty)
        else begin
          match read_exact ctx ~fd ~len with
          | Ok payload -> Ok (ty, payload)
          | Error e -> Error e
        end

  (* name\x00rest *)
  let split_name payload =
    let s = Bytes.to_string payload in
    match String.index_opt s '\000' with
    | None -> (s, Bytes.empty)
    | Some i ->
        (String.sub s 0 i, Bytes.sub payload (i + 1) (Bytes.length payload - i - 1))

  let serve_one state ~request_fd ~reply_fd =
    let ctx = state.ctx in
    match read_frame ctx ~fd:request_fd with
    | Error e -> Error e
    | Ok (ty, payload) ->
        let reply ~ty payload = send_frame ctx ~fd:reply_fd ~ty payload in
        if ty = ty_add then begin
          let name, key = split_name payload in
          (* The key material goes straight into the (ghost) heap. *)
          let va = Runtime.galloc ctx (Bytes.length key) in
          Runtime.poke ctx va key;
          Hashtbl.replace state.keys name (va, Bytes.length key);
          reply ~ty:ty_ok Bytes.empty
        end
        else if ty = ty_list then begin
          let names = Hashtbl.fold (fun n _ acc -> n :: acc) state.keys [] in
          reply ~ty:ty_ok (Bytes.of_string (String.concat "," (List.sort compare names)))
        end
        else if ty = ty_sign then begin
          let name, challenge = split_name payload in
          match Hashtbl.find_opt state.keys name with
          | None -> reply ~ty:ty_fail (Bytes.of_string "unknown key")
          | Some (va, len) ->
              let key = Runtime.peek ctx va len in
              charge_crypto ctx ((len + Bytes.length challenge) * Cost.sha_per_byte);
              reply ~ty:ty_ok (Vg_crypto.Hmac.mac ~key challenge)
        end
        else if ty = ty_remove then begin
          let name, _ = split_name payload in
          if Hashtbl.mem state.keys name then begin
            (* Scrub the key material before dropping the reference. *)
            (match Hashtbl.find_opt state.keys name with
            | Some (va, len) -> Runtime.poke ctx va (Bytes.make len '\000')
            | None -> ());
            Hashtbl.remove state.keys name;
            reply ~ty:ty_ok Bytes.empty
          end
          else reply ~ty:ty_fail (Bytes.of_string "unknown key")
        end
        else reply ~ty:ty_fail (Bytes.of_string "bad request")

  let with_name name rest = Bytes.cat (Bytes.of_string (name ^ "\000")) rest

  let request_add ctx ~fd ~name ~key = send_frame ctx ~fd ~ty:ty_add (with_name name key)
  let request_list ctx ~fd = send_frame ctx ~fd ~ty:ty_list Bytes.empty

  let request_sign ctx ~fd ~name ~challenge =
    send_frame ctx ~fd ~ty:ty_sign (with_name name challenge)

  let request_remove ctx ~fd ~name = send_frame ctx ~fd ~ty:ty_remove (with_name name Bytes.empty)

  let read_reply ctx ~fd =
    match read_frame ctx ~fd with
    | Error e -> Error ("reply: " ^ Errno.to_string e)
    | Ok (ty, payload) ->
        if ty = ty_ok then Ok payload
        else Error (Bytes.to_string payload)
end

let agent_store_secret ctx secret =
  let va = Runtime.galloc ctx (String.length secret) in
  Runtime.poke ctx va (Bytes.of_string secret);
  va

let agent_serve_once ctx ~request_fd ~reply_fd ~secret ~secret_len =
  let buf = Runtime.galloc ctx 256 in
  match Runtime.sys_read ctx ~fd:request_fd ~dst:buf ~len:256 with
  | Error err -> Error err
  | Ok n ->
      let request = Runtime.peek ctx buf n in
      let key = Runtime.peek ctx secret secret_len in
      charge_crypto ctx ((n + secret_len) * Cost.sha_per_byte);
      let answer = Vg_crypto.Hmac.mac ~key request in
      let out = stage ctx answer in
      (match Runtime.sys_write ctx ~fd:reply_fd ~src:out ~len:(Bytes.length answer) with
      | Ok _ -> Ok ()
      | Error err -> Error err)
