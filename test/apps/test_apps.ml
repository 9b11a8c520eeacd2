(* Tests for the userland runtime (ghost heap, wrapper library,
   signal wrappers) and the application suite (OpenSSH programs,
   thttpd, Postmark, LMBench drivers). *)

let config ?(mode = Sva.Virtual_ghost) ?(seed = "apps") () =
  Node_config.(
    default |> with_phys_frames 16384 |> with_disk_sectors 32768
    |> with_seed seed |> with_mode mode)

let boot ?mode ?seed () = Node.kernel (Node.boot (config ?mode ?seed ()))

let expect_ok msg = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" msg (Errno.to_string e)

(* ------------------------------------------------------------------ *)
(* Runtime                                                             *)

let test_launch_and_memory () =
  let k = boot () in
  Runtime.launch k ~ghosting:false (fun ctx ->
      let va = Runtime.ualloc ctx 64 in
      Runtime.poke ctx va (Bytes.of_string "hello user memory");
      Alcotest.(check string) "round trip" "hello user memory"
        (Bytes.to_string (Runtime.peek ctx va 17)))

let test_ghost_heap_placement () =
  let k = boot () in
  Runtime.launch k ~ghosting:true (fun ctx ->
      let va = Runtime.galloc ctx 64 in
      Alcotest.(check bool) "in ghost partition" true (Layout.in_ghost va);
      Runtime.poke ctx va (Bytes.of_string "ghostly");
      Alcotest.(check string) "usable" "ghostly" (Bytes.to_string (Runtime.peek ctx va 7)));
  Runtime.launch k ~ghosting:false (fun ctx ->
      let va = Runtime.galloc ctx 64 in
      Alcotest.(check bool) "traditional heap" false (Layout.in_ghost va))

let test_ghost_heap_grows () =
  let k = boot () in
  Runtime.launch k ~ghosting:true (fun ctx ->
      (* Allocate far beyond the initial growth chunk. *)
      let blocks = List.init 40 (fun _ -> Runtime.galloc ctx 8192) in
      List.iteri
        (fun i va -> Runtime.poke ctx va (Bytes.make 16 (Char.chr (65 + (i mod 26)))))
        blocks;
      List.iteri
        (fun i va ->
          Alcotest.(check char) "chunk intact" (Char.chr (65 + (i mod 26)))
            (Bytes.get (Runtime.peek ctx va 1) 0))
        blocks)

let test_wrapper_ghost_file_io () =
  (* A ghosting app on a VG kernel: reads and writes with ghost
     buffers must work through the bounce buffer. *)
  let k = boot () in
  Runtime.launch k ~ghosting:true (fun ctx ->
      let fd = expect_ok "open" (Runtime.sys_open ctx "/gf" Syscalls.creat_trunc) in
      let src = Runtime.galloc ctx 64 in
      Alcotest.(check bool) "really ghost" true (Layout.in_ghost src);
      Runtime.poke ctx src (Bytes.of_string "secret-but-shareable-data");
      Alcotest.(check int) "write" 25 (expect_ok "write" (Runtime.sys_write ctx ~fd ~src ~len:25));
      ignore (expect_ok "seek" (Syscalls.lseek ctx.Runtime.kernel ctx.Runtime.proc ~fd ~pos:0));
      let dst = Runtime.galloc ctx 64 in
      Alcotest.(check int) "read" 25 (expect_ok "read" (Runtime.sys_read ctx ~fd ~dst ~len:25));
      Alcotest.(check string) "content" "secret-but-shareable-data"
        (Bytes.to_string (Runtime.peek ctx dst 25)))

let test_raw_ghost_pointer_loses_data_under_vg () =
  (* The same operation *without* the wrapper: the kernel writes
     through the masked pointer and the data never arrives.  This is
     why the wrapper library exists. *)
  let k = boot () in
  Runtime.launch k ~ghosting:true (fun ctx ->
      let fd = expect_ok "open" (Runtime.sys_open ctx "/rawg" Syscalls.creat_trunc) in
      let src = Runtime.galloc ctx 64 in
      Runtime.poke ctx src (Bytes.of_string "will-not-arrive!");
      (* Raw syscall, ghost buffer: the kernel reads zeros instead. *)
      ignore (expect_ok "write" (Syscalls.write ctx.Runtime.kernel ctx.Runtime.proc ~fd ~buf:src ~len:16));
      ignore (expect_ok "seek" (Syscalls.lseek ctx.Runtime.kernel ctx.Runtime.proc ~fd ~pos:0));
      let dst = Runtime.ualloc ctx 64 in
      ignore (expect_ok "read" (Syscalls.read ctx.Runtime.kernel ctx.Runtime.proc ~fd ~buf:dst ~len:16));
      Alcotest.(check bool) "data did not cross" true
        (Bytes.to_string (Runtime.peek ctx dst 16) <> "will-not-arrive!"))

let test_signal_wrapper_end_to_end () =
  let k = boot () in
  Runtime.launch k ~ghosting:true (fun ctx ->
      let hits = ref [] in
      ignore (expect_ok "signal" (Runtime.sys_signal ctx ~signum:14 (fun _ arg -> hits := arg :: !hits)));
      ignore (expect_ok "kill" (Runtime.sys_kill ctx ~pid:ctx.Runtime.proc.Proc.pid ~signum:14));
      Runtime.check_signals ctx;
      Alcotest.(check (list int64)) "handler ran with signum" [ 14L ] !hits)

let test_fork_in_child () =
  let k = boot () in
  Runtime.launch k ~ghosting:false (fun ctx ->
      let va = Runtime.ualloc ctx 32 in
      Runtime.poke ctx va (Bytes.of_string "from parent");
      match Syscalls.fork ctx.Runtime.kernel ctx.Runtime.proc with
      | Error e -> Alcotest.failf "fork: %s" (Errno.to_string e)
      | Ok child_proc ->
          let child_view =
            Runtime.in_child ctx child_proc (fun child ->
                (* The child sees the copied memory and can make its own
                   syscalls. *)
                let seen = Bytes.to_string (Runtime.peek child va 11) in
                ignore (Syscalls.getpid child.Runtime.kernel child.Runtime.proc);
                Syscalls.exit_ child.Runtime.kernel child.Runtime.proc 3;
                seen)
          in
          Alcotest.(check string) "child saw parent data" "from parent" child_view;
          let _, status = 
            match Syscalls.wait ctx.Runtime.kernel ctx.Runtime.proc with
            | Ok r -> r
            | Error e -> Alcotest.failf "wait: %s" (Errno.to_string e)
          in
          Alcotest.(check int) "exit status" 3 status)

let test_mmap_wrapper_masks () =
  let k = boot () in
  Runtime.launch k ~ghosting:true (fun ctx ->
      let va = expect_ok "mmap" (Runtime.sys_mmap ctx ~len:8192) in
      Alcotest.(check bool) "not ghost" false (Layout.in_ghost va))

(* ------------------------------------------------------------------ *)
(* OpenSSH suite                                                       *)

let app_key = Bytes.of_string "0123456789abcdef"

let test_keygen_sealed_roundtrip () =
  let k = boot () in
  let ssh, keygen_img, _agent = Ssh_suite.install_images k ~app_key in
  (* ssh-keygen writes a sealed private key... *)
  Runtime.launch k ~image:keygen_img ~ghosting:true (fun ctx ->
      ignore (expect_ok "keygen" (Ssh_suite.keygen ctx ~path:"/id_dsa")));
  (* ...the raw file on disk does not contain the key material... *)
  let ino = (match Diskfs.lookup k.Kernel.fs "/id_dsa" with Ok i -> i | Error _ -> Alcotest.fail "missing") in
  let raw = (match Diskfs.read k.Kernel.fs ~ino ~off:0 ~len:4096 with Ok b -> b | Error _ -> Alcotest.fail "read") in
  Alcotest.(check string) "sealed format" "VGE1" (Bytes.to_string (Bytes.sub raw 0 4));
  (* ...and ssh (same application key) can load it back. *)
  Runtime.launch k ~image:ssh ~ghosting:true (fun ctx ->
      match Ssh_suite.load_private_key ctx ~path:"/id_dsa" with
      | Ok (va, len) ->
          Alcotest.(check int) "64-byte key" 64 len;
          Alcotest.(check bool) "in ghost memory" true (Layout.in_ghost va)
      | Error msg -> Alcotest.failf "load: %s" msg)

let test_keygen_tamper_detected () =
  let k = boot () in
  let ssh, keygen_img, _ = Ssh_suite.install_images k ~app_key in
  Runtime.launch k ~image:keygen_img ~ghosting:true (fun ctx ->
      ignore (expect_ok "keygen" (Ssh_suite.keygen ctx ~path:"/id_t")));
  (* The hostile OS flips a byte of the stored key file. *)
  let ino = (match Diskfs.lookup k.Kernel.fs "/id_t" with Ok i -> i | Error _ -> Alcotest.fail "missing") in
  let raw = (match Diskfs.read k.Kernel.fs ~ino ~off:20 ~len:1 with Ok b -> b | Error _ -> Alcotest.fail "read") in
  Bytes.set raw 0 (Char.chr (Char.code (Bytes.get raw 0) lxor 1));
  ignore (Diskfs.write k.Kernel.fs ~ino ~off:20 raw);
  Runtime.launch k ~image:ssh ~ghosting:true (fun ctx ->
      match Ssh_suite.load_private_key ctx ~path:"/id_t" with
      | Ok _ -> Alcotest.fail "tampering must be detected"
      | Error msg ->
          Alcotest.(check bool) "says tampering" true
            (String.length msg > 0))

let test_keygen_plaintext_on_baseline () =
  (* On the native kernel there is no key chain: the private key hits
     the disk in the clear, where the OS can read it. *)
  let k = boot ~mode:Sva.Native_build () in
  Runtime.launch k ~ghosting:false (fun ctx ->
      ignore (expect_ok "keygen" (Ssh_suite.keygen ctx ~path:"/id_plain")));
  let ino = (match Diskfs.lookup k.Kernel.fs "/id_plain" with Ok i -> i | Error _ -> Alcotest.fail "missing") in
  let raw = (match Diskfs.read k.Kernel.fs ~ino ~off:0 ~len:4 with Ok b -> b | Error _ -> Alcotest.fail "read") in
  Alcotest.(check string) "plaintext format" "PLN1" (Bytes.to_string raw)

let test_agent_serves_requests () =
  let k = boot () in
  let _, _, agent_img = Ssh_suite.install_images k ~app_key in
  Runtime.launch k ~image:agent_img ~ghosting:true (fun ctx ->
      let kk = ctx.Runtime.kernel and proc = ctx.Runtime.proc in
      let req_r, req_w = expect_ok "pipe" (Syscalls.pipe kk proc) in
      let rep_r, rep_w = expect_ok "pipe" (Syscalls.pipe kk proc) in
      let secret = Ssh_suite.agent_store_secret ctx "agent-held-signing-secret" in
      Alcotest.(check bool) "secret in ghost" true (Layout.in_ghost secret);
      (* Client side sends a challenge. *)
      ignore (expect_ok "req" (Runtime.write_string ctx ~fd:req_w "challenge-1"));
      ignore
        (expect_ok "serve"
           (Ssh_suite.agent_serve_once ctx ~request_fd:req_r ~reply_fd:rep_w ~secret
              ~secret_len:25));
      let reply_buf = Runtime.ualloc ctx 64 in
      let n = expect_ok "reply" (Syscalls.read kk proc ~fd:rep_r ~buf:reply_buf ~len:64) in
      Alcotest.(check int) "hmac size" 32 n;
      (* The reply verifies against the known secret. *)
      let expected =
        Vg_crypto.Hmac.mac
          ~key:(Bytes.of_string "agent-held-signing-secret")
          (Bytes.of_string "challenge-1")
      in
      Alcotest.(check bytes) "correct MAC" expected (Runtime.peek ctx reply_buf 32))

let test_agent_protocol () =
  let k = boot () in
  let _, _, agent_img = Ssh_suite.install_images k ~app_key in
  Runtime.launch k ~image:agent_img ~ghosting:true (fun ctx ->
      let kk = ctx.Runtime.kernel and proc = ctx.Runtime.proc in
      let req_r, req_w = expect_ok "pipe" (Syscalls.pipe kk proc) in
      let rep_r, rep_w = expect_ok "pipe" (Syscalls.pipe kk proc) in
      let state = Ssh_suite.Agent.create ctx in
      let roundtrip request =
        (match request with Ok () -> () | Error e -> Alcotest.failf "request: %s" (Errno.to_string e));
        (match Ssh_suite.Agent.serve_one state ~request_fd:req_r ~reply_fd:rep_w with
        | Ok () -> ()
        | Error e -> Alcotest.failf "serve: %s" (Errno.to_string e));
        Ssh_suite.Agent.read_reply ctx ~fd:rep_r
      in
      let key_a = Bytes.of_string "alpha-key-material-0001" in
      let key_b = Bytes.of_string "beta-key-material-00002" in
      (* add two keys *)
      (match roundtrip (Ssh_suite.Agent.request_add ctx ~fd:req_w ~name:"alpha" ~key:key_a) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "add: %s" msg);
      (match roundtrip (Ssh_suite.Agent.request_add ctx ~fd:req_w ~name:"beta" ~key:key_b) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "add: %s" msg);
      (* keys live in ghost memory *)
      (match Ssh_suite.Agent.key_address state "alpha" with
      | Some va -> Alcotest.(check bool) "ghost-resident" true (Layout.in_ghost va)
      | None -> Alcotest.fail "key missing");
      (* list *)
      (match roundtrip (Ssh_suite.Agent.request_list ctx ~fd:req_w) with
      | Ok names -> Alcotest.(check string) "list" "alpha,beta" (Bytes.to_string names)
      | Error msg -> Alcotest.failf "list: %s" msg);
      (* sign verifies against the known key *)
      let challenge = Bytes.of_string "auth-challenge-42" in
      (match roundtrip (Ssh_suite.Agent.request_sign ctx ~fd:req_w ~name:"beta" ~challenge) with
      | Ok signature ->
          Alcotest.(check bytes) "signature" (Vg_crypto.Hmac.mac ~key:key_b challenge) signature
      | Error msg -> Alcotest.failf "sign: %s" msg);
      (* remove, then sign fails *)
      (match roundtrip (Ssh_suite.Agent.request_remove ctx ~fd:req_w ~name:"beta") with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "remove: %s" msg);
      (match roundtrip (Ssh_suite.Agent.request_sign ctx ~fd:req_w ~name:"beta" ~challenge) with
      | Ok _ -> Alcotest.fail "signing with a removed key must fail"
      | Error msg -> Alcotest.(check string) "error" "unknown key" msg))

(* ------------------------------------------------------------------ *)
(* Sealed store (replay-protected files)                               *)

let test_sealed_roundtrip () =
  let k = boot () in
  let _, _, image = Ssh_suite.install_images k ~app_key in
  Runtime.launch k ~image ~ghosting:true (fun ctx ->
      (match Sealed_store.save ctx ~path:"/state" (Bytes.of_string "generation-1") with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save: %s" (Format.asprintf "%a" Sealed_store.pp_error e));
      match Sealed_store.load ctx ~path:"/state" with
      | Ok data -> Alcotest.(check string) "round trip" "generation-1" (Bytes.to_string data)
      | Error e -> Alcotest.failf "load: %s" (Format.asprintf "%a" Sealed_store.pp_error e))

let raw_file k path =
  match Diskfs.lookup k.Kernel.fs path with
  | Error _ -> Alcotest.fail "missing file"
  | Ok ino -> (
      match Diskfs.stat k.Kernel.fs ~ino with
      | Error _ -> Alcotest.fail "stat"
      | Ok st -> (
          match Diskfs.read k.Kernel.fs ~ino ~off:0 ~len:st.Diskfs.size with
          | Ok b -> (ino, b)
          | Error _ -> Alcotest.fail "read"))

let test_sealed_replay_detected () =
  let k = boot () in
  let _, _, image = Ssh_suite.install_images k ~app_key in
  Runtime.launch k ~image ~ghosting:true (fun ctx ->
      (match Sealed_store.save ctx ~path:"/state" (Bytes.of_string "old") with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "save old");
      let ino, old_bytes = raw_file k "/state" in
      (match Sealed_store.save ctx ~path:"/state" (Bytes.of_string "new") with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "save new");
      (* Hostile OS restores the old version. *)
      ignore (Diskfs.truncate k.Kernel.fs ~ino ~len:0);
      ignore (Diskfs.write k.Kernel.fs ~ino ~off:0 old_bytes);
      match Sealed_store.load ctx ~path:"/state" with
      | Error `Stale -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Format.asprintf "%a" Sealed_store.pp_error e)
      | Ok _ -> Alcotest.fail "replay accepted!")

let test_sealed_tamper_detected () =
  let k = boot () in
  let _, _, image = Ssh_suite.install_images k ~app_key in
  Runtime.launch k ~image ~ghosting:true (fun ctx ->
      (match Sealed_store.save ctx ~path:"/state" (Bytes.of_string "payload") with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "save");
      let ino, bytes = raw_file k "/state" in
      Bytes.set bytes 20 (Char.chr (Char.code (Bytes.get bytes 20) lxor 1));
      ignore (Diskfs.write k.Kernel.fs ~ino ~off:0 bytes);
      match Sealed_store.load ctx ~path:"/state" with
      | Error `Tampered -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Format.asprintf "%a" Sealed_store.pp_error e)
      | Ok _ -> Alcotest.fail "tampering accepted!")

let test_sealed_requires_identity () =
  let k = boot () in
  Runtime.launch k ~ghosting:true (fun ctx ->
      match Sealed_store.save ctx ~path:"/state" (Bytes.of_string "x") with
      | Error `No_identity -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Format.asprintf "%a" Sealed_store.pp_error e)
      | Ok () -> Alcotest.fail "unsigned process must have no sealed identity")

let test_sealed_survives_reboot () =
  let node = Node.boot (config ~seed:"sealed-reboot" ()) in
  let k1 = Node.kernel node in
  let _, _, image1 = Ssh_suite.install_images k1 ~app_key in
  Runtime.launch k1 ~image:image1 ~ghosting:true (fun ctx ->
      match Sealed_store.save ctx ~path:"/state" (Bytes.of_string "before reboot") with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "save");
  ignore (Syscalls.fsync k1 (Kernel.init_process k1));
  (* Reboot: same machine (TPM, disk), fresh kernel. *)
  let k2 = Node.kernel (Node.reboot node) in
  let _, _, image2 = Ssh_suite.install_images k2 ~app_key in
  Runtime.launch k2 ~image:image2 ~ghosting:true (fun ctx ->
      match Sealed_store.load ctx ~path:"/state" with
      | Ok data -> Alcotest.(check string) "survives" "before reboot" (Bytes.to_string data)
      | Error e -> Alcotest.failf "load after reboot: %s" (Format.asprintf "%a" Sealed_store.pp_error e))

let test_sealed_cross_app_isolation () =
  let k = boot () in
  let _, _, image_a = Ssh_suite.install_images k ~app_key in
  Runtime.launch k ~image:image_a ~ghosting:true (fun ctx ->
      match Sealed_store.save ctx ~path:"/state" (Bytes.of_string "app A data") with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "save");
  (* A different application (different key) cannot read it. *)
  let other_key = Bytes.of_string "another-16b-key!" in
  let rng = Vg_crypto.Drbg.create ~seed:(Bytes.of_string "other-installer") in
  let image_b =
    Appimage.install
      ~vg_key:(Sva.vg_private_key_for_installer k.Kernel.sva)
      ~rng ~name:"other" ~payload:(Bytes.of_string "other text") ~entry:0x400000L
      ~app_key:other_key ()
  in
  Runtime.launch k ~image:image_b ~ghosting:true (fun ctx ->
      match Sealed_store.load ctx ~path:"/state" with
      | Ok _ -> Alcotest.fail "foreign app read the sealed file!"
      | Error (`Stale | `Tampered) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Format.asprintf "%a" Sealed_store.pp_error e))

(* ------------------------------------------------------------------ *)
(* thttpd                                                              *)

let make_file k path data =
  let ino =
    match Diskfs.create k.Kernel.fs path with
    | Ok i -> i
    | Error _ -> Alcotest.failf "create %s" path
  in
  match Diskfs.write k.Kernel.fs ~ino ~off:0 data with
  | Ok _ -> ()
  | Error _ -> Alcotest.failf "write %s" path

let test_httpd_serves_file () =
  let k = boot () in
  let body = Bytes.init 10000 (fun i -> Char.chr (i mod 251)) in
  make_file k "/page.html" body;
  Runtime.launch k ~ghosting:false (fun ctx ->
      let listen_fd = expect_ok "listen" (Httpd.start ctx ~port:80) in
      match
        Httpd.Client.get k.Kernel.machine ~port:80 ~path:"/page.html" (fun () ->
            ignore (Httpd.serve_requests ctx ~listen_fd ~max:1))
      with
      | Some got -> Alcotest.(check bytes) "body" body got
      | None -> Alcotest.fail "request failed")

let test_httpd_404 () =
  let k = boot () in
  Runtime.launch k ~ghosting:false (fun ctx ->
      let listen_fd = expect_ok "listen" (Httpd.start ctx ~port:80) in
      match
        Httpd.Client.get k.Kernel.machine ~port:80 ~path:"/missing" (fun () ->
            ignore (Httpd.serve_requests ctx ~listen_fd ~max:1))
      with
      | Some _ -> Alcotest.fail "expected failure"
      | None -> ())

(* ------------------------------------------------------------------ *)
(* sshd / ssh transfers                                                *)

let session_key = Bytes.of_string "fedcba9876543210"

let test_sshd_download () =
  let k = boot () in
  let body = Bytes.init 50000 (fun i -> Char.chr ((i * 7) mod 256)) in
  make_file k "/payload" body;
  Runtime.launch k ~ghosting:false (fun ctx ->
      let listen_fd = expect_ok "listen" (Syscalls.listen k (Kernel.current_proc k) ~port:22) in
      (* Remote scp client connects, then the server streams. *)
      let ep = Netstack.Remote.connect k.Kernel.machine ~port:22 in
      (match Ssh_suite.sshd_serve_file ctx ~listen_fd ~path:"/payload" ~session_key with
      | Ok sent -> Alcotest.(check int) "bytes sent" 50000 sent
      | Error msg -> Alcotest.failf "serve: %s" msg);
      (* Skip the session-setup control frames. *)
      for _ = 1 to 45 do
        ignore (Netstack.Remote.recv ep)
      done;
      let cipher = Netstack.Remote.recv_all_available ep in
      Alcotest.(check int) "cipher size" 50000 (Bytes.length cipher);
      let plain =
        Vg_crypto.Chacha20.transform
          ~key:(Vg_crypto.Sha256.digest session_key)
          ~nonce:(Bytes.make 12 '\x03') ~counter:0l cipher
      in
      Alcotest.(check bytes) "client decrypts correctly" body plain)

let test_ghosting_ssh_fetch () =
  let k = boot () in
  Runtime.launch k ~ghosting:true (fun ctx ->
      let fd = expect_ok "connect" (Ssh_suite.fetch_begin ctx ~port:2022) in
      Alcotest.(check bool) "remote saw SYN" true
        (Ssh_suite.remote_file_server k.Kernel.machine ~session_key ~len:20000 ~chunk:1400);
      match Ssh_suite.fetch_complete ctx ~fd ~len:20000 ~session_key with
      | Error msg -> Alcotest.failf "fetch: %s" msg
      | Ok (va, len) ->
          Alcotest.(check bool) "landed in ghost memory" true (Layout.in_ghost va);
          let got = Runtime.peek ctx va len in
          let expected = Bytes.init len (fun i -> Char.chr (i mod 256)) in
          Alcotest.(check bytes) "decrypted payload" expected got)

(* ------------------------------------------------------------------ *)
(* Ghost malloc ([Runtime.galloc], the paper's modified allocator)     *)

let test_malloc_basic () =
  let k = boot () in
  Runtime.launch k ~ghosting:true (fun ctx ->
      let a = Runtime.galloc ctx 100 in
      let b = Runtime.galloc ctx 200 in
      Alcotest.(check bool) "ghost pointers" true (Layout.in_ghost a && Layout.in_ghost b);
      Alcotest.(check bool) "no overlap" true
        (Int64.compare (Int64.add a 100L) b <= 0 || Int64.compare (Int64.add b 200L) a <= 0);
      Runtime.poke ctx a (Bytes.make 100 'A');
      Runtime.poke ctx b (Bytes.make 200 'B');
      Alcotest.(check bytes) "a intact" (Bytes.make 100 'A') (Runtime.peek ctx a 100);
      Alcotest.(check bytes) "b intact" (Bytes.make 200 'B') (Runtime.peek ctx b 200))

(* ------------------------------------------------------------------ *)
(* Ghost swapping                                                      *)

let test_swap_explicit_roundtrip () =
  let k = boot () in
  Runtime.launch k ~ghosting:true (fun ctx ->
      (* Fill 8 ghost pages with distinct patterns. *)
      let base = Runtime.galloc ctx (8 * 4096) in
      for i = 0 to 7 do
        Runtime.poke ctx
          (Int64.add base (Int64.of_int (i * 4096)))
          (Bytes.make 64 (Char.chr (65 + i)))
      done;
      let resident_before = Ghost_swap.resident_ghost_pages ctx.Runtime.proc in
      (* Evict four pages through the VM. *)
      for _ = 1 to 4 do
        match Ghost_swap.swap_out_one k with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "swap out: %s" msg
      done;
      Alcotest.(check int) "four fewer resident" (resident_before - 4)
        (Ghost_swap.resident_ghost_pages ctx.Runtime.proc);
      (* Blobs live in the file system, encrypted. *)
      (match Diskfs.lookup k.Kernel.fs "/swap" with
      | Ok ino ->
          let entries =
            match Diskfs.readdir k.Kernel.fs ~ino with Ok e -> e | Error _ -> []
          in
          Alcotest.(check int) "four blobs" 4 (List.length entries)
      | Error _ -> Alcotest.fail "/swap missing");
      (* Touching the pages faults them back in transparently, data
         intact. *)
      for i = 0 to 7 do
        let got = Runtime.peek ctx (Int64.add base (Int64.of_int (i * 4096))) 64 in
        Alcotest.(check bytes)
          (Printf.sprintf "page %d intact" i)
          (Bytes.make 64 (Char.chr (65 + i)))
          got
      done;
      Alcotest.(check int) "all resident again" resident_before
        (Ghost_swap.resident_ghost_pages ctx.Runtime.proc))

let test_swap_under_memory_pressure () =
  (* A machine whose kernel allocator is tiny: allocating more ghost
     memory than free frames forces evictions through the VM. *)
  let k =
    Node.kernel
      (Node.boot
         Node_config.(
           default |> with_phys_frames 8192 |> with_disk_sectors 32768
           |> with_seed "pressure" |> with_frame_limit 120))
  in
  Runtime.launch k ~ghosting:true (fun ctx ->
      (* ~60 pages of ghost heap on a ~120-frame machine (the runtime
         itself uses a few dozen frames for bounce buffers etc.). *)
      let chunks =
        List.init 15 (fun i ->
            let va = Runtime.galloc ctx (4 * 4096) in
            Runtime.poke ctx va (Bytes.make 32 (Char.chr (97 + (i mod 26))));
            va)
      in
      (* Every chunk is still readable — swapped pages come back. *)
      List.iteri
        (fun i va ->
          Alcotest.(check bytes)
            (Printf.sprintf "chunk %d" i)
            (Bytes.make 32 (Char.chr (97 + (i mod 26))))
            (Runtime.peek ctx va 32))
        chunks)

let test_swap_tampered_blob_kills_access () =
  let k = boot () in
  Runtime.launch k ~ghosting:true (fun ctx ->
      let va = Runtime.galloc ctx 4096 in
      Runtime.poke ctx va (Bytes.of_string "precious ghost bytes");
      (match Ghost_swap.swap_out_one k with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "swap out: %s" msg);
      (* The hostile OS flips a byte in a stored blob. *)
      (match Diskfs.lookup k.Kernel.fs "/swap" with
      | Ok dir -> (
          match Diskfs.readdir k.Kernel.fs ~ino:dir with
          | Ok ((_, ino) :: _) -> (
              match Diskfs.read k.Kernel.fs ~ino ~off:100 ~len:1 with
              | Ok b ->
                  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
                  ignore (Diskfs.write k.Kernel.fs ~ino ~off:100 b)
              | Error _ -> Alcotest.fail "blob read")
          | Ok [] | Error _ -> Alcotest.fail "no blob")
      | Error _ -> Alcotest.fail "/swap missing");
      (* The application's next touch is refused rather than fed
         corrupt data. *)
      Alcotest.(check bool) "access refused" true
        (try
           ignore (Runtime.peek ctx va 16);
           (* If the evicted page wasn't ours, reading may still work;
              ensure at least one page rejects. *)
           Console.contains (Machine.console k.Kernel.machine) "integrity"
         with Runtime.App_crash _ -> true))

(* ------------------------------------------------------------------ *)
(* Postmark                                                            *)

let test_postmark_small_run () =
  let k = boot () in
  Runtime.launch k ~ghosting:false (fun ctx ->
      let config =
        { Postmark.paper_config with base_files = 20; transactions = 200; seed = 7 }
      in
      let stats = expect_ok "postmark" (Postmark.run ctx config) in
      Alcotest.(check bool) "created >= base" true (stats.Postmark.created >= 20);
      Alcotest.(check bool) "did transactions" true
        (stats.Postmark.reads + stats.Postmark.appends + stats.Postmark.created
         + stats.Postmark.deleted
        >= 200);
      (* Everything is deleted at the end. *)
      match Diskfs.lookup k.Kernel.fs "/pm" with
      | Ok ino ->
          let entries =
            match Diskfs.readdir k.Kernel.fs ~ino with Ok e -> e | Error _ -> []
          in
          Alcotest.(check (list string)) "pm dir empty" [] (List.map fst entries)
      | Error _ -> Alcotest.fail "/pm missing")

let test_postmark_deterministic () =
  let run () =
    let k = boot () in
    Runtime.launch k ~ghosting:false (fun ctx ->
        let config =
          { Postmark.paper_config with base_files = 10; transactions = 100; seed = 3 }
        in
        expect_ok "postmark" (Postmark.run ctx config))
  in
  Alcotest.(check bool) "same stats" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* LMBench drivers                                                     *)

let test_lmbench_sanity () =
  let k = boot () in
  Runtime.launch k ~ghosting:false (fun ctx ->
      let checks =
        [
          ("null", Lmbench.null_syscall ctx ~iterations:50);
          ("open/close", Lmbench.open_close ctx ~iterations:50);
          ("mmap", Lmbench.mmap_bench ctx ~iterations:20);
          ("page fault", Lmbench.page_fault ctx ~iterations:20);
          ("sig install", Lmbench.signal_install ctx ~iterations:20);
          ("sig deliver", Lmbench.signal_delivery ctx ~iterations:20);
          ("fork+exit", Lmbench.fork_exit ctx ~iterations:10);
          ("select", Lmbench.select_10 ctx ~iterations:20);
          ("create 1k", Lmbench.file_create ctx ~size:1024 ~iterations:10);
          ("delete 1k", Lmbench.file_delete ctx ~size:1024 ~iterations:10);
        ]
      in
      List.iter
        (fun (name, us) ->
          Alcotest.(check bool) (name ^ " positive") true (us > 0.0 && us < 10000.0))
        checks)

let test_lmbench_vg_slower () =
  let latency mode =
    let k = boot ~mode () in
    Runtime.launch k ~ghosting:false (fun ctx -> Lmbench.null_syscall ctx ~iterations:200)
  in
  let native = latency Sva.Native_build and vg = latency Sva.Virtual_ghost in
  Alcotest.(check bool)
    (Printf.sprintf "vg (%.3f us) slower than native (%.3f us)" vg native)
    true (vg > native)

(* ------------------------------------------------------------------ *)
(* Syscall-flow profiles                                                *)

(* Each application, run once in Record mode to extract its own
   profile, must replay in full under Enforce on a fresh kernel: all
   work done, zero [Security{sfip}] kills.  This is the "unmodified
   applications keep working" half of the SFIP acceptance — the attack
   suite holds the other half. *)

let with_sfip_events k f =
  let recorder = Vg_obs.Obs_recorder.create () in
  let result =
    Vg_obs.Obs.with_sink (Machine.obs k.Kernel.machine)
      (Vg_obs.Obs_recorder.sink recorder)
      f
  in
  ( result,
    Vg_obs.Obs_recorder.count_matching recorder (function
      | Vg_obs.Obs.Event.Security { subsystem = "sfip"; _ } -> true
      | _ -> false) )

let enforced_from recorder =
  Syscall_policy.enforce (Syscall_policy.graph recorder)

let test_sfip_httpd_pool_profiled () =
  let body = Bytes.init 2048 (fun i -> Char.chr (i mod 251)) in
  let serve k sfip =
    Httpd.Pool.run k ?sfip ~workers:2 ~requests:8 ~port:80 ~path:"/index.html"
  in
  let k1 = boot () in
  make_file k1 "/index.html" body;
  let recorder = Syscall_policy.record () in
  ignore (serve k1 (Some recorder));
  let k2 = boot () in
  make_file k2 "/index.html" body;
  let stats, kills = with_sfip_events k2 (fun () -> serve k2 (Some (enforced_from recorder))) in
  Alcotest.(check int) "all requests 200" 8 stats.Httpd.Pool.ok;
  Alcotest.(check int) "no sfip kills" 0 kills

let test_sfip_httpd_event_loop_profiled () =
  let body = Bytes.init 2048 (fun i -> Char.chr (i mod 251)) in
  let serve k sfip =
    Httpd.Event_loop.run k ?sfip ~batch:4 ~requests:8 ~port:80 ~path:"/index.html"
  in
  let k1 = boot () in
  make_file k1 "/index.html" body;
  let recorder = Syscall_policy.record () in
  ignore (serve k1 (Some recorder));
  let k2 = boot () in
  make_file k2 "/index.html" body;
  let stats, kills = with_sfip_events k2 (fun () -> serve k2 (Some (enforced_from recorder))) in
  Alcotest.(check int) "all requests 200" 8 stats.Httpd.Event_loop.ok;
  Alcotest.(check int) "no sfip kills" 0 kills

let test_sfip_postmark_profiled () =
  let config =
    { Postmark.paper_config with base_files = 10; transactions = 100; seed = 7 }
  in
  let run k sfip =
    let out = ref None in
    Runtime.launch k ?sfip ~ghosting:false (fun ctx ->
        out := Some (expect_ok "postmark" (Postmark.run ctx config)));
    Option.get !out
  in
  let k1 = boot () in
  let recorder = Syscall_policy.record () in
  ignore (run k1 (Some recorder));
  let k2 = boot () in
  let stats, kills = with_sfip_events k2 (fun () -> run k2 (Some (enforced_from recorder))) in
  Alcotest.(check bool) "full run" true (stats.Postmark.created >= 10);
  Alcotest.(check int) "no sfip kills" 0 kills

let test_sfip_ssh_profiled () =
  let phases k sfip_keygen sfip_ssh =
    let ssh, keygen_img, _ = Ssh_suite.install_images k ~app_key in
    Runtime.launch k ~image:keygen_img ?sfip:sfip_keygen ~ghosting:true (fun ctx ->
        ignore (expect_ok "keygen" (Ssh_suite.keygen ctx ~path:"/id")));
    Runtime.launch k ~image:ssh ?sfip:sfip_ssh ~ghosting:true (fun ctx ->
        match Ssh_suite.load_private_key ctx ~path:"/id" with
        | Ok (_, len) -> Alcotest.(check int) "64-byte key" 64 len
        | Error msg -> Alcotest.failf "load: %s" msg)
  in
  let k1 = boot () in
  let rec_keygen = Syscall_policy.record () in
  let rec_ssh = Syscall_policy.record () in
  phases k1 (Some rec_keygen) (Some rec_ssh);
  let k2 = boot () in
  let (), kills =
    with_sfip_events k2 (fun () ->
        phases k2 (Some (enforced_from rec_keygen)) (Some (enforced_from rec_ssh)))
  in
  Alcotest.(check int) "no sfip kills" 0 kills

let () =
  Alcotest.run "vg_apps"
    [
      ( "runtime",
        [
          Alcotest.test_case "launch + memory" `Quick test_launch_and_memory;
          Alcotest.test_case "ghost heap placement" `Quick test_ghost_heap_placement;
          Alcotest.test_case "ghost heap grows" `Quick test_ghost_heap_grows;
          Alcotest.test_case "wrapper ghost file io" `Quick test_wrapper_ghost_file_io;
          Alcotest.test_case "raw ghost pointer loses data" `Quick
            test_raw_ghost_pointer_loses_data_under_vg;
          Alcotest.test_case "signal wrapper" `Quick test_signal_wrapper_end_to_end;
          Alcotest.test_case "mmap wrapper masks" `Quick test_mmap_wrapper_masks;
          Alcotest.test_case "fork + in_child" `Quick test_fork_in_child;
        ] );
      ( "openssh",
        [
          Alcotest.test_case "keygen sealed round-trip" `Slow test_keygen_sealed_roundtrip;
          Alcotest.test_case "keygen tamper detected" `Slow test_keygen_tamper_detected;
          Alcotest.test_case "plaintext on baseline" `Quick test_keygen_plaintext_on_baseline;
          Alcotest.test_case "agent serves requests" `Slow test_agent_serves_requests;
          Alcotest.test_case "agent protocol" `Slow test_agent_protocol;
        ] );
      ( "sealed-store",
        [
          Alcotest.test_case "round trip" `Slow test_sealed_roundtrip;
          Alcotest.test_case "replay detected" `Slow test_sealed_replay_detected;
          Alcotest.test_case "tamper detected" `Slow test_sealed_tamper_detected;
          Alcotest.test_case "requires identity" `Quick test_sealed_requires_identity;
          Alcotest.test_case "survives reboot" `Slow test_sealed_survives_reboot;
          Alcotest.test_case "cross-app isolation" `Slow test_sealed_cross_app_isolation;
        ] );
      ( "httpd",
        [
          Alcotest.test_case "serves file" `Quick test_httpd_serves_file;
          Alcotest.test_case "404" `Quick test_httpd_404;
        ] );
      ( "ssh-transfer",
        [
          Alcotest.test_case "sshd download" `Quick test_sshd_download;
          Alcotest.test_case "ghosting ssh fetch" `Quick test_ghosting_ssh_fetch;
        ] );
      ("ghost-malloc", [ Alcotest.test_case "basic" `Quick test_malloc_basic ]);
      ( "swapping",
        [
          Alcotest.test_case "explicit round-trip" `Quick test_swap_explicit_roundtrip;
          Alcotest.test_case "under memory pressure" `Quick test_swap_under_memory_pressure;
          Alcotest.test_case "tampered blob refused" `Quick
            test_swap_tampered_blob_kills_access;
        ] );
      ( "postmark",
        [
          Alcotest.test_case "small run" `Quick test_postmark_small_run;
          Alcotest.test_case "deterministic" `Quick test_postmark_deterministic;
        ] );
      ( "lmbench",
        [
          Alcotest.test_case "sanity" `Quick test_lmbench_sanity;
          Alcotest.test_case "vg slower" `Quick test_lmbench_vg_slower;
        ] );
      ( "sfip-profiles",
        [
          Alcotest.test_case "httpd pool replays clean" `Slow
            test_sfip_httpd_pool_profiled;
          Alcotest.test_case "httpd event loop replays clean" `Slow
            test_sfip_httpd_event_loop_profiled;
          Alcotest.test_case "postmark replays clean" `Slow test_sfip_postmark_profiled;
          Alcotest.test_case "ssh suite replays clean" `Slow test_sfip_ssh_profiled;
        ] );
    ]
