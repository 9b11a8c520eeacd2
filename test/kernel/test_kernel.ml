(* Kernel tests: boot, the file system (direct and through syscalls),
   descriptors, pipes, fork/exec/wait, mmap, ghost memory syscalls and
   the central enforcement property, signals, sockets, select, and
   loadable-module overrides. *)

let kconfig ?(mode = Sva.Virtual_ghost) () =
  Node_config.(
    default |> with_phys_frames 8192 |> with_disk_sectors 16384
    |> with_seed "ktest" |> with_mode mode)

let boot ?mode () = Node.kernel (Node.boot (kconfig ?mode ()))

let init k = Kernel.init_process k

let expect_ok msg = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" msg (Errno.to_string e)

let expect_err expected msg = function
  | Ok _ -> Alcotest.failf "%s: expected %s" msg (Errno.to_string expected)
  | Error e ->
      Alcotest.(check string) msg (Errno.to_string expected) (Errno.to_string e)

(* Write data into a process's user memory the way the application
   would: at user privilege through its own page table. *)
let user_buf = 0x0000_0000_0060_0000L

let rec user_write k (proc : Proc.t) va data =
  ignore (expect_ok "map user range" (Kernel.ensure_user_range k proc va ~len:(Bytes.length data)));
  Kernel.switch_to k proc;
  Machine.set_privilege k.Kernel.machine Machine.User;
  (try Machine.write_bytes_virt k.Kernel.machine va data
   with Machine.Page_fault { va = fault_va; _ } ->
     (* e.g. a copy-on-write page after fork: fault in, retry. *)
     Machine.set_privilege k.Kernel.machine Machine.Kernel;
     ignore (expect_ok "cow fault" (Kernel.handle_page_fault k proc fault_va));
     user_write k proc va data);
  Machine.set_privilege k.Kernel.machine Machine.Kernel

let user_read k (proc : Proc.t) va len =
  ignore (expect_ok "map user range" (Kernel.ensure_user_range k proc va ~len));
  Kernel.switch_to k proc;
  Machine.set_privilege k.Kernel.machine Machine.User;
  let b = Machine.read_bytes_virt k.Kernel.machine va ~len in
  Machine.set_privilege k.Kernel.machine Machine.Kernel;
  b

(* ------------------------------------------------------------------ *)
(* Boot                                                                *)

let test_boot () =
  let k = boot () in
  Alcotest.(check bool) "init exists" true (Kernel.find_proc k 1 <> None);
  Alcotest.(check int) "current" 1 (Kernel.current_proc k).Proc.pid

let test_fs_persists_across_reboot () =
  let node = Node.boot (kconfig () |> Node_config.with_seed "persist") in
  let k1 = Node.kernel node in
  let p = init k1 in
  let fd = expect_ok "open" (Syscalls.open_ k1 p "/boot.txt" Syscalls.creat_trunc) in
  user_write k1 p user_buf (Bytes.of_string "survives");
  ignore (expect_ok "write" (Syscalls.write k1 p ~fd ~buf:user_buf ~len:8));
  ignore (expect_ok "close" (Syscalls.close k1 p fd));
  ignore (expect_ok "fsync" (Syscalls.fsync k1 p));
  (* Second boot on the same machine must mount, not reformat. *)
  let k2 = Node.kernel (Node.reboot node) in
  let p2 = init k2 in
  let fd2 = expect_ok "reopen" (Syscalls.open_ k2 p2 "/boot.txt" Syscalls.rdonly) in
  ignore (expect_ok "read" (Syscalls.read k2 p2 ~fd:fd2 ~buf:user_buf ~len:8));
  Alcotest.(check string) "content" "survives"
    (Bytes.to_string (user_read k2 p2 user_buf 8))

(* ------------------------------------------------------------------ *)
(* Diskfs (direct)                                                     *)

let test_fs_create_read_write () =
  let k = boot () in
  let ino = expect_ok "create" (Diskfs.create k.Kernel.fs "/a.txt") in
  let data = Bytes.of_string "hello filesystem" in
  Alcotest.(check int) "write" (Bytes.length data)
    (expect_ok "write" (Diskfs.write k.Kernel.fs ~ino ~off:0 data));
  Alcotest.(check string) "read back" "hello filesystem"
    (Bytes.to_string (expect_ok "read" (Diskfs.read k.Kernel.fs ~ino ~off:0 ~len:100)));
  Alcotest.(check string) "offset read" "filesystem"
    (Bytes.to_string (expect_ok "read" (Diskfs.read k.Kernel.fs ~ino ~off:6 ~len:10)))

let test_fs_large_file_indirect () =
  let k = boot () in
  let ino = expect_ok "create" (Diskfs.create k.Kernel.fs "/big") in
  (* 200 KiB crosses from direct (48 KiB) well into the indirect block. *)
  let chunk = Bytes.init 4096 (fun i -> Char.chr (i mod 251)) in
  for b = 0 to 49 do
    Alcotest.(check int) "chunk write" 4096
      (expect_ok "write" (Diskfs.write k.Kernel.fs ~ino ~off:(b * 4096) chunk))
  done;
  let st = expect_ok "stat" (Diskfs.stat k.Kernel.fs ~ino) in
  Alcotest.(check int) "size" (50 * 4096) st.Diskfs.size;
  let back = expect_ok "read" (Diskfs.read k.Kernel.fs ~ino ~off:(37 * 4096) ~len:4096) in
  Alcotest.(check bytes) "indirect content" chunk back

let test_fs_unlink_frees_space () =
  let k = boot () in
  (* Force the root directory's data block to exist first, so the
     baseline excludes it (directories keep their blocks). *)
  ignore (expect_ok "warm" (Diskfs.create k.Kernel.fs "/warmup"));
  let before = Diskfs.free_blocks k.Kernel.fs in
  let ino = expect_ok "create" (Diskfs.create k.Kernel.fs "/tmp1") in
  ignore (expect_ok "write" (Diskfs.write k.Kernel.fs ~ino ~off:0 (Bytes.make 40960 'x')));
  Alcotest.(check bool) "blocks consumed" true (Diskfs.free_blocks k.Kernel.fs < before);
  ignore (expect_ok "unlink" (Diskfs.unlink k.Kernel.fs "/tmp1"));
  Alcotest.(check int) "blocks restored" before (Diskfs.free_blocks k.Kernel.fs);
  expect_err Errno.ENOENT "gone" (Diskfs.lookup k.Kernel.fs "/tmp1")

let test_fs_directories () =
  let k = boot () in
  ignore (expect_ok "mkdir" (Diskfs.mkdir k.Kernel.fs "/sub"));
  ignore (expect_ok "nested" (Diskfs.mkdir k.Kernel.fs "/sub/deep"));
  ignore (expect_ok "create" (Diskfs.create k.Kernel.fs "/sub/deep/f"));
  let ino = expect_ok "lookup" (Diskfs.lookup k.Kernel.fs "/sub/deep/f") in
  let st = expect_ok "stat" (Diskfs.stat k.Kernel.fs ~ino) in
  Alcotest.(check bool) "regular" true (st.Diskfs.itype = Diskfs.Reg);
  let dir = expect_ok "lookup dir" (Diskfs.lookup k.Kernel.fs "/sub/deep") in
  let entries = expect_ok "readdir" (Diskfs.readdir k.Kernel.fs ~ino:dir) in
  Alcotest.(check (list string)) "entries" [ "f" ] (List.map fst entries);
  expect_err Errno.ENOTEMPTY "rmdir non-empty" (Diskfs.rmdir k.Kernel.fs "/sub");
  ignore (expect_ok "unlink" (Diskfs.unlink k.Kernel.fs "/sub/deep/f"));
  ignore (expect_ok "rmdir deep" (Diskfs.rmdir k.Kernel.fs "/sub/deep"));
  ignore (expect_ok "rmdir sub" (Diskfs.rmdir k.Kernel.fs "/sub"))

let test_fs_errors () =
  let k = boot () in
  expect_err Errno.ENOENT "missing" (Diskfs.lookup k.Kernel.fs "/nope");
  ignore (expect_ok "create" (Diskfs.create k.Kernel.fs "/dup"));
  expect_err Errno.EEXIST "duplicate" (Diskfs.create k.Kernel.fs "/dup");
  expect_err Errno.EINVAL "relative path" (Diskfs.lookup k.Kernel.fs "dup");
  ignore (expect_ok "mkdir" (Diskfs.mkdir k.Kernel.fs "/adir"));
  expect_err Errno.EISDIR "unlink dir" (Diskfs.unlink k.Kernel.fs "/adir");
  expect_err Errno.EINVAL "unlink root" (Diskfs.unlink k.Kernel.fs "/")

let test_fs_truncate () =
  let k = boot () in
  let ino = expect_ok "create" (Diskfs.create k.Kernel.fs "/t") in
  ignore (expect_ok "write" (Diskfs.write k.Kernel.fs ~ino ~off:0 (Bytes.make 10000 'y')));
  ignore (expect_ok "truncate" (Diskfs.truncate k.Kernel.fs ~ino ~len:100));
  let st = expect_ok "stat" (Diskfs.stat k.Kernel.fs ~ino) in
  Alcotest.(check int) "shrunk" 100 st.Diskfs.size;
  Alcotest.(check int) "read capped" 100
    (Bytes.length (expect_ok "read" (Diskfs.read k.Kernel.fs ~ino ~off:0 ~len:10000)))

(* Random create/write/read/delete sequences against a pure model: the
   file system must agree with a Map of path -> contents at every
   read, and end state must match exactly. *)
let prop_diskfs_model =
  QCheck2.Test.make ~name:"diskfs agrees with a model under random ops" ~count:30
    QCheck2.Gen.(list_size (int_range 5 60)
                   (triple (int_bound 7) (int_bound 3) (string_size ~gen:printable (int_range 0 9000))))
    (fun ops ->
      let k = boot () in
      let fs = k.Kernel.fs in
      let model : (string, string) Hashtbl.t = Hashtbl.create 8 in
      let path i = Printf.sprintf "/model-%d" i in
      let ok = ref true in
      List.iter
        (fun (file, op, data) ->
          let p = path file in
          match op with
          | 0 (* create/overwrite *) -> (
              (match Diskfs.lookup fs p with
              | Ok ino -> ignore (Diskfs.truncate fs ~ino ~len:0)
              | Error _ -> ignore (Diskfs.create fs p));
              match Diskfs.lookup fs p with
              | Ok ino -> (
                  match Diskfs.write fs ~ino ~off:0 (Bytes.of_string data) with
                  | Ok n when n = String.length data -> Hashtbl.replace model p data
                  | Ok _ | Error _ -> ok := false)
              | Error _ -> ok := false)
          | 1 (* append *) -> (
              match (Diskfs.lookup fs p, Hashtbl.find_opt model p) with
              | Ok ino, Some existing -> (
                  match
                    Diskfs.write fs ~ino ~off:(String.length existing)
                      (Bytes.of_string data)
                  with
                  | Ok n when n = String.length data ->
                      Hashtbl.replace model p (existing ^ data)
                  | Ok _ | Error _ -> ok := false)
              | Error _, None -> ()
              | _ -> ok := false)
          | 2 (* delete *) -> (
              match (Diskfs.unlink fs p, Hashtbl.mem model p) with
              | Ok (), true -> Hashtbl.remove model p
              | Error Errno.ENOENT, false -> ()
              | _ -> ok := false)
          | _ (* read and compare *) -> (
              match (Diskfs.lookup fs p, Hashtbl.find_opt model p) with
              | Ok ino, Some expected -> (
                  match Diskfs.read fs ~ino ~off:0 ~len:(String.length expected + 32) with
                  | Ok b -> if Bytes.to_string b <> expected then ok := false
                  | Error _ -> ok := false)
              | Error Errno.ENOENT, None -> ()
              | _ -> ok := false))
        ops;
      (* Final state equality, both directions. *)
      Hashtbl.iter
        (fun p expected ->
          match Diskfs.lookup fs p with
          | Ok ino -> (
              match Diskfs.read fs ~ino ~off:0 ~len:(String.length expected + 32) with
              | Ok b -> if Bytes.to_string b <> expected then ok := false
              | Error _ -> ok := false)
          | Error _ -> ok := false)
        model;
      (match Diskfs.readdir fs ~ino:Diskfs.root_ino with
      | Ok entries ->
          let model_files =
            List.sort compare
              (Hashtbl.fold (fun p _ acc -> String.sub p 1 (String.length p - 1) :: acc) model [])
          in
          let fs_files =
            List.sort compare
              (List.filter (fun n -> String.length n > 5 && String.sub n 0 6 = "model-")
                 (List.map fst entries))
          in
          if model_files <> fs_files then ok := false
      | Error _ -> ok := false);
      !ok)

(* ------------------------------------------------------------------ *)
(* Syscall layer: files, pipes                                         *)

let test_syscall_file_io () =
  let k = boot () in
  let p = init k in
  let fd = expect_ok "open" (Syscalls.open_ k p "/f" Syscalls.creat_trunc) in
  user_write k p user_buf (Bytes.of_string "via syscalls");
  Alcotest.(check int) "write" 12
    (expect_ok "write" (Syscalls.write k p ~fd ~buf:user_buf ~len:12));
  ignore (expect_ok "seek" (Syscalls.lseek k p ~fd ~pos:4));
  let dst = Int64.add user_buf 0x1000L in
  Alcotest.(check int) "read" 8 (expect_ok "read" (Syscalls.read k p ~fd ~buf:dst ~len:100));
  Alcotest.(check string) "data" "syscalls" (Bytes.to_string (user_read k p dst 8));
  ignore (expect_ok "close" (Syscalls.close k p fd));
  expect_err Errno.EBADF "closed fd" (Syscalls.read k p ~fd ~buf:dst ~len:1)

let test_syscall_pipe () =
  let k = boot () in
  let p = init k in
  let r, w = expect_ok "pipe" (Syscalls.pipe k p) in
  user_write k p user_buf (Bytes.of_string "through the pipe");
  Alcotest.(check int) "write" 16
    (expect_ok "write" (Syscalls.write k p ~fd:w ~buf:user_buf ~len:16));
  let dst = Int64.add user_buf 0x1000L in
  Alcotest.(check int) "read" 7 (expect_ok "read" (Syscalls.read k p ~fd:r ~buf:dst ~len:7));
  Alcotest.(check string) "first part" "through" (Bytes.to_string (user_read k p dst 7));
  (* Empty + writer open = EAGAIN; after close = EOF. *)
  Alcotest.(check int) "drain" 9 (expect_ok "read" (Syscalls.read k p ~fd:r ~buf:dst ~len:100));
  expect_err Errno.EAGAIN "would block" (Syscalls.read k p ~fd:r ~buf:dst ~len:1);
  ignore (expect_ok "close w" (Syscalls.close k p w));
  Alcotest.(check int) "EOF" 0 (expect_ok "read" (Syscalls.read k p ~fd:r ~buf:dst ~len:1));
  ignore (expect_ok "close r" (Syscalls.close k p r))

let test_pipe_epipe () =
  let k = boot () in
  let p = init k in
  let r, w = expect_ok "pipe" (Syscalls.pipe k p) in
  ignore (expect_ok "close r" (Syscalls.close k p r));
  user_write k p user_buf (Bytes.of_string "x");
  expect_err Errno.EPIPE "no reader" (Syscalls.write k p ~fd:w ~buf:user_buf ~len:1)

let test_rename () =
  let k = boot () in
  let p = init k in
  let fd = expect_ok "open" (Syscalls.open_ k p "/old" Syscalls.creat_trunc) in
  user_write k p user_buf (Bytes.of_string "moved");
  ignore (expect_ok "write" (Syscalls.write k p ~fd ~buf:user_buf ~len:5));
  ignore (expect_ok "close" (Syscalls.close k p fd));
  ignore (expect_ok "mkdir" (Syscalls.mkdir k p "/dir"));
  ignore (expect_ok "rename" (Syscalls.rename k p ~src:"/old" ~dst:"/dir/new"));
  expect_err Errno.ENOENT "source gone" (Syscalls.open_ k p "/old" Syscalls.rdonly);
  let fd = expect_ok "reopen" (Syscalls.open_ k p "/dir/new" Syscalls.rdonly) in
  ignore (expect_ok "read" (Syscalls.read k p ~fd ~buf:user_buf ~len:5));
  Alcotest.(check string) "content" "moved" (Bytes.to_string (user_read k p user_buf 5));
  (* Rename over an existing file replaces it and frees its storage. *)
  let fd2 = expect_ok "open2" (Syscalls.open_ k p "/other" Syscalls.creat_trunc) in
  ignore (expect_ok "close2" (Syscalls.close k p fd2));
  ignore (expect_ok "replace" (Syscalls.rename k p ~src:"/dir/new" ~dst:"/other"));
  let entries = expect_ok "readdir" (Syscalls.readdir k p "/dir") in
  Alcotest.(check (list string)) "dir emptied" [] (List.map fst entries)

let test_fstat_dup2 () =
  let k = boot () in
  let p = init k in
  let fd = expect_ok "open" (Syscalls.open_ k p "/s" Syscalls.creat_trunc) in
  user_write k p user_buf (Bytes.of_string "123456");
  ignore (expect_ok "write" (Syscalls.write k p ~fd ~buf:user_buf ~len:6));
  let st = expect_ok "fstat" (Syscalls.fstat k p ~fd) in
  Alcotest.(check int) "size" 6 st.Diskfs.size;
  expect_err Errno.EBADF "bad fd" (Syscalls.fstat k p ~fd:99);
  (* dup2 shares the file offset object. *)
  ignore (expect_ok "dup2" (Syscalls.dup2 k p ~src:fd ~dst:17));
  ignore (expect_ok "seek via dup" (Syscalls.lseek k p ~fd:17 ~pos:3));
  Alcotest.(check int) "shared offset read" 3
    (expect_ok "read" (Syscalls.read k p ~fd ~buf:user_buf ~len:10));
  (* dup2 onto a pipe end drops its reference. *)
  let r, w = expect_ok "pipe" (Syscalls.pipe k p) in
  ignore (expect_ok "dup2 over writer" (Syscalls.dup2 k p ~src:fd ~dst:w));
  expect_err Errno.EAGAIN "reader sees no writer yet... still EAGAIN? no:"
    (match Syscalls.read k p ~fd:r ~buf:user_buf ~len:1 with
    | Ok 0 -> Error Errno.EAGAIN (* EOF is also acceptable *)
    | r -> r)

(* ------------------------------------------------------------------ *)
(* Processes                                                           *)

let test_fork_and_wait () =
  let k = boot () in
  let p = init k in
  user_write k p user_buf (Bytes.of_string "parent data");
  let child = expect_ok "fork" (Syscalls.fork k p) in
  Alcotest.(check bool) "new pid" true (child.Proc.pid <> p.Proc.pid);
  (* The child sees a copy... *)
  Alcotest.(check string) "child copy" "parent data"
    (Bytes.to_string (user_read k child user_buf 11));
  (* ...and writes to it do not affect the parent. *)
  user_write k child user_buf (Bytes.of_string "child  data");
  Alcotest.(check string) "parent intact" "parent data"
    (Bytes.to_string (user_read k p user_buf 11));
  expect_err Errno.EAGAIN "still running" (Syscalls.wait k p);
  Syscalls.exit_ k child 7;
  let pid, status = expect_ok "wait" (Syscalls.wait k p) in
  Alcotest.(check int) "pid" child.Proc.pid pid;
  Alcotest.(check int) "status" 7 status;
  expect_err Errno.ECHILD "no children" (Syscalls.wait k p)

let make_image k ~name =
  let rng = Vg_crypto.Drbg.create ~seed:(Bytes.of_string "installer") in
  Appimage.install
    ~vg_key:(Sva.vg_private_key_for_installer k.Kernel.sva)
    ~rng ~name
    ~payload:(Bytes.of_string ("program text of " ^ name))
    ~entry:0x400000L
    ~app_key:(Bytes.of_string "0123456789abcdef")
    ()

let test_exec () =
  let k = boot () in
  let p = init k in
  let image = make_image k ~name:"demo" in
  ignore (expect_ok "exec" (Syscalls.execve k p image));
  let ic = Sva.thread_icontext k.Kernel.sva ~tid:p.Proc.tid in
  Alcotest.(check int64) "pc at entry" 0x400000L ic.Icontext.pc;
  (match Sva.get_app_key k.Kernel.sva ~pid:p.Proc.pid with
  | Some key -> Alcotest.(check string) "app key" "0123456789abcdef" (Bytes.to_string key)
  | None -> Alcotest.fail "no app key")

let test_exec_refuses_tampered_image () =
  let k = boot () in
  let p = init k in
  let image = Appimage.tamper_payload (make_image k ~name:"evil") in
  expect_err Errno.EACCES "refused" (Syscalls.execve k p image);
  Alcotest.(check bool) "logged" true
    (Console.contains (Machine.console k.Kernel.machine) "execve refused")

let test_exec_native_skips_validation () =
  let k = boot ~mode:Sva.Native_build () in
  let p = init k in
  let image = Appimage.tamper_payload (make_image k ~name:"evil") in
  (* The baseline kernel has no signature checking: tampered images
     load — that is the vulnerable world. *)
  ignore (expect_ok "native loads anything" (Syscalls.execve k p image))

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)

let test_mmap_munmap () =
  let k = boot () in
  let p = init k in
  let va = expect_ok "mmap" (Syscalls.mmap k p ~len:8192) in
  user_write k p va (Bytes.of_string "mapped!");
  Alcotest.(check string) "usable" "mapped!" (Bytes.to_string (user_read k p va 7));
  ignore (expect_ok "munmap" (Syscalls.munmap k p ~addr:va ~len:8192));
  Alcotest.(check bool) "unmapped" true
    (try
       Kernel.switch_to k p;
       Machine.set_privilege k.Kernel.machine Machine.User;
       ignore (Machine.read_virt k.Kernel.machine va ~len:8);
       Machine.set_privilege k.Kernel.machine Machine.Kernel;
       false
     with Machine.Page_fault _ ->
       Machine.set_privilege k.Kernel.machine Machine.Kernel;
       true)

let test_page_fault_handler () =
  let k = boot () in
  let p = init k in
  let va = 0x0000_0000_0070_0000L in
  ignore (expect_ok "fault" (Kernel.handle_page_fault k p va));
  user_write k p va (Bytes.of_string "demand");
  Alcotest.(check string) "mapped by fault" "demand" (Bytes.to_string (user_read k p va 6))

(* The central enforcement property, end to end through the kernel. *)
let ghost_heap = Int64.add Layout.ghost_start 0x100000L

let test_ghost_isolation_end_to_end () =
  let run mode =
    let k = boot ~mode () in
    let p = init k in
    ignore (expect_ok "allocgm" (Syscalls.allocgm k p ~va:ghost_heap ~pages:1));
    (* The application stores a secret in ghost memory. *)
    Kernel.switch_to k p;
    Machine.set_privilege k.Kernel.machine Machine.User;
    Machine.write_bytes_virt k.Kernel.machine ghost_heap (Bytes.of_string "S3CRET!!");
    Machine.set_privilege k.Kernel.machine Machine.Kernel;
    (* Hostile kernel code tries to read it with an ordinary
       (instrumented, under VG) kernel load. *)
    Bytes.to_string (Kmem.read_bytes k.Kernel.kmem ghost_heap ~len:8)
  in
  Alcotest.(check string) "native kernel reads the secret" "S3CRET!!"
    (run Sva.Native_build);
  Alcotest.(check bool) "vg kernel cannot" true (run Sva.Virtual_ghost <> "S3CRET!!")

let test_freegm_syscall () =
  let k = boot () in
  let p = init k in
  ignore (expect_ok "allocgm" (Syscalls.allocgm k p ~va:ghost_heap ~pages:2));
  Alcotest.(check int) "region recorded" 1 (List.length p.Proc.ghost_regions);
  ignore (expect_ok "freegm" (Syscalls.freegm k p ~va:ghost_heap ~pages:2));
  Alcotest.(check int) "region gone" 0 (List.length p.Proc.ghost_regions)

let test_exit_releases_ghost () =
  let k = boot () in
  let p = init k in
  let child = expect_ok "fork" (Syscalls.fork k p) in
  let free_before = Frame_alloc.free_count k.Kernel.frames in
  ignore (expect_ok "allocgm" (Syscalls.allocgm k child ~va:ghost_heap ~pages:4));
  Syscalls.exit_ k child 0;
  Alcotest.(check int) "frames recovered" free_before
    (Frame_alloc.free_count k.Kernel.frames)

let test_cow_sharing_and_breaking () =
  let k = boot () in
  let p = init k in
  user_write k p user_buf (Bytes.of_string "shared!");
  let child = expect_ok "fork" (Syscalls.fork k p) in
  let vpage = Int64.shift_right_logical user_buf 12 in
  let parent_frame = Hashtbl.find p.Proc.user_frames vpage in
  let child_frame = Hashtbl.find child.Proc.user_frames vpage in
  Alcotest.(check int) "frame shared after fork" parent_frame child_frame;
  Alcotest.(check bool) "marked cow both sides" true
    (Hashtbl.mem p.Proc.cow vpage && Hashtbl.mem child.Proc.cow vpage);
  (* Child write breaks the share. *)
  user_write k child user_buf (Bytes.of_string "private");
  let child_frame' = Hashtbl.find child.Proc.user_frames vpage in
  Alcotest.(check bool) "child got its own frame" true (child_frame' <> parent_frame);
  Alcotest.(check string) "parent data intact" "shared!"
    (Bytes.to_string (user_read k p user_buf 7));
  Syscalls.exit_ k child 0;
  ignore (Syscalls.wait k p)

let test_cow_kernel_copyout_breaks_share () =
  (* A read() into a COW page must not scribble on the sibling. *)
  let k = boot () in
  let p = init k in
  let fd = expect_ok "open" (Syscalls.open_ k p "/cowfile" Syscalls.creat_trunc) in
  user_write k p user_buf (Bytes.of_string "ABCDEFGH");
  ignore (expect_ok "write" (Syscalls.write k p ~fd ~buf:user_buf ~len:8));
  let child = expect_ok "fork" (Syscalls.fork k p) in
  ignore (expect_ok "seek" (Syscalls.lseek k child ~fd ~pos:0));
  (* Kernel copyout lands in the child's page... *)
  ignore (expect_ok "read" (Syscalls.read k child ~fd ~buf:(Int64.add user_buf 16L) ~len:8));
  (* ...and the parent's copy of that page is untouched. *)
  Alcotest.(check string) "parent page clean" "\000\000\000\000"
    (Bytes.to_string (user_read k p (Int64.add user_buf 16L) 4));
  Syscalls.exit_ k child 0;
  ignore (Syscalls.wait k p)

let test_cow_frames_released_once () =
  (* Fork then exit both sides: every frame must come back exactly
     once (refcounting, no double free). *)
  let k = boot () in
  let p = init k in
  let before = Frame_alloc.free_count k.Kernel.frames in
  let child = expect_ok "fork" (Syscalls.fork k p) in
  user_write k child user_buf (Bytes.of_string "dirty");
  Syscalls.exit_ k child 0;
  ignore (expect_ok "wait" (Syscalls.wait k p));
  Alcotest.(check bool) "frames recovered (within cow slack)" true
    (Frame_alloc.free_count k.Kernel.frames >= before - 1)

(* ------------------------------------------------------------------ *)
(* Signals                                                             *)

let test_signal_delivery_via_vm () =
  let k = boot () in
  let p = init k in
  let handler = 0x0000_0000_0041_0000L in
  (* The application wrapper registers the handler with the VM and the
     kernel. *)
  Sva.permit_function k.Kernel.sva ~pid:p.Proc.pid handler;
  ignore (expect_ok "signal" (Syscalls.signal k p ~signum:10 ~handler));
  ignore (expect_ok "kill" (Syscalls.kill k p ~pid:p.Proc.pid ~signum:10));
  let ic = Sva.thread_icontext k.Kernel.sva ~tid:p.Proc.tid in
  Alcotest.(check int64) "pc -> handler" handler ic.Icontext.pc;
  Alcotest.(check int64) "arg = signum" 10L ic.Icontext.gprs.(0);
  ignore (expect_ok "sigreturn" (Syscalls.sigreturn k p));
  Alcotest.(check bool) "restored" true
    ((Sva.thread_icontext k.Kernel.sva ~tid:p.Proc.tid).Icontext.pc <> handler)

let test_signal_unregistered_handler_blocked () =
  let k = boot () in
  let p = init k in
  let evil = 0x0000_6660_0000_0000L in
  (* Installed directly (as a malicious module would), never permitted. *)
  ignore (expect_ok "signal" (Syscalls.signal k p ~signum:10 ~handler:evil));
  ignore (expect_ok "kill" (Syscalls.kill k p ~pid:p.Proc.pid ~signum:10));
  let ic = Sva.thread_icontext k.Kernel.sva ~tid:p.Proc.tid in
  Alcotest.(check bool) "pc unchanged" true (ic.Icontext.pc <> evil);
  Alcotest.(check bool) "refusal logged" true
    (Console.contains (Machine.console k.Kernel.machine) "not a registered handler")

let test_kill_errors () =
  let k = boot () in
  let p = init k in
  expect_err Errno.ESRCH "no such pid" (Syscalls.kill k p ~pid:4242 ~signum:9);
  expect_err Errno.EINVAL "sigreturn w/o signal" (Syscalls.sigreturn k p)

(* ------------------------------------------------------------------ *)
(* Sockets and select                                                  *)

let test_socket_end_to_end () =
  let k = boot () in
  let p = init k in
  let lfd = expect_ok "listen" (Syscalls.listen k p ~port:80) in
  (* Remote client connects over the simulated wire. *)
  let ep = Netstack.Remote.connect k.Kernel.machine ~port:80 in
  let cfd = expect_ok "accept" (Syscalls.accept k p ~fd:lfd) in
  Netstack.Remote.send ep (Bytes.of_string "GET /x");
  let dst = user_buf in
  Alcotest.(check int) "recv" 6 (expect_ok "recv" (Syscalls.recv k p ~fd:cfd ~buf:dst ~len:100));
  Alcotest.(check string) "request" "GET /x" (Bytes.to_string (user_read k p dst 6));
  user_write k p dst (Bytes.of_string "200 OK");
  ignore (expect_ok "send" (Syscalls.send k p ~fd:cfd ~buf:dst ~len:6));
  (match Netstack.Remote.recv ep with
  | Some b -> Alcotest.(check string) "response" "200 OK" (Bytes.to_string b)
  | None -> Alcotest.fail "no response on the wire");
  expect_err Errno.EAGAIN "no more pending" (Syscalls.accept k p ~fd:lfd)

let test_select () =
  let k = boot () in
  let p = init k in
  let r, w = expect_ok "pipe" (Syscalls.pipe k p) in
  Alcotest.(check (list int)) "empty pipe not ready" []
    (expect_ok "select" (Syscalls.select k p [ r ]));
  user_write k p user_buf (Bytes.of_string "!");
  ignore (expect_ok "write" (Syscalls.write k p ~fd:w ~buf:user_buf ~len:1));
  Alcotest.(check (list int)) "ready after write" [ r ]
    (expect_ok "select" (Syscalls.select k p [ r ]))

let test_netstack_details () =
  let k = boot () in
  let p = init k in
  (* Connection to an unbound port: frames silently dropped, accept on
     a bound port skips them. *)
  let lfd = expect_ok "listen" (Syscalls.listen k p ~port:8080) in
  expect_err Errno.EEXIST "port taken"
    (match Syscalls.listen k p ~port:8080 with Ok _ -> Ok () | Error e -> Error e);
  let _refused = Netstack.Remote.connect k.Kernel.machine ~port:9999 in
  expect_err Errno.EAGAIN "refused conn not accepted" (Syscalls.accept k p ~fd:lfd);
  (* A real connection still goes through afterwards. *)
  let _ok = Netstack.Remote.connect k.Kernel.machine ~port:8080 in
  ignore (expect_ok "accept" (Syscalls.accept k p ~fd:lfd))

(* Harness and kernel name connections from disjoint id spaces: after
   4,000 harness connections, no kernel outbound connect takes the id
   of a live accepted connection, and closing the outbound ones leaves
   every accepted one reading its own bytes. *)
let test_conn_ids_disjoint () =
  let k = boot () in
  let p = init k in
  let m = k.Kernel.machine in
  for _ = 1 to 4000 do
    Netstack.Remote.close (Netstack.Remote.connect m ~port:9999)
  done;
  let lfd = expect_ok "listen" (Syscalls.listen k p ~port:80) in
  let live =
    List.init 64 (fun i ->
        let ep = Netstack.Remote.connect m ~port:80 in
        (Printf.sprintf "conn %02d" i, ep, expect_ok "accept" (Syscalls.accept k p ~fd:lfd)))
  in
  for _ = 1 to 64 do
    let out = expect_ok "connect" (Syscalls.connect k p ~port:7070) in
    ignore (expect_ok "close outbound" (Syscalls.close k p out))
  done;
  List.iter
    (fun (msg, ep, fd) ->
      Netstack.Remote.send ep (Bytes.of_string msg);
      Alcotest.(check int) msg 7 (expect_ok msg (Syscalls.recv k p ~fd ~buf:user_buf ~len:100));
      Alcotest.(check string) msg msg (Bytes.to_string (user_read k p user_buf 7)))
    live

let prop_pipe_model =
  QCheck2.Test.make ~name:"pipe behaves like a byte queue" ~count:200
    QCheck2.Gen.(list_size (int_range 1 40) (pair bool (string_size ~gen:printable (int_range 0 50))))
    (fun ops ->
      let pipe = Pipe_dev.create ~capacity:256 () in
      Pipe_dev.add_reader pipe;
      Pipe_dev.add_writer pipe;
      let model = Buffer.create 64 in
      let consumed = ref 0 in
      let ok = ref true in
      List.iter
        (fun (is_write, payload) ->
          if is_write then begin
            match Pipe_dev.write pipe (Bytes.of_string payload) with
            | Ok n -> Buffer.add_string model (String.sub payload 0 n)
            | Error Errno.EAGAIN -> ()
            | Error _ -> ok := false
          end
          else begin
            let want = 1 + (String.length payload mod 17) in
            match Pipe_dev.read pipe want with
            | Ok b ->
                let expect_len =
                  min want (Buffer.length model - !consumed)
                in
                if Bytes.length b <> expect_len then ok := false
                else if
                  Bytes.to_string b
                  <> Buffer.sub model !consumed expect_len
                then ok := false
                else consumed := !consumed + expect_len
            | Error Errno.EAGAIN ->
                if Buffer.length model - !consumed > 0 then ok := false
            | Error _ -> ok := false
          end)
        ops;
      !ok)

(* The pipe against a FIFO model with sizes that straddle chunk
   boundaries: a large write read back in small pieces, a full pipe
   ([EAGAIN] on write), an empty one ([EAGAIN] on read) and EOF once
   the writer has gone. *)
type pipe_op = Pipe_put of int | Pipe_take of int | Pipe_hang_up

let prop_pipe_fifo_sizes =
  QCheck2.Test.make ~name:"pipe: random sizes against a FIFO model" ~count:300
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity=%d ops=[%s]" cap
        (String.concat "; "
           (List.map
              (function
                | Pipe_put n -> Printf.sprintf "put %d" n
                | Pipe_take n -> Printf.sprintf "take %d" n
                | Pipe_hang_up -> "hang up")
              ops)))
    QCheck2.Gen.(
      pair (int_range 1 700)
        (list_size (int_range 1 60)
           (frequency
              [
                (5, map (fun n -> Pipe_put n) (int_bound 900));
                (6, map (fun n -> Pipe_take n) (int_bound 300));
                (1, return Pipe_hang_up);
              ])))
    (fun (capacity, ops) ->
      let pipe = Pipe_dev.create ~capacity () in
      Pipe_dev.add_reader pipe;
      Pipe_dev.add_writer pipe;
      let model = Queue.create () in
      let hung_up = ref false in
      let next = ref 0 in
      List.for_all
        (function
          | Pipe_hang_up ->
              if not !hung_up then Pipe_dev.drop_writer pipe;
              hung_up := true;
              true
          | Pipe_put _ when !hung_up -> true
          | Pipe_put n -> (
              let data = Bytes.init n (fun i -> Char.chr ((!next + i) land 0xff)) in
              let room = capacity - Queue.length model in
              match Pipe_dev.write pipe data with
              | Ok k when room > 0 && k = min room n ->
                  Bytes.iter (fun c -> Queue.push c model) (Bytes.sub data 0 k);
                  next := !next + k;
                  true
              | Error Errno.EAGAIN -> room = 0
              | Ok _ | Error _ -> false)
          | Pipe_take n -> (
              match Pipe_dev.read pipe n with
              | Ok b when Queue.is_empty model -> !hung_up && Bytes.length b = 0
              | Ok b ->
                  Bytes.length b = min n (Queue.length model)
                  && Bytes.for_all (fun c -> c = Queue.pop model) b
              | Error Errno.EAGAIN -> Queue.is_empty model && not !hung_up
              | Error _ -> false))
        ops
      && Pipe_dev.bytes_available pipe = Queue.length model)

(* ------------------------------------------------------------------ *)
(* Bulk kernel copies                                                  *)

(* [Kmem.read_bytes]/[write_bytes] against byte-at-a-time accesses,
   under both builds: a six-page user window at [kcopy_base] with a
   random set of pages present.  Per page chunk the kernel pays the
   mask (Virtual Ghost), one [Cost.copy_cycles chunk] and one TLB miss
   (the TLB is flushed first); a chunk on an unmapped page reads as
   zeros, drops its store, and under Virtual Ghost raises exactly one
   [Security{sandbox}] event. *)
let kcopy_pages = 6
let kcopy_base = 0x400000L
let kcopy_frame i = 300 + i

let kcopy_world =
  let make mode =
    lazy
      (let obs = Vg_obs.Obs.create () in
       let recorder = Vg_obs.Obs_recorder.create () in
       Vg_obs.Obs.attach obs (Vg_obs.Obs_recorder.sink recorder);
       let m =
         Node_config.(
           default |> with_phys_frames 2048 |> with_disk_sectors 128
           |> with_seed "kmem-copy" |> with_obs obs |> create_machine)
       in
       let sva = Sva.boot ~vg_key_bits:256 ~mode m in
       (m, Kmem.create sva, recorder))
  in
  let vg = make Sva.Virtual_ghost and native = make Sva.Native_build in
  function Sva.Virtual_ghost -> Lazy.force vg | Sva.Native_build -> Lazy.force native

let kcopy_pattern seed i = Char.chr (((seed * 5) + (i * 11) + (i / 4096)) land 0xff)

(* Map the window afresh and fill its frames; returns the world. *)
let kcopy_setup mode ~mapped ~seed =
  let m, kmem, recorder = kcopy_world mode in
  for i = 0 to kcopy_pages - 1 do
    let vpage = Int64.add (Int64.shift_right_logical kcopy_base 12) (Int64.of_int i) in
    Pagetable.unmap (Machine.current_pt m) ~vpage;
    if mapped land (1 lsl i) <> 0 then
      Pagetable.map (Machine.current_pt m) ~vpage
        { frame = kcopy_frame i; perm = { writable = true; user = true; executable = false } };
    for b = 0 to 4095 do
      Phys_mem.write (Machine.mem m)
        ~addr:(Int64.of_int ((kcopy_frame i * 4096) + b))
        ~len:1
        (Int64.of_int (Char.code (kcopy_pattern seed ((i * 4096) + b))))
    done
  done;
  Machine.flush_tlb m;
  Vg_obs.Obs_recorder.clear recorder;
  (m, kmem, recorder)

let kcopy_window m =
  String.init (kcopy_pages * 4096) (fun i ->
      Char.chr
        (Int64.to_int
           (Phys_mem.read (Machine.mem m)
              ~addr:(Int64.of_int ((kcopy_frame (i / 4096) * 4096) + (i mod 4096)))
              ~len:1)))

(* Page chunks of [start, start+len) within the window. *)
let kcopy_chunks ~start ~len =
  let rec go pos acc =
    if pos >= start + len then List.rev acc
    else begin
      let chunk = min (start + len - pos) (4096 - (pos mod 4096)) in
      go (pos + chunk) ((pos, chunk) :: acc)
    end
  in
  go start []

let kcopy_page_mapped mapped pos = mapped land (1 lsl (pos / 4096)) <> 0

let kcopy_expected_cycles mode ~start ~len =
  let mask = match mode with Sva.Virtual_ghost -> Cost.sandbox_mask | Sva.Native_build -> 0 in
  List.fold_left
    (fun acc (_, chunk) -> acc + mask + Cost.copy_cycles chunk + Cost.tlb_miss)
    0 (kcopy_chunks ~start ~len)

let kcopy_expected_events mode ~start ~len ~mapped =
  match mode with
  | Sva.Native_build -> 0
  | Sva.Virtual_ghost ->
      List.length
        (List.filter
           (fun (pos, _) -> not (kcopy_page_mapped mapped pos))
           (kcopy_chunks ~start ~len))

let sandbox_events recorder =
  Vg_obs.Obs_recorder.count_matching recorder (function
    | Vg_obs.Obs.Event.Security { subsystem = "sandbox"; _ } -> true
    | _ -> false)

let kcopy_gen =
  QCheck2.Gen.(
    let* mode = oneofl [ Sva.Virtual_ghost; Sva.Native_build ] in
    let* start = int_bound (3 * 4096) in
    let* len = int_bound (3 * 4096) in
    let* mapped = int_bound ((1 lsl kcopy_pages) - 1) in
    let* off = int_bound 64 in
    let* seed = int_bound 1_000_000 in
    return (mode, start, len, mapped, off, seed))

let print_kcopy (mode, start, len, mapped, off, seed) =
  Printf.sprintf "%s start=%d len=%d mapped=0x%x off=%d seed=%d"
    (match mode with Sva.Virtual_ghost -> "vg" | Sva.Native_build -> "native")
    start len mapped off seed

let prop_kmem_read_matches_bytes =
  QCheck2.Test.make ~name:"Kmem bulk read = byte reads" ~count:100 ~print:print_kcopy kcopy_gen
    (fun (mode, start, len, mapped, off, seed) ->
      let m, kmem, recorder = kcopy_setup mode ~mapped ~seed in
      let va = Int64.add kcopy_base (Int64.of_int start) in
      (* Into the middle of a larger buffer; its other bytes stay put. *)
      let dst = Bytes.make (off + len + 7) '\xa5' in
      let c0 = Machine.cycles m in
      Kmem.read_into kmem va dst ~off ~len;
      let cycles = Machine.cycles m - c0 in
      let events = sandbox_events recorder in
      let bulk = Bytes.sub dst off len in
      let outside_intact =
        Bytes.sub_string dst 0 off ^ Bytes.sub_string dst (off + len) 7
        = String.make (off + 7) '\xa5'
      in
      let reference =
        Bytes.init len (fun i ->
            if kcopy_page_mapped mapped (start + i) then
              Char.chr
                (Int64.to_int (Machine.read_virt m (Int64.add va (Int64.of_int i)) ~len:1))
            else '\000')
      in
      Bytes.equal bulk reference
      && outside_intact
      && Bytes.equal (Kmem.read_bytes kmem va ~len) reference
      && cycles = kcopy_expected_cycles mode ~start ~len
      && events = kcopy_expected_events mode ~start ~len ~mapped)

let prop_kmem_write_matches_bytes =
  QCheck2.Test.make ~name:"Kmem bulk write = byte writes" ~count:100 ~print:print_kcopy kcopy_gen
    (fun (mode, start, len, mapped, _, seed) ->
      let m, kmem, recorder = kcopy_setup mode ~mapped ~seed in
      let before = kcopy_window m in
      let va = Int64.add kcopy_base (Int64.of_int start) in
      let data = Bytes.init len (fun i -> kcopy_pattern (seed + 1) i) in
      let c0 = Machine.cycles m in
      Kmem.write_bytes kmem va data;
      let cycles = Machine.cycles m - c0 in
      let events = sandbox_events recorder in
      let expected =
        String.mapi
          (fun i c ->
            if i >= start && i < start + len && kcopy_page_mapped mapped i then
              Bytes.get data (i - start)
            else c)
          before
      in
      kcopy_window m = expected
      && cycles = kcopy_expected_cycles mode ~start ~len
      && events = kcopy_expected_events mode ~start ~len ~mapped)

(* ------------------------------------------------------------------ *)
(* Copy allocation                                                     *)

(* Host words a call allocates: minor words plus direct major
   allocations (major minus promoted).  A bulk copy should allocate its
   result and a small per-call constant — one host copy per modelled
   copy, no intermediate buffers. *)
let words_allocated f =
  let minor0, promoted0, major0 = Gc.counters () in
  let r = f () in
  let minor1, promoted1, major1 = Gc.counters () in
  (r, int_of_float (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)))

let copy_slack_words = 64
let bytes_words n = (n / 8) + 2

let check_budget what ~words ~budget =
  if words > budget then Alcotest.failf "%s allocated %d words (> %d)" what words budget

let test_kmem_read_allocation () =
  let _, kmem, _ = kcopy_setup Sva.Virtual_ghost ~mapped:0b1111 ~seed:3 in
  let len = 4 * 4096 in
  let warm = Kmem.read_bytes kmem kcopy_base ~len in
  let data, words = words_allocated (fun () -> Kmem.read_bytes kmem kcopy_base ~len) in
  Alcotest.(check bytes) "same bytes" warm data;
  check_budget "16 KiB Kmem.read_bytes" ~words ~budget:(bytes_words len + copy_slack_words)

let test_kmem_write_allocation () =
  let m, kmem, _ = kcopy_setup Sva.Virtual_ghost ~mapped:0b1111 ~seed:3 in
  let data = Bytes.init (4 * 4096) (fun i -> Char.chr (i land 0xff)) in
  Kmem.write_bytes kmem kcopy_base data;
  let (), words = words_allocated (fun () -> Kmem.write_bytes kmem kcopy_base data) in
  Alcotest.(check string) "written" (Bytes.to_string data)
    (String.sub (kcopy_window m) 0 (Bytes.length data));
  check_budget "16 KiB Kmem.write_bytes" ~words ~budget:copy_slack_words

let test_recv_all_available_allocation () =
  let m, kmem, _ = kcopy_setup Sva.Virtual_ghost ~mapped:0 ~seed:3 in
  let net = Netstack.create ~kmem (Machine.nic m) in
  ignore (expect_ok "listen" (Netstack.listen net ~port:80));
  let ep = Netstack.Remote.connect m ~port:80 in
  let conn =
    match Netstack.accept net ~port:80 with Some c -> c | None -> Alcotest.fail "no SYN"
  in
  let payload = Bytes.init (64 * 1024) (fun i -> Char.chr ((i * 7) land 0xff)) in
  let chunk = 4096 in
  for i = 0 to (Bytes.length payload / chunk) - 1 do
    let frame = Bytes.create (Netstack.header_bytes + chunk) in
    Bytes.blit payload (i * chunk) frame Netstack.header_bytes chunk;
    ignore (expect_ok "send" (Netstack.send net ~conn frame))
  done;
  let got, words = words_allocated (fun () -> Netstack.Remote.recv_all_available ep) in
  Alcotest.(check bool) "payload reassembled" true (Bytes.equal got payload);
  check_budget "64 KiB Remote.recv_all_available" ~words
    ~budget:(bytes_words (Bytes.length payload) + copy_slack_words)

(* ------------------------------------------------------------------ *)
(* Modules                                                             *)

let constant_read_module () =
  let b = Builder.create () in
  Builder.func b "sys_read" ~params:[ "fd"; "buf"; "len" ];
  Builder.ret b (Some (Imm 42L));
  Builder.program b

let test_module_override () =
  let k = boot () in
  let p = init k in
  Syscalls.register_builtin_externs k;
  (match Module_loader.load k ~name:"const_read" (constant_read_module ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "load: %s" (Module_loader.describe_load_error e));
  Alcotest.(check (list string)) "override registered" [ "read" ]
    (Module_loader.loaded_overrides k);
  let fd = expect_ok "open" (Syscalls.open_ k p "/f" Syscalls.creat_trunc) in
  Alcotest.(check int) "hijacked result" 42
    (expect_ok "read" (Syscalls.read k p ~fd ~buf:user_buf ~len:10));
  Module_loader.unload k ~name:"const_read";
  Alcotest.(check int) "genuine read restored" 0
    (expect_ok "read" (Syscalls.read k p ~fd ~buf:user_buf ~len:10))

let test_module_chains_to_genuine () =
  let k = boot () in
  let p = init k in
  Syscalls.register_builtin_externs k;
  (* A passthrough module: calls the genuine handler and adds 1000. *)
  let b = Builder.create () in
  Builder.func b "sys_read" ~params:[ "fd"; "buf"; "len" ];
  let real = Builder.call b "extern.genuine_read" [ Reg "fd"; Reg "buf"; Reg "len" ] in
  let bumped = Builder.bin b Add real (Imm 1000L) in
  Builder.ret b (Some bumped);
  (match Module_loader.load k ~name:"bump" (Builder.program b) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "load: %s" (Module_loader.describe_load_error e));
  let fd = expect_ok "open" (Syscalls.open_ k p "/g" Syscalls.creat_trunc) in
  user_write k p user_buf (Bytes.of_string "12345");
  ignore (expect_ok "write" (Syscalls.write k p ~fd ~buf:user_buf ~len:5));
  ignore (expect_ok "seek" (Syscalls.lseek k p ~fd ~pos:0));
  Alcotest.(check int) "5 + 1000" 1005
    (expect_ok "read" (Syscalls.read k p ~fd ~buf:user_buf ~len:5));
  Module_loader.unload k ~name:"bump"

let test_malformed_module_rejected () =
  let k = boot () in
  let f : Ir.func =
    { name = "sys_read"; params = []; blocks = [ { label = "entry"; instrs = []; term = Br "nowhere" } ] }
  in
  match Module_loader.load k ~name:"broken" { funcs = [ f ] } with
  | Ok () -> Alcotest.fail "must reject malformed module"
  | Error (Module_loader.Compile_rejected _) -> ()
  | Error e -> Alcotest.failf "wrong error class: %s" (Module_loader.describe_load_error e)

(* A module doing raw port I/O is well-formed IR and compiles, but the
   load-time image verifier must refuse it under Virtual Ghost — with a
   structured reason, ENOEXEC at the syscall boundary, and a Security
   event on the observability stream. *)
let test_privileged_module_rejected () =
  let evil () =
    let b = Builder.create () in
    Builder.func b "sys_read" ~params:[ "fd"; "buf"; "len" ];
    Builder.io_write b ~port:(Imm 0x3f8L) (Imm 0x41L);
    Builder.ret b (Some (Imm 0L));
    Builder.program b
  in
  let recorder = Vg_obs.Obs_recorder.create () in
  let obs = Vg_obs.Obs.create () in
  let result =
    Vg_obs.Obs.with_sink obs (Vg_obs.Obs_recorder.sink recorder) (fun () ->
        let k = Node.kernel (Node.boot (kconfig () |> Node_config.with_obs obs)) in
        Module_loader.load k ~name:"evil_io" (evil ()))
  in
  (match result with
  | Ok () -> Alcotest.fail "privileged module must be rejected"
  | Error
      (Module_loader.Cache_refused (Vg_compiler.Trans_cache.Rejected_by_verifier vs)
       as err) ->
      Alcotest.(check bool) "verifier names the privileged invariant" true
        (List.exists
           (fun (v : Vg_compiler.Image_verify.violation) ->
             v.invariant = Vg_compiler.Image_verify.Privileged && v.func = "sys_read")
           vs);
      Alcotest.(check string) "maps to ENOEXEC" "ENOEXEC"
        (Errno.to_string (Module_loader.errno_of_load_error err))
  | Error e -> Alcotest.failf "wrong error class: %s" (Module_loader.describe_load_error e));
  Alcotest.(check bool) "security event emitted" true
    (Vg_obs.Obs_recorder.count_matching recorder (function
       | Vg_obs.Obs.Event.Security { subsystem = "image-verify"; _ } -> true
       | _ -> false)
    > 0);
  (* The baseline build is not instrumented, so nothing is verified and
     the same module loads — the protection is a Virtual Ghost gain. *)
  let k = boot ~mode:Sva.Native_build () in
  match Module_loader.load k ~name:"evil_io" (evil ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "baseline load: %s" (Module_loader.describe_load_error e)

(* Module code is closure-compiled only through the verifying cache: an
   image the verifier refuses is never translated, registers no
   override, and the genuine handler keeps serving the call. *)
let test_refuses_unverified () =
  let evil =
    let b = Builder.create () in
    Builder.func b "sys_read" ~params:[ "fd"; "buf"; "len" ];
    Builder.io_write b ~port:(Imm 0x3f8L) (Imm 0x41L);
    Builder.ret b (Some (Imm 42L));
    Builder.program b
  in
  let recorder = Vg_obs.Obs_recorder.create () in
  let obs = Vg_obs.Obs.create () in
  let k, result =
    Vg_obs.Obs.with_sink obs (Vg_obs.Obs_recorder.sink recorder) (fun () ->
        let k = Node.kernel (Node.boot (kconfig () |> Node_config.with_obs obs)) in
        (k, Module_loader.load k ~name:"evil_io" evil))
  in
  (match result with
  | Ok () -> Alcotest.fail "an unverifiable image was loaded"
  | Error
      (Module_loader.Cache_refused (Vg_compiler.Trans_cache.Rejected_by_verifier _)
       as err) ->
      Alcotest.(check string) "maps to ENOEXEC" "ENOEXEC"
        (Errno.to_string (Module_loader.errno_of_load_error err))
  | Error e -> Alcotest.failf "wrong error class: %s" (Module_loader.describe_load_error e));
  Alcotest.(check bool) "security event emitted" true
    (Vg_obs.Obs_recorder.count_matching recorder (function
       | Vg_obs.Obs.Event.Security { subsystem = "image-verify"; _ } -> true
       | _ -> false)
    > 0);
  Alcotest.(check (list string)) "no override registered" []
    (Module_loader.loaded_overrides k);
  let p = init k in
  let fd = expect_ok "open" (Syscalls.open_ k p "/f" Syscalls.creat_trunc) in
  Alcotest.(check int) "genuine read" 0
    (expect_ok "read" (Syscalls.read k p ~fd ~buf:user_buf ~len:10))

(* A module that traps at run time (here, division by a zero argument)
   loses its kernel thread, not the simulator: the call fails with
   EFAULT, one Security{module-trap} event records it, and the process
   and the module carry on. *)
let test_module_trap () =
  let divide () =
    let b = Builder.create () in
    Builder.func b "sys_read" ~params:[ "fd"; "buf"; "len" ];
    Builder.ret b (Some (Builder.bin b Udiv (Imm 100L) (Reg "len")));
    Builder.program b
  in
  List.iter
    (fun mode ->
      let recorder = Vg_obs.Obs_recorder.create () in
      let k = boot ~mode () in
      let p = init k in
      (match Module_loader.load k ~name:"divide" (divide ()) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "load: %s" (Module_loader.describe_load_error e));
      let trapped =
        Vg_obs.Obs.with_sink (Machine.obs k.Kernel.machine)
          (Vg_obs.Obs_recorder.sink recorder)
          (fun () -> Syscalls.read k p ~fd:0 ~buf:user_buf ~len:0)
      in
      Alcotest.(check string) "trapping call returns EFAULT" "EFAULT"
        (match trapped with Ok _ -> "ok" | Error e -> Errno.to_string e);
      (match Vg_obs.Obs_recorder.security_events recorder with
      | [ { event = Vg_obs.Obs.Event.Security { subsystem; detail }; _ } ] ->
          Alcotest.(check string) "event subsystem" "module-trap" subsystem;
          Alcotest.(check string) "event detail" "sys_read: udiv by zero" detail
      | events ->
          Alcotest.failf "expected one module-trap event, got %d security events"
            (List.length events));
      Alcotest.(check bool) "console reports the terminated thread" true
        (Console.contains (Machine.console k.Kernel.machine)
           "vg: kernel thread terminated: udiv by zero");
      Alcotest.(check int) "next syscall succeeds" 25
        (expect_ok "read" (Syscalls.read k p ~fd:0 ~buf:user_buf ~len:4)))
    [ Sva.Native_build; Sva.Virtual_ghost ]

(* A verified module copying from a mapped source to an unmapped kernel
   destination: the sandbox absorbs the fault, and the one Security
   event names the address that faulted, the destination. *)
let test_module_memcpy_fault_names_destination () =
  let dst = Int64.add Layout.kernel_data_start 0x4000_0000L in
  let copier () =
    let b = Builder.create () in
    Builder.func b "sys_read" ~params:[ "fd"; "buf"; "len" ];
    Builder.memcpy b ~dst:(Imm dst) ~src:(Reg "buf") ~len:(Imm 8L);
    Builder.ret b (Some (Imm 0L));
    Builder.program b
  in
  let recorder = Vg_obs.Obs_recorder.create () in
  let k = boot () in
  let p = init k in
  user_write k p user_buf (Bytes.of_string "mapped!!");
  (match Machine.read_virt k.Kernel.machine dst ~len:8 with
  | _ -> Alcotest.fail "destination must be unmapped"
  | exception Machine.Page_fault _ -> ());
  (match Module_loader.load k ~name:"copier" (copier ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "load: %s" (Module_loader.describe_load_error e));
  Vg_obs.Obs.with_sink (Machine.obs k.Kernel.machine)
    (Vg_obs.Obs_recorder.sink recorder)
    (fun () -> ignore (Syscalls.read k p ~fd:0 ~buf:user_buf ~len:8));
  match Vg_obs.Obs_recorder.security_events recorder with
  | [ { event = Vg_obs.Obs.Event.Security { subsystem; detail }; _ } ] ->
      Alcotest.(check string) "event subsystem" "sandbox" subsystem;
      Alcotest.(check string) "event detail"
        (Printf.sprintf "module memcpy at %s denied" (U64.to_hex dst))
        detail
  | events ->
      Alcotest.failf "expected one sandbox event, got %d security events"
        (List.length events)

(* ------------------------------------------------------------------ *)
(* Poll readiness                                                      *)

let test_poll_empty_set () =
  let k = boot () in
  let p = init k in
  Alcotest.(check (list int)) "empty set returns at once" []
    (expect_ok "poll" (Syscalls.poll k p []))

let test_poll_closed_fd_ready () =
  let k = boot () in
  let p = init k in
  let r, w = expect_ok "pipe" (Syscalls.pipe k p) in
  ignore (expect_ok "close" (Syscalls.close k p r));
  (* A dead descriptor must report ready (the caller's next operation
     gets its EBADF) instead of wedging the poller forever. *)
  Alcotest.(check (list int)) "closed fd ready" [ r ]
    (expect_ok "poll" (Syscalls.poll k p [ r ]));
  (* EOF counts as readable on a live descriptor too. *)
  let r2, _w2 = expect_ok "pipe" (Syscalls.pipe k p) in
  ignore (expect_ok "close w" (Syscalls.close k p w));
  ignore r2

let test_poll_level_triggered_rearm () =
  let k = boot () in
  let p = init k in
  let r, w = expect_ok "pipe" (Syscalls.pipe k p) in
  user_write k p user_buf (Bytes.of_string "!");
  ignore (expect_ok "write" (Syscalls.write k p ~fd:w ~buf:user_buf ~len:1));
  (* Level-triggered and non-consuming: ready stays ready until the
     data is actually read... *)
  Alcotest.(check (list int)) "ready" [ r ]
    (expect_ok "poll" (Syscalls.poll k p [ r ]));
  Alcotest.(check (list int)) "still ready (non-consuming)" [ r ]
    (expect_ok "poll" (Syscalls.poll k p [ r ]));
  ignore (expect_ok "read" (Syscalls.read k p ~fd:r ~buf:user_buf ~len:1));
  (* ... and re-arms: drained means not ready (no block hook installed,
     so poll degrades to one scan). *)
  Alcotest.(check (list int)) "drained re-arms" []
    (expect_ok "poll" (Syscalls.poll k p [ r ]));
  user_write k p user_buf (Bytes.of_string "!");
  ignore (expect_ok "write" (Syscalls.write k p ~fd:w ~buf:user_buf ~len:1));
  Alcotest.(check (list int)) "ready again" [ r ]
    (expect_ok "poll" (Syscalls.poll k p [ r ]))

(* ------------------------------------------------------------------ *)
(* The numbered ABI and the submission ring                            *)

let prop_errno_abi_roundtrip =
  QCheck2.Test.make ~name:"errno round-trips the numbered ABI" ~count:300
    QCheck2.Gen.(pair (oneofl Errno.all) (int_bound 1_000_000))
    (fun (e, n) ->
      Errno.of_int (Errno.to_int e) = Some e
      && Errno.of_string (Errno.to_string e) = Some e
      && Format.asprintf "%a" Errno.pp e = Errno.to_string e
      && Syscall_abi.decode_int (Syscall_abi.encode_int (Error e)) = Error e
      && Syscall_abi.decode_int (Syscall_abi.encode_int (Ok n)) = Ok n
      && Syscall_abi.decode_addr (Syscall_abi.encode_addr (Error e)) = Error e)

let test_abi_table_consistent () =
  List.iter
    (fun s ->
      let name = Syscall_abi.Sysno.to_name s in
      Alcotest.(check bool)
        (Printf.sprintf "of_name %s" name)
        true
        (Syscall_abi.Sysno.of_name name = Some s))
    Syscall_abi.Sysno.all;
  Alcotest.(check int) "table size" Syscall_abi.Sysno.count
    (List.length Syscall_abi.Sysno.all);
  Alcotest.(check bool) "unknown name" true
    (Syscall_abi.Sysno.of_name "no_such_call" = None);
  Alcotest.(check bool) "invalid sysno" true (Syscall_abi.Sysno.of_int (-1) = None);
  Alcotest.(check bool) "past-end sysno" true
    (Syscall_abi.Sysno.of_int Syscall_abi.Sysno.count = None)

(* The registered [Dispatch] entries are generated from the same table
   ([Entry.make] copies the descriptor), so name<->number bijection and
   the wire metadata can never drift apart. *)
let prop_abi_entry_agreement =
  QCheck2.Test.make ~name:"sysno bijection and Entry/arity agreement" ~count:200
    QCheck2.Gen.(int_range 0 (Syscall_abi.Sysno.count - 1))
    (fun n ->
      match Syscall_abi.Sysno.of_int n with
      | None -> false
      | Some s -> (
          let d = Syscall_abi.describe s in
          Syscall_abi.Sysno.of_name (Syscall_abi.Sysno.to_name s) = Some s
          && Syscall_abi.Sysno.to_int s = n
          && d.Syscall_abi.name = Syscall_abi.Sysno.to_name s
          && d.Syscall_abi.arity >= 0
          && d.Syscall_abi.arity <= 4
          && d.Syscall_abi.codec = Syscall_abi.codec s
          &&
          match Dispatch.entry s with
          | None -> false
          | Some e ->
              e.Syscall_abi.Entry.name = d.Syscall_abi.name
              && e.Syscall_abi.Entry.arity = d.Syscall_abi.arity
              && e.Syscall_abi.Entry.codec = d.Syscall_abi.codec
              && Syscall_abi.Sysno.equal e.Syscall_abi.Entry.sysno s))

let ring_base = 0x0000_0000_0070_0000L

(* Stage a ring in user memory the way the wrapper library would:
   zeroed header with sq_tail announcing the entries. *)
let stage_ring k p ~depth entries =
  let region = Bytes.make (Syscall_ring.region_bytes ~depth) '\000' in
  Bytes.set_int64_le region Syscall_ring.sq_tail_off
    (Int64.of_int (List.length entries));
  List.iteri
    (fun slot e ->
      Syscall_ring.write_sqe region ~off:(Syscall_ring.sqe_off ~depth ~slot) e)
    entries;
  user_write k p ring_base region

let read_cqe_slot k p ~depth slot =
  let off = Syscall_ring.cqe_off ~depth ~slot in
  Syscall_ring.read_cqe
    (user_read k p (Int64.add ring_base (Int64.of_int off)) Syscall_ring.cqe_bytes)
    ~off:0

let ring_counter k p off =
  Int64.to_int
    (Bytes.get_int64_le (user_read k p (Int64.add ring_base (Int64.of_int off)) 8) 0)

(* read, write, send and recv refuse a negative length with EINVAL on a
   file, a pipe and a socket, called directly and through a ring entry;
   no exception escapes the syscall layer. *)
let test_negative_lengths () =
  let k = boot () in
  let p = init k in
  let file = expect_ok "open" (Syscalls.open_ k p "/neg" Syscalls.creat_trunc) in
  let r, w = expect_ok "pipe" (Syscalls.pipe k p) in
  let lfd = expect_ok "listen" (Syscalls.listen k p ~port:80) in
  ignore (Netstack.Remote.connect k.Kernel.machine ~port:80);
  let sock = expect_ok "accept" (Syscalls.accept k p ~fd:lfd) in
  let calls =
    [
      ("read", Syscall_abi.sys_read, Syscalls.read, fun (rd, _) -> rd);
      ("write", Syscall_abi.sys_write, Syscalls.write, snd);
      ("send", Syscall_abi.sys_send, Syscalls.send, snd);
      ("recv", Syscall_abi.sys_recv, Syscalls.recv, fst);
    ]
  in
  List.iter
    (fun (what, fds) ->
      List.iter
        (fun (name, sysno, call, pick) ->
          List.iter
            (fun len ->
              let fd = pick fds in
              let label = Printf.sprintf "%s on a %s, len %d" name what len in
              expect_err Errno.EINVAL label (call k p ~fd ~buf:user_buf ~len);
              stage_ring k p ~depth:1
                [
                  {
                    Syscall_ring.sysno = Syscall_abi.Sysno.to_int sysno;
                    args = [| Int64.of_int fd; user_buf; Int64.of_int len |];
                    user_data = 1L;
                  };
                ];
              ignore (expect_ok "ring" (Syscalls.ring_enter k p ~ring:ring_base ~depth:1 ~to_submit:1));
              expect_err Errno.EINVAL (label ^ ", ring")
                (Syscall_abi.decode_int (read_cqe_slot k p ~depth:1 0).Syscall_ring.result))
            [ -1; min_int ])
        calls)
    [ ("file", (file, file)); ("pipe", (r, w)); ("socket", (sock, sock)) ]

let test_ring_enter_batch () =
  let k = boot () in
  let p = init k in
  let depth = 4 in
  stage_ring k p ~depth
    [
      { Syscall_ring.sysno = Syscall_abi.Sysno.to_int Syscall_abi.sys_getpid; args = [||]; user_data = 7L };
      { Syscall_ring.sysno = Syscall_abi.Sysno.to_int Syscall_abi.sys_getpid; args = [||]; user_data = 8L };
      { Syscall_ring.sysno = 999; args = [||]; user_data = 9L };
    ];
  Alcotest.(check int) "consumed" 3
    (expect_ok "ring_enter"
       (Syscalls.ring_enter k p ~ring:ring_base ~depth ~to_submit:3));
  Alcotest.(check int) "sq_head published" 3 (ring_counter k p Syscall_ring.sq_head_off);
  Alcotest.(check int) "cq_tail published" 3 (ring_counter k p Syscall_ring.cq_tail_off);
  let c0 = read_cqe_slot k p ~depth 0 and c1 = read_cqe_slot k p ~depth 1 in
  let c2 = read_cqe_slot k p ~depth 2 in
  Alcotest.(check bool) "cookies in order" true
    (c0.Syscall_ring.user_data = 7L && c1.Syscall_ring.user_data = 8L
    && c2.Syscall_ring.user_data = 9L);
  Alcotest.(check int) "getpid result" p.Proc.pid
    (expect_ok "cqe0" (Syscall_abi.decode_int c0.Syscall_ring.result));
  expect_err Errno.ENOSYS "unknown sysno refused"
    (Syscall_abi.decode_int c2.Syscall_ring.result)

let test_ring_enter_validation () =
  let k = boot () in
  let p = init k in
  expect_err Errno.EINVAL "depth 0"
    (Syscalls.ring_enter k p ~ring:ring_base ~depth:0 ~to_submit:1);
  expect_err Errno.EINVAL "negative to_submit"
    (Syscalls.ring_enter k p ~ring:ring_base ~depth:4 ~to_submit:(-1));
  (* The ring region itself must be traditional user memory: the
     kernel reads submissions and writes completions there, which is
     exactly what ghost memory forbids. *)
  expect_err Errno.EFAULT "ghost ring refused"
    (Syscalls.ring_enter k p ~ring:Layout.ghost_start ~depth:4 ~to_submit:1);
  expect_err Errno.EFAULT "kernel ring refused"
    (Syscalls.ring_enter k p ~ring:0L ~depth:4 ~to_submit:1)

let test_ring_amortises_trap_protocol () =
  (* One ring_enter with a batch of getpids must cost less than the
     same getpids as individual traps — the whole point of the ring. *)
  let batched, direct =
    let k = boot () in
    let p = init k in
    let n = 8 in
    let entries =
      List.init n (fun i ->
          { Syscall_ring.sysno = Syscall_abi.Sysno.to_int Syscall_abi.sys_getpid; args = [||];
            user_data = Int64.of_int i })
    in
    stage_ring k p ~depth:n entries;
    let m = k.Kernel.machine in
    let t0 = Machine.cycles m in
    ignore (expect_ok "ring" (Syscalls.ring_enter k p ~ring:ring_base ~depth:n ~to_submit:n));
    let t1 = Machine.cycles m in
    for _ = 1 to n do
      ignore (Syscalls.getpid k p)
    done;
    let t2 = Machine.cycles m in
    (t1 - t0, t2 - t1)
  in
  if batched >= direct then
    Alcotest.failf "batch of 8 cost %d cycles, direct calls %d" batched direct

(* ------------------------------------------------------------------ *)
(* Syscall-flow integrity                                              *)

let sysno_int = Syscall_abi.Sysno.to_int

let sfip_graph ~entries ~allows =
  let g = Vg_compiler.Sfip.create ~n:Syscall_abi.Sysno.count in
  List.iter (fun s -> Vg_compiler.Sfip.allow_entry g (sysno_int s)) entries;
  List.iter
    (fun (a, b) -> Vg_compiler.Sfip.allow g ~from:(sysno_int a) ~to_:(sysno_int b))
    allows;
  g

let count_sfip_kills recorder =
  Vg_obs.Obs_recorder.count_matching recorder (function
    | Vg_obs.Obs.Event.Security { subsystem = "sfip"; _ } -> true
    | _ -> false)

let with_sfip_events k f =
  let recorder = Vg_obs.Obs_recorder.create () in
  let result =
    Vg_obs.Obs.with_sink (Machine.obs k.Kernel.machine)
      (Vg_obs.Obs_recorder.sink recorder)
      f
  in
  (result, count_sfip_kills recorder)

let child k = expect_ok "create child" (Kernel.create_process k ~parent:(init k))

let test_esfip_distinct () =
  Alcotest.(check int) "ESFIP is 97" 97 (Errno.to_int Errno.ESFIP);
  Alcotest.(check bool) "distinct from EPERM" true
    (Errno.to_int Errno.ESFIP <> Errno.to_int Errno.EPERM);
  Alcotest.(check bool) "of_int inverts" true (Errno.of_int 97 = Some Errno.ESFIP);
  Alcotest.(check string) "spelled ESFIP" "ESFIP" (Errno.to_string Errno.ESFIP)

(* A direct out-of-policy trap kills the process: one Security{sfip}
   event, ESFIP to the caller, exit status 137, and every later
   syscall refused without a second report. *)
let test_sfip_direct_violation () =
  let k = boot () in
  let p = child k in
  p.Proc.policy <-
    Some
      (Syscall_policy.enforce
         (sfip_graph ~entries:[ Syscall_abi.sys_getpid ]
            ~allows:
              [
                (Syscall_abi.sys_getpid, Syscall_abi.sys_getpid);
                (Syscall_abi.sys_getpid, Syscall_abi.sys_open);
                (Syscall_abi.sys_open, Syscall_abi.sys_getpid);
              ]));
  let (), kills =
    with_sfip_events k (fun () ->
        ignore (Syscalls.getpid k p);
        let fd = expect_ok "in-policy open" (Syscalls.open_ k p "/s" Syscalls.creat_trunc) in
        ignore fd;
        ignore (Syscalls.getpid k p);
        expect_err Errno.ESFIP "out-of-policy unlink" (Syscalls.unlink k p "/s"))
  in
  Alcotest.(check int) "exactly one sfip event" 1 kills;
  Alcotest.(check bool) "process killed" true (Proc.is_zombie p);
  (* Killed means killed: later calls are refused cheaply and silently. *)
  let (), more =
    with_sfip_events k (fun () ->
        expect_err Errno.ESFIP "post-kill close" (Syscalls.close k p 3);
        expect_err Errno.ESFIP "post-kill open" (Syscalls.open_ k p "/t" Syscalls.rdonly))
  in
  Alcotest.(check int) "no further events" 0 more;
  let pid, status = expect_ok "reap" (Syscalls.wait k (init k)) in
  Alcotest.(check int) "reaped the killed pid" p.Proc.pid pid;
  Alcotest.(check int) "status 137" 137 status

(* An out-of-policy entry anywhere in a ring batch refuses the whole
   batch before anything runs: ESFIP from ring_enter, no completions,
   no header movement, one event. *)
let test_sfip_ring_precheck () =
  let k = boot () in
  let p = child k in
  p.Proc.policy <-
    Some
      (Syscall_policy.enforce
         (sfip_graph ~entries:[ Syscall_abi.sys_ring_enter ]
            ~allows:
              [
                (Syscall_abi.sys_ring_enter, Syscall_abi.sys_getpid);
                (Syscall_abi.sys_getpid, Syscall_abi.sys_getpid);
                (Syscall_abi.sys_getpid, Syscall_abi.sys_ring_enter);
              ]));
  let depth = 4 in
  let getpid u =
    { Syscall_ring.sysno = sysno_int Syscall_abi.sys_getpid; args = [||]; user_data = u }
  in
  stage_ring k p ~depth
    [
      getpid 1L;
      getpid 2L;
      { Syscall_ring.sysno = sysno_int Syscall_abi.sys_unlink; args = [||]; user_data = 3L };
      getpid 4L;
    ];
  let (), kills =
    with_sfip_events k (fun () ->
        expect_err Errno.ESFIP "batch refused"
          (Syscalls.ring_enter k p ~ring:ring_base ~depth ~to_submit:4))
  in
  Alcotest.(check int) "one sfip event for the batch" 1 kills;
  Alcotest.(check int) "nothing consumed" 0 (ring_counter k p Syscall_ring.sq_head_off);
  Alcotest.(check int) "nothing completed" 0 (ring_counter k p Syscall_ring.cq_tail_off);
  Alcotest.(check bool) "process killed" true (Proc.is_zombie p)

(* The same batch with the violation removed runs to completion under
   the same graph — the precheck is exact, not conservative. *)
let test_sfip_ring_clean_batch () =
  let k = boot () in
  let p = child k in
  p.Proc.policy <-
    Some
      (Syscall_policy.enforce
         (sfip_graph ~entries:[ Syscall_abi.sys_ring_enter ]
            ~allows:
              [
                (Syscall_abi.sys_ring_enter, Syscall_abi.sys_getpid);
                (Syscall_abi.sys_getpid, Syscall_abi.sys_getpid);
              ]));
  let depth = 4 in
  let entries =
    List.init 3 (fun i ->
        { Syscall_ring.sysno = sysno_int Syscall_abi.sys_getpid; args = [||];
          user_data = Int64.of_int i })
  in
  stage_ring k p ~depth entries;
  let consumed, kills =
    with_sfip_events k (fun () ->
        expect_ok "clean batch"
          (Syscalls.ring_enter k p ~ring:ring_base ~depth ~to_submit:3))
  in
  Alcotest.(check int) "all consumed" 3 consumed;
  Alcotest.(check int) "no events" 0 kills;
  Alcotest.(check int) "completions published" 3
    (ring_counter k p Syscall_ring.cq_tail_off);
  Alcotest.(check int) "getpid answered" p.Proc.pid
    (expect_ok "cqe" (Syscall_abi.decode_int (read_cqe_slot k p ~depth 0).Syscall_ring.result));
  Alcotest.(check bool) "process alive" true (not (Proc.is_zombie p))

(* Batch-split invariance: scanning a whole batch gives the same
   verdict as scanning a prefix, committing it, and scanning the rest
   — and both agree with one-at-a-time permits/note submission.  This
   is why a workload's verdict cannot depend on how its syscalls are
   grouped into ring batches. *)
let prop_sfip_scan_split_agreement =
  let sysno_gen = QCheck2.Gen.int_range 0 (Syscall_abi.Sysno.count - 1) in
  QCheck2.Test.make ~name:"sfip batch verdict is split-invariant" ~count:500
    QCheck2.Gen.(
      quad
        (list_size (int_bound 20) (pair sysno_gen sysno_gen))
        (list_size (int_bound 5) sysno_gen)
        (list_size (int_bound 12) sysno_gen)
        (int_bound 12))
    (fun (transitions, entries, seq, split) ->
      let g = Vg_compiler.Sfip.create ~n:Syscall_abi.Sysno.count in
      List.iter (Vg_compiler.Sfip.allow_entry g) entries;
      List.iter (fun (a, b) -> Vg_compiler.Sfip.allow g ~from:a ~to_:b) transitions;
      let arr = Array.of_list (List.filter_map Syscall_abi.Sysno.of_int seq) in
      let whole = Syscall_policy.scan (Syscall_policy.enforce g) arr in
      let sequential =
        let pol = Syscall_policy.enforce g in
        let rec go i =
          if i >= Array.length arr then Ok ()
          else if Syscall_policy.permits pol arr.(i) then begin
            Syscall_policy.note pol arr.(i);
            go (i + 1)
          end
          else Error i
        in
        go 0
      in
      let split = min split (Array.length arr) in
      let a = Array.sub arr 0 split in
      let b = Array.sub arr split (Array.length arr - split) in
      let split_verdict =
        let pol = Syscall_policy.enforce g in
        match Syscall_policy.scan pol a with
        | Error _ as e -> e
        | Ok () -> (
            Array.iter (Syscall_policy.note pol) a;
            match Syscall_policy.scan pol b with
            | Ok () -> Ok ()
            | Error i -> Error (split + i))
      in
      whole = sequential && whole = split_verdict)

(* Record mode never refuses; its profile serializes into an image
   section, decodes back, and the recorded workload replays cleanly
   under enforcement while one step outside it is refused. *)
let test_sfip_record_roundtrip () =
  let k = boot () in
  let p = child k in
  let recorder = Syscall_policy.record () in
  p.Proc.policy <- Some recorder;
  ignore (Syscalls.getpid k p);
  let fd = expect_ok "open" (Syscalls.open_ k p "/rec" Syscalls.creat_trunc) in
  ignore (expect_ok "close" (Syscalls.close k p fd));
  ignore (Syscalls.getpid k p);
  Alcotest.(check bool) "record never kills" true (not (Proc.is_zombie p));
  let wire = Syscall_policy.to_profile recorder in
  let enforced =
    match Syscall_policy.of_profile wire with
    | Some pol -> pol
    | None -> Alcotest.fail "profile did not decode"
  in
  Alcotest.(check bool) "graph survives the wire" true
    (Vg_compiler.Sfip.equal (Syscall_policy.graph recorder)
       (Syscall_policy.graph enforced));
  Alcotest.(check bool) "enforce mode after decode" true
    (Syscall_policy.mode enforced = Syscall_policy.Enforce);
  Alcotest.(check bool) "empty profile means unprofiled" true
    (Syscall_policy.of_profile Bytes.empty = None);
  let p2 = child k in
  p2.Proc.policy <- Some enforced;
  ignore (Syscalls.getpid k p2);
  let fd2 = expect_ok "replay open" (Syscalls.open_ k p2 "/rec2" Syscalls.creat_trunc) in
  ignore (expect_ok "replay close" (Syscalls.close k p2 fd2));
  ignore (Syscalls.getpid k p2);
  Alcotest.(check bool) "replay survives" true (not (Proc.is_zombie p2));
  expect_err Errno.ESFIP "one step outside" (Syscalls.unlink k p2 "/rec2")

(* Profiles travel inside the signed image: execve installs them, fork
   hands the child a fresh cursor over the shared graph, and a
   tampered profile breaks the signature. *)
let test_sfip_execve_and_fork () =
  let k = boot () in
  let p = child k in
  let profile =
    Syscall_policy.to_profile
      (Syscall_policy.enforce
         (sfip_graph ~entries:[ Syscall_abi.sys_getpid ]
            ~allows:
              [
                (Syscall_abi.sys_getpid, Syscall_abi.sys_getpid);
                (Syscall_abi.sys_getpid, Syscall_abi.sys_fork);
                (Syscall_abi.sys_fork, Syscall_abi.sys_getpid);
                (Syscall_abi.sys_getpid, Syscall_abi.sys_execve);
              ]))
  in
  let rng = Vg_crypto.Drbg.create ~seed:(Bytes.of_string "sfip-img") in
  let image =
    Appimage.install
      ~vg_key:(Sva.vg_private_key_for_installer k.Kernel.sva)
      ~rng ~name:"profiled"
      ~payload:(Bytes.of_string "program text of profiled")
      ~entry:0x400000L ~profile
      ~app_key:(Bytes.of_string "0123456789abcdef")
      ()
  in
  ignore (expect_ok "execve" (Syscalls.execve k p image));
  (match p.Proc.policy with
  | None -> Alcotest.fail "execve did not install the image profile"
  | Some pol ->
      Alcotest.(check bool) "enforce mode" true
        (Syscall_policy.mode pol = Syscall_policy.Enforce);
      Alcotest.(check bool) "fresh cursor" true (Syscall_policy.last pol = None));
  ignore (Syscalls.getpid k p);
  let c = expect_ok "fork" (Syscalls.fork k p) in
  (match (p.Proc.policy, c.Proc.policy) with
  | Some pp, Some cp ->
      Alcotest.(check bool) "parent cursor advanced" true
        (Syscall_policy.last pp <> None);
      Alcotest.(check bool) "child cursor fresh" true (Syscall_policy.last cp = None);
      Alcotest.(check bool) "graph shared with the child" true
        (Syscall_policy.graph cp == Syscall_policy.graph pp)
  | _ -> Alcotest.fail "fork must inherit the policy");
  (* Swapping the profile breaks the image signature. *)
  let p3 = child k in
  expect_err Errno.EACCES "tampered profile refused"
    (Syscalls.execve k p3 (Appimage.tamper_profile image));
  (* An unprofiled image clears any stale policy.  The execve itself
     is still judged under the old contract, so walk there in-policy:
     fork -> getpid -> execve. *)
  ignore (Syscalls.getpid k p);
  let plain = make_image k ~name:"plain" in
  ignore (expect_ok "re-exec plain" (Syscalls.execve k p plain));
  Alcotest.(check bool) "no profile, no policy" true (p.Proc.policy = None)

(* ------------------------------------------------------------------ *)
(* Cost shape                                                          *)

let test_vg_syscall_overhead_shape () =
  let cost mode =
    let k = boot ~mode () in
    let p = init k in
    ignore (Syscalls.getpid k p);
    Machine.reset_clock k.Kernel.machine;
    for _ = 1 to 100 do
      ignore (Syscalls.getpid k p)
    done;
    Machine.cycles k.Kernel.machine
  in
  let native = cost Sva.Native_build and vg = cost Sva.Virtual_ghost in
  let ratio = float_of_int vg /. float_of_int native in
  Alcotest.(check bool)
    (Printf.sprintf "null-syscall overhead plausible (got %.2fx)" ratio)
    true
    (ratio > 2.0 && ratio < 8.0)

(* ------------------------------------------------------------------ *)
(* The frame allocator's batch dual, and the ghost-swap pressure
   engine's watermark hysteresis.                                      *)

let prop_frame_alloc_roundtrip =
  QCheck2.Test.make
    ~name:"frame allocator: alloc_many/free_many round-trips free_count"
    ~count:200
    QCheck2.Gen.(list_size (int_range 1 20) (int_range 1 16))
    (fun batches ->
      let t = Frame_alloc.create ~first:100 ~last:400 in
      let initial = Frame_alloc.free_count t in
      let held = List.filter_map (Frame_alloc.alloc_many t) batches in
      List.iter (Frame_alloc.free_many t) held;
      Frame_alloc.free_count t = initial)

let test_free_many_rejects_bad_batches () =
  let t = Frame_alloc.create ~first:0 ~last:31 in
  let fs = Option.get (Frame_alloc.alloc_many t 4) in
  Frame_alloc.free_many t fs;
  let count_after = Frame_alloc.free_count t in
  Alcotest.check_raises "whole batch already free"
    (Invalid_argument "Frame_alloc.free_many: double free") (fun () ->
      Frame_alloc.free_many t fs);
  Alcotest.(check int) "failed batch freed nothing" count_after
    (Frame_alloc.free_count t);
  let g = Option.get (Frame_alloc.alloc_many t 2) in
  Alcotest.check_raises "duplicated frame in one batch"
    (Invalid_argument "Frame_alloc.free_many: duplicate frame") (fun () ->
      Frame_alloc.free_many t (g @ g));
  Alcotest.(check int) "failed batch freed nothing" (count_after - 2)
    (Frame_alloc.free_count t);
  (* A single stale frame poisons the whole batch — the valid ones in
     front of it must stay allocated. *)
  let h = Option.get (Frame_alloc.alloc_many t 3) in
  Frame_alloc.free t (List.nth h 2);
  let before = Frame_alloc.free_count t in
  Alcotest.check_raises "stale frame mid-batch"
    (Invalid_argument "Frame_alloc.free_many: double free") (fun () ->
      Frame_alloc.free_many t h);
  Alcotest.(check int) "all-or-nothing" before (Frame_alloc.free_count t)

let test_swap_watermark_hysteresis () =
  let k =
    Node.kernel
      (Node.boot
         Node_config.(
           default |> with_phys_frames 8192 |> with_disk_sectors 16384
           |> with_seed "hyst" |> with_frame_limit 96))
  in
  let proc = expect_ok "create" (Kernel.create_process k ~parent:(init k)) in
  let va = Int64.add Layout.ghost_start 0x100000L in
  (match Syscalls.allocgm k proc ~va ~pages:24 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "allocgm: %s" (Errno.to_string e));
  let avail0 = Ghost_swap.available k in
  (* Pin the watermarks just above current availability: the engine is
     under pressure and must reclaim up to [high] in one episode. *)
  Ghost_swap.set_watermarks k ~low:(avail0 + 4) ~high:(avail0 + 8);
  Alcotest.(check int) "reclaims to the high watermark" 8 (Ghost_swap.balance k);
  Alcotest.(check int) "availability at high" (avail0 + 8)
    (Ghost_swap.available k);
  (* At the high watermark: nothing further to do. *)
  Alcotest.(check int) "no ping-pong at high" 0 (Ghost_swap.balance k);
  (* Dip below high but not below low: hysteresis keeps the engine
     quiet instead of chasing the high watermark on every wobble. *)
  (match Ghost_swap.take_frames k 3 with
  | Some _ -> ()
  | None -> Alcotest.fail "take_frames");
  Alcotest.(check int) "between the marks: still quiet" 0 (Ghost_swap.balance k);
  (* Now cross below low: one reclaim episode refills to high. *)
  (match Ghost_swap.take_frames k 2 with
  | Some _ -> ()
  | None -> Alcotest.fail "take_frames");
  Alcotest.(check bool) "below low engages" true (Ghost_swap.balance k > 0);
  Alcotest.(check int) "refilled to high" (avail0 + 8) (Ghost_swap.available k);
  let st = Ghost_swap.stats k in
  Alcotest.(check int) "two reclaim episodes" 2 st.Ghost_swap.reclaims;
  Alcotest.(check bool) "pages went out" true (st.Ghost_swap.swap_outs >= 13)

let () =
  Alcotest.run "vg_kernel"
    [
      ( "boot",
        [
          Alcotest.test_case "boots with init" `Quick test_boot;
          Alcotest.test_case "fs persists across reboot" `Quick test_fs_persists_across_reboot;
        ] );
      ( "diskfs",
        [
          Alcotest.test_case "create/read/write" `Quick test_fs_create_read_write;
          Alcotest.test_case "large file (indirect)" `Quick test_fs_large_file_indirect;
          Alcotest.test_case "unlink frees space" `Quick test_fs_unlink_frees_space;
          Alcotest.test_case "directories" `Quick test_fs_directories;
          Alcotest.test_case "errors" `Quick test_fs_errors;
          Alcotest.test_case "truncate" `Quick test_fs_truncate;
          QCheck_alcotest.to_alcotest prop_diskfs_model;
        ] );
      ( "syscalls-files",
        [
          Alcotest.test_case "file io" `Quick test_syscall_file_io;
          Alcotest.test_case "pipes" `Quick test_syscall_pipe;
          Alcotest.test_case "EPIPE" `Quick test_pipe_epipe;
          Alcotest.test_case "rename + readdir" `Quick test_rename;
          Alcotest.test_case "fstat + dup2" `Quick test_fstat_dup2;
        ] );
      ( "processes",
        [
          Alcotest.test_case "fork + wait" `Quick test_fork_and_wait;
          Alcotest.test_case "exec" `Slow test_exec;
          Alcotest.test_case "tampered image refused" `Slow test_exec_refuses_tampered_image;
          Alcotest.test_case "native skips validation" `Quick test_exec_native_skips_validation;
        ] );
      ( "memory",
        [
          Alcotest.test_case "mmap/munmap" `Quick test_mmap_munmap;
          Alcotest.test_case "page fault handler" `Quick test_page_fault_handler;
          Alcotest.test_case "ghost isolation end-to-end" `Quick
            test_ghost_isolation_end_to_end;
          Alcotest.test_case "freegm syscall" `Quick test_freegm_syscall;
          Alcotest.test_case "exit releases ghost" `Quick test_exit_releases_ghost;
        ] );
      ( "ghost-swap",
        [
          QCheck_alcotest.to_alcotest prop_frame_alloc_roundtrip;
          Alcotest.test_case "free_many rejects bad batches" `Quick
            test_free_many_rejects_bad_batches;
          Alcotest.test_case "watermark hysteresis" `Quick
            test_swap_watermark_hysteresis;
        ] );
      ( "cow",
        [
          Alcotest.test_case "sharing and breaking" `Quick test_cow_sharing_and_breaking;
          Alcotest.test_case "kernel copyout breaks share" `Quick
            test_cow_kernel_copyout_breaks_share;
          Alcotest.test_case "frames released once" `Quick test_cow_frames_released_once;
        ] );
      ( "signals",
        [
          Alcotest.test_case "delivery via VM" `Quick test_signal_delivery_via_vm;
          Alcotest.test_case "unregistered handler blocked" `Quick
            test_signal_unregistered_handler_blocked;
          Alcotest.test_case "errors" `Quick test_kill_errors;
        ] );
      ( "net",
        [
          Alcotest.test_case "socket end-to-end" `Quick test_socket_end_to_end;
          Alcotest.test_case "select" `Quick test_select;
          Alcotest.test_case "netstack details" `Quick test_netstack_details;
          Alcotest.test_case "harness and kernel ids disjoint" `Quick test_conn_ids_disjoint;
          QCheck_alcotest.to_alcotest prop_pipe_model;
          QCheck_alcotest.to_alcotest prop_pipe_fifo_sizes;
        ] );
      ( "bulk-copy",
        [
          QCheck_alcotest.to_alcotest prop_kmem_read_matches_bytes;
          QCheck_alcotest.to_alcotest prop_kmem_write_matches_bytes;
        ] );
      ( "copy-alloc",
        [
          Alcotest.test_case "Kmem.read_bytes 16 KiB" `Quick test_kmem_read_allocation;
          Alcotest.test_case "Kmem.write_bytes 16 KiB" `Quick test_kmem_write_allocation;
          Alcotest.test_case "recv_all_available 64 KiB" `Quick
            test_recv_all_available_allocation;
        ] );
      ( "modules",
        [
          Alcotest.test_case "override" `Quick test_module_override;
          Alcotest.test_case "refuses unverified" `Quick test_refuses_unverified;
          Alcotest.test_case "trap returns EFAULT" `Quick test_module_trap;
          Alcotest.test_case "memcpy fault names destination" `Quick
            test_module_memcpy_fault_names_destination;
          Alcotest.test_case "chains to genuine" `Quick test_module_chains_to_genuine;
          Alcotest.test_case "malformed rejected" `Quick test_malformed_module_rejected;
          Alcotest.test_case "privileged module rejected" `Quick
            test_privileged_module_rejected;
        ] );
      ( "poll",
        [
          Alcotest.test_case "empty set" `Quick test_poll_empty_set;
          Alcotest.test_case "closed fd ready" `Quick test_poll_closed_fd_ready;
          Alcotest.test_case "level-triggered re-arm" `Quick
            test_poll_level_triggered_rearm;
        ] );
      ( "ring-abi",
        [
          QCheck_alcotest.to_alcotest prop_errno_abi_roundtrip;
          Alcotest.test_case "abi table consistent" `Quick test_abi_table_consistent;
          QCheck_alcotest.to_alcotest prop_abi_entry_agreement;
          Alcotest.test_case "ring_enter batch" `Quick test_ring_enter_batch;
          Alcotest.test_case "ring_enter validation" `Quick test_ring_enter_validation;
          Alcotest.test_case "negative lengths EINVAL" `Quick test_negative_lengths;
          Alcotest.test_case "ring amortises trap protocol" `Quick
            test_ring_amortises_trap_protocol;
        ] );
      ( "sfip",
        [
          Alcotest.test_case "ESFIP distinct from EPERM" `Quick test_esfip_distinct;
          Alcotest.test_case "direct violation kills" `Quick test_sfip_direct_violation;
          Alcotest.test_case "ring batch prechecked" `Quick test_sfip_ring_precheck;
          Alcotest.test_case "clean ring batch runs" `Quick test_sfip_ring_clean_batch;
          QCheck_alcotest.to_alcotest prop_sfip_scan_split_agreement;
          Alcotest.test_case "record/profile roundtrip" `Quick
            test_sfip_record_roundtrip;
          Alcotest.test_case "execve installs, fork clones" `Slow
            test_sfip_execve_and_fork;
        ] );
      ( "cost",
        [ Alcotest.test_case "vg syscall overhead" `Quick test_vg_syscall_overhead_shape ] );
    ]
