let secret = "ghost-page-secret-value!"

let boot_config ?(cpus = 1) ~seed mode =
  Vg_fleet.Node_config.(
    default |> with_cpus cpus |> with_phys_frames 8192
    |> with_disk_sectors 8192 |> with_seed seed |> with_mode mode)

let boot mode =
  Vg_fleet.Node.kernel (Vg_fleet.Node.boot (boot_config ~seed:"oatk" mode))

(* Plant the secret in a fresh process's ghost page; return everything
   the attacks need. *)
let plant k =
  let init = Kernel.init_process k in
  let proc =
    match Kernel.create_process k ~parent:init with
    | Ok p -> p
    | Error _ -> failwith "plant: create_process"
  in
  let va = Int64.add Layout.ghost_start 0x200000L in
  (match Syscalls.allocgm k proc ~va ~pages:1 with
  | Ok () -> ()
  | Error _ -> failwith "plant: allocgm");
  Kernel.switch_to k proc;
  Machine.set_privilege k.Kernel.machine Machine.User;
  Machine.write_bytes_virt k.Kernel.machine va (Bytes.of_string secret);
  Machine.set_privilege k.Kernel.machine Machine.Kernel;
  let frame =
    match Pagetable.lookup proc.Proc.pt ~vpage:(Int64.shift_right_logical va 12) with
    | Some pte -> pte.Pagetable.frame
    | None -> failwith "plant: page vanished"
  in
  (proc, va, frame)

let mmu_remap_attack ~mode =
  let k = boot mode in
  let proc, _va, frame = plant k in
  (* Map the ghost frame at a kernel-accessible user address and read
     it with an ordinary (instrumented) kernel access. *)
  let attack_va = 0x0000_0000_00a0_0000L in
  match
    Sva.map_page k.Kernel.sva proc.Proc.pt ~va:attack_va ~frame
      ~perm:{ writable = false; user = false; executable = false }
  with
  | Error _ -> false (* the VM refused the mapping *)
  | Ok () ->
      Machine.flush_tlb k.Kernel.machine;
      let data = Kmem.read_bytes k.Kernel.kmem attack_va ~len:(String.length secret) in
      Bytes.to_string data = secret

let dma_attack ~mode =
  let k = boot mode in
  let _proc, _va, frame = plant k in
  (* First, try to strip IOMMU protection through its control port (a
     native kernel can; the VM refuses the port write). *)
  (match Sva.io_write k.Kernel.sva ~port:Sva.iommu_config_port 0L with
  | Ok () | Error _ -> ());
  (* Then DMA the frame to "the device". *)
  let phys = Int64.shift_left (Int64.of_int frame) 12 in
  match
    Iommu.dma_read (Machine.iommu k.Kernel.machine) (Machine.mem k.Kernel.machine)
      ~addr:phys ~len:(String.length secret)
  with
  | exception Iommu.Dma_blocked _ -> false
  | data -> Bytes.to_string data = secret

let icontext_tamper_attack ~mode =
  let k = boot mode in
  let init = Kernel.init_process k in
  let proc =
    match Kernel.create_process k ~parent:init with
    | Ok p -> p
    | Error _ -> failwith "create_process"
  in
  let evil_pc = 0x0000_0000_0066_6000L in
  (* Interrupt the victim, then scribble over the saved pc wherever the
     kernel can reach it. *)
  Sva.enter_trap k.Kernel.sva ~tid:proc.Proc.tid;
  (match Sva.native_ic_address k.Kernel.sva ~tid:proc.Proc.tid with
  | Some ic_va ->
      (* Baseline: the context sits on the kernel stack in plain view. *)
      Kmem.store k.Kernel.kmem ic_va ~len:8 evil_pc
  | None ->
      (* Virtual Ghost: guess the SVA-internal mirror location and write
         through an instrumented kernel store. *)
      let guess = Int64.add Layout.sva_start 0x4000L in
      Kmem.store k.Kernel.kmem guess ~len:8 evil_pc);
  Sva.return_from_trap k.Kernel.sva ~tid:proc.Proc.tid;
  (Sva.thread_icontext k.Kernel.sva ~tid:proc.Proc.tid).Icontext.pc = evil_pc

(* A hostile mmap handler that returns a pointer into the
   application's own ghost heap (where the runtime's first heap
   object — the secret — lives). *)
let evil_mmap_program () =
  let b = Builder.create () in
  Builder.func b "sys_mmap" ~params:[ "len" ];
  Builder.ret b (Some (Ir.Imm (Int64.add Layout.ghost_start 0x1000_0000L)));
  Builder.program b

let iago_mmap_attack ~mode ~ghosting:masked =
  let k = boot mode in
  Syscalls.register_builtin_externs k;
  (match Module_loader.load k ~name:"iago" (evil_mmap_program ()) with
  | Ok () -> ()
  | Error e -> failwith (Module_loader.describe_load_error e));
  let corrupted = ref false in
  Runtime.launch k ~ghosting:true (fun ctx ->
      (* The application keeps a secret at the bottom of its ghost
         heap... *)
      let secret_va = Runtime.galloc ctx 32 in
      Runtime.poke ctx secret_va (Bytes.of_string secret);
      (* ...asks for scratch memory, and writes into what it got.
         [masked] selects whether the binary carries the Iago-defence
         pass: the wrapper masks the pointer; the raw syscall does not.
         A masked pointer may point at unmapped memory — the write then
         faults harmlessly instead of corrupting the secret. *)
      let scratch =
        if masked then Runtime.sys_mmap ctx ~len:4096
        else Syscalls.mmap ctx.Runtime.kernel ctx.Runtime.proc ~len:4096
      in
      (try
         match scratch with
         | Ok va -> Runtime.poke ctx va (Bytes.make 32 'X')
         | Error _ -> ()
       with Runtime.App_crash _ -> ());
      corrupted := Bytes.to_string (Runtime.peek ctx secret_va 24) <> secret);
  Module_loader.unload k ~name:"iago";
  !corrupted

(* A hostile (or merely compromised) ring consumer submits a [write]
   whose buffer register aims at the application's ghost secret — the
   batched equivalent of handing the kernel a ghost pointer in a
   direct syscall.  Under Virtual Ghost the kernel's instrumented
   copyin masks the access: the exfil file fills with zeros, not the
   secret, and the sandbox announces itself on the event stream. *)
let ring_ghost_buffer_attack ~mode =
  let k = boot mode in
  let leaked = ref false in
  Runtime.launch k ~ghosting:true (fun ctx ->
      let secret_va = Runtime.galloc ctx 32 in
      Runtime.poke ctx secret_va (Bytes.of_string secret);
      match Runtime.sys_open ctx "/exfil" Syscalls.creat_trunc with
      | Error _ -> ()
      | Ok fd ->
          let ring = Uring.create ctx ~depth:4 in
          ignore
            (Uring.submit ring ~sysno:Syscall_abi.sys_write
               ~args:
                 [|
                   Int64.of_int fd; secret_va; Int64.of_int (String.length secret);
                 |]
               ~user_data:1L);
          (match Uring.enter ring ~to_submit:1 with Ok _ | Error _ -> ());
          ignore (Uring.reap ring);
          ignore (Runtime.sys_close ctx fd);
          leaked :=
            (match Diskfs.lookup k.Kernel.fs "/exfil" with
            | Error _ -> false
            | Ok ino -> (
                match
                  Diskfs.read k.Kernel.fs ~ino ~off:0 ~len:(String.length secret)
                with
                | Ok b -> Bytes.to_string b = secret
                | Error _ -> false)));
  !leaked

let read_raw_file k path =
  match Diskfs.lookup k.Kernel.fs path with
  | Error _ -> None
  | Ok ino -> (
      match Diskfs.stat k.Kernel.fs ~ino with
      | Error _ -> None
      | Ok st -> (
          match Diskfs.read k.Kernel.fs ~ino ~off:0 ~len:st.Diskfs.size with
          | Ok b -> Some b
          | Error _ -> None))

let write_raw_file k path data =
  match Diskfs.lookup k.Kernel.fs path with
  | Error _ -> ()
  | Ok ino ->
      ignore (Diskfs.truncate k.Kernel.fs ~ino ~len:0);
      ignore (Diskfs.write k.Kernel.fs ~ino ~off:0 data)

let file_replay_attack ~mode =
  let k = Vg_fleet.Node.kernel (Vg_fleet.Node.boot (boot_config ~seed:"replay" mode)) in
  match mode with
  | Sva.Native_build ->
      (* Baseline: plain files, nothing versioned.  The OS keeps v1,
         lets the app write v2, then silently restores v1 — the app has
         no way to notice. *)
      let accepted_stale = ref false in
      Runtime.launch k ~ghosting:false (fun ctx ->
          let write_config s =
            match Runtime.sys_open ctx "/config" Syscalls.creat_trunc with
            | Error _ -> ()
            | Ok fd ->
                ignore (Runtime.write_string ctx ~fd s);
                ignore (Runtime.sys_close ctx fd)
          in
          write_config "allow-login=no";
          let v1 = read_raw_file k "/config" in
          write_config "allow-login=yes-strictly-mfa";
          (match v1 with Some b -> write_raw_file k "/config" b | None -> ());
          match Runtime.sys_open ctx "/config" Syscalls.rdonly with
          | Error _ -> ()
          | Ok fd -> (
              let buf = Runtime.ualloc ctx 128 in
              match Syscalls.read ctx.Runtime.kernel ctx.Runtime.proc ~fd ~buf ~len:128 with
              | Ok n ->
                  accepted_stale :=
                    Bytes.to_string (Runtime.peek ctx buf n) = "allow-login=no"
              | Error _ -> ()));
      !accepted_stale
  | Sva.Virtual_ghost ->
      (* Virtual Ghost: the replay-protected sealed store. *)
      let accepted_stale = ref false in
      let _, _, image = Ssh_suite.install_images k ~app_key:(Bytes.make 16 'r') in
      Runtime.launch k ~image ~ghosting:true (fun ctx ->
          (match Sealed_store.save ctx ~path:"/config" (Bytes.of_string "v1") with
          | Ok () -> ()
          | Error _ -> failwith "save v1");
          let v1 = read_raw_file k "/config" in
          (match Sealed_store.save ctx ~path:"/config" (Bytes.of_string "v2") with
          | Ok () -> ()
          | Error _ -> failwith "save v2");
          (match v1 with Some b -> write_raw_file k "/config" b | None -> ());
          match Sealed_store.load ctx ~path:"/config" with
          | Ok data -> accepted_stale := Bytes.to_string data = "v1"
          | Error _ -> accepted_stale := false);
      !accepted_stale

let swap_tamper_attack ~mode =
  let k = boot mode in
  let proc, va, frame = plant k in
  match mode with
  | Sva.Native_build ->
      (* No sealed swapping exists on the baseline: the kernel "swaps"
         by reading the frame directly — trivially successful. *)
      let phys = Int64.shift_left (Int64.of_int frame) 12 in
      let page = Phys_mem.read_bytes (Machine.mem k.Kernel.machine) ~addr:phys ~len:24 in
      Bytes.to_string page = secret
  | Sva.Virtual_ghost -> (
      match Sva.swap_out_ghost k.Kernel.sva ~pid:proc.Proc.pid ~pt:proc.Proc.pt ~va with
      | Error _ -> false
      | Ok (frame, blob) ->
          (* The blob is ciphertext; flip a byte and try to swap it
             back in. *)
          Bytes.set blob 64 (Char.chr (Char.code (Bytes.get blob 64) lxor 1));
          (match
             Sva.swap_in_ghost k.Kernel.sva ~pid:proc.Proc.pid ~pt:proc.Proc.pt ~va
               ~frame ~blob
           with
          | Ok () -> true (* tampering went undetected: attack success *)
          | Error _ -> false))

(* ------------------------------------------------------------------ *)
(* Hostile-eviction vectors: the kernel owns ghost-swap policy and
   blob storage ([Ghost_swap]), which is exactly the attack surface —
   it can replay, substitute and thrash at will.  Only the VM's
   sealing (integrity + freshness) stands between that and the
   application's ghost data.  These arms drive the real kernel swap
   paths, not the SVA primitives directly. *)

let swap_blob_path (proc : Proc.t) va =
  Printf.sprintf "/swap/p%d-%Lx" proc.Proc.pid (Int64.shift_right_logical va 12)

let read_ghost k (proc : Proc.t) va len =
  Kernel.switch_to k proc;
  Machine.set_privilege k.Kernel.machine Machine.User;
  let b = Machine.read_bytes_virt k.Kernel.machine va ~len in
  Machine.set_privilege k.Kernel.machine Machine.Kernel;
  b

let write_ghost k (proc : Proc.t) va data =
  Kernel.switch_to k proc;
  Machine.set_privilege k.Kernel.machine Machine.User;
  Machine.write_bytes_virt k.Kernel.machine va data;
  Machine.set_privilege k.Kernel.machine Machine.Kernel

let swap_replay_attack ~mode =
  let k = boot mode in
  let proc, va, _frame = plant k in
  let path = swap_blob_path proc va in
  let fail msg = failwith ("swap_replay_attack: " ^ msg) in
  (* Epoch 1: the page (holding the secret) goes out; the OS keeps a
     copy of the stored blob before faulting the page back in. *)
  (match Ghost_swap.swap_out_page k proc ~va with Ok () -> () | Error m -> fail m);
  let v1 =
    match read_raw_file k path with Some b -> b | None -> fail "no stored blob"
  in
  (match Ghost_swap.swap_in_page k proc va with
  | Ok () -> ()
  | Error _ -> fail "legitimate swap-in refused");
  (* The application rotates its secret; the new page goes out. *)
  write_ghost k proc va (Bytes.of_string "rotated-ghost-secret-v2!");
  (match Ghost_swap.swap_out_page k proc ~va with Ok () -> () | Error m -> fail m);
  (* Replay: the OS substitutes the stale — but authentically sealed —
     epoch-1 blob and lets the fault bring it in. *)
  write_raw_file k path v1;
  match Ghost_swap.swap_in_page k proc va with
  | Error _ -> false (* the VM spotted the stale version *)
  | Ok () -> Bytes.to_string (read_ghost k proc va (String.length secret)) = secret

let swap_substitution_attack ~mode =
  let k = boot mode in
  let victim, va, _frame = plant k in
  let fail msg = failwith ("swap_substitution_attack: " ^ msg) in
  (* A colluding process with its own ghost page at the same address —
     ghost partitions are per-process, so the shape is identical. *)
  let mule =
    match Kernel.create_process k ~parent:(Kernel.init_process k) with
    | Ok p -> p
    | Error _ -> fail "create_process"
  in
  (match Syscalls.allocgm k mule ~va ~pages:1 with
  | Ok () -> ()
  | Error _ -> fail "allocgm");
  write_ghost k mule va (Bytes.make (String.length secret) '.');
  (* Both pages go out; the OS then serves the victim's blob in place
     of the mule's and faults the mule's page back in. *)
  (match Ghost_swap.swap_out_page k victim ~va with Ok () -> () | Error m -> fail m);
  (match Ghost_swap.swap_out_page k mule ~va with Ok () -> () | Error m -> fail m);
  (match read_raw_file k (swap_blob_path victim va) with
  | Some blob -> write_raw_file k (swap_blob_path mule va) blob
  | None -> fail "no stored blob");
  match Ghost_swap.swap_in_page k mule va with
  | Error _ -> false (* the VM spotted the foreign header *)
  | Ok () -> Bytes.to_string (read_ghost k mule va (String.length secret)) = secret

let swap_thrash_attack ~mode =
  let k = boot mode in
  let proc, va, _frame = plant k in
  let fail msg = failwith ("swap_thrash_attack: " ^ msg) in
  (* Thrash-bomb: victimise the same hot page over and over (the
     threat model permits this denial of service — the OS owns
     policy), collecting every blob that crosses the boundary and
     using the collection as an oracle. *)
  let rounds = 8 in
  let blobs = ref [] in
  for _ = 1 to rounds do
    (match Ghost_swap.swap_out_page k proc ~va with Ok () -> () | Error m -> fail m);
    (match read_raw_file k (swap_blob_path proc va) with
    | Some b -> blobs := Bytes.to_string b :: !blobs
    | None -> fail "no stored blob");
    match Ghost_swap.swap_in_page k proc va with
    | Ok () -> ()
    | Error _ -> fail "legitimate swap-in refused"
  done;
  let contains_sub hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let leaked_plaintext = List.exists (fun b -> contains_sub b secret) !blobs in
  (* A deterministic seal would leak too: identical blobs tell the OS
     the page did not change between evictions (an equality oracle).
     Virtual Ghost versions every seal, so all blobs must differ. *)
  let module SS = Set.Make (String) in
  let equality_oracle = SS.cardinal (SS.of_list !blobs) < rounds in
  leaked_plaintext || equality_oracle

(* ------------------------------------------------------------------ *)
(* Syscall-flow integrity (SFIP) vectors: a hijacked process tries to
   drive the kernel through a syscall sequence its profile never
   contains.  On the baseline there is no signed profile (signatures
   do not exist), so the sequence executes; under Virtual Ghost the
   dispatcher refuses the first out-of-policy transition, kills the
   process and answers [ESFIP]. *)

(* The victim's honest workload: write a config file once, then read
   it back in a loop — open/read/close and nothing network-shaped. *)
let sfip_victim_workload ctx =
  (match Runtime.sys_open ctx "/sfip-config" Syscalls.creat_trunc with
  | Error _ -> ()
  | Ok fd ->
      ignore (Runtime.write_string ctx ~fd secret);
      ignore (Runtime.sys_close ctx fd));
  for _ = 1 to 3 do
    match Runtime.sys_open ctx "/sfip-config" Syscalls.rdonly with
    | Error _ -> ()
    | Ok fd ->
        let buf = Runtime.ualloc ctx 64 in
        ignore (Syscalls.read ctx.Runtime.kernel ctx.Runtime.proc ~fd ~buf ~len:64);
        ignore (Runtime.sys_close ctx fd)
  done

(* Profile extraction for a closure app: run the honest workload once
   under a [Record] policy (the administrator's profiling run). *)
let sfip_record k workload =
  let recorder = Syscall_policy.record () in
  Runtime.launch k ~sfip:recorder ~ghosting:false workload;
  recorder

(* The hijacked continuation: ship the config out over the network —
   [connect] then [send], neither reachable from the victim's graph. *)
let sfip_exfil ctx =
  let k = ctx.Runtime.kernel and proc = ctx.Runtime.proc in
  match Syscalls.connect k proc ~port:4444 with
  | Error _ -> false
  | Ok fd -> (
      let buf = Runtime.ualloc ctx 64 in
      Runtime.poke ctx buf (Bytes.of_string secret);
      match Syscalls.send k proc ~fd ~buf ~len:(String.length secret) with
      | Ok n -> n > 0
      | Error _ -> false)

let sfip_sequence_attack ~mode =
  let k = boot mode in
  let sfip =
    match mode with
    | Sva.Native_build -> None (* no profile deployed: nothing to sign it with *)
    | Sva.Virtual_ghost ->
        Some (Syscall_policy.enforce
                (Syscall_policy.graph (sfip_record k sfip_victim_workload)))
  in
  let exfiltrated = ref false in
  Runtime.launch k ?sfip ~ghosting:false (fun ctx ->
      sfip_victim_workload ctx;
      exfiltrated := sfip_exfil ctx);
  !exfiltrated

(* Ring variant: the out-of-policy call hides in the middle of an
   otherwise-benign batch.  The whole batch is vetted before any entry
   runs, so under enforcement even the benign prefix never executes. *)
let sfip_ring_sequence_attack ~mode =
  let k = boot mode in
  let benign_batches ring =
    for _ = 1 to 2 do
      for _ = 1 to 2 do
        ignore
          (Uring.submit ring ~sysno:Syscall_abi.sys_getpid ~args:[||]
             ~user_data:0L)
      done;
      (match Uring.enter ring ~to_submit:2 with Ok _ | Error _ -> ());
      ignore (Uring.reap ring)
    done
  in
  let sfip =
    match mode with
    | Sva.Native_build -> None
    | Sva.Virtual_ghost ->
        Some (Syscall_policy.enforce
                (Syscall_policy.graph
                   (sfip_record k (fun ctx ->
                        benign_batches (Uring.create ctx ~depth:8)))))
  in
  let exfil_cookie = 7L in
  let connected = ref false in
  Runtime.launch k ?sfip ~ghosting:false (fun ctx ->
      let ring = Uring.create ctx ~depth:8 in
      benign_batches ring;
      (* Hijacked: same shape of batch, but the middle entry now opens
         a connection to the attacker. *)
      ignore (Uring.submit ring ~sysno:Syscall_abi.sys_getpid ~args:[||] ~user_data:0L);
      ignore
        (Uring.submit ring ~sysno:Syscall_abi.sys_connect ~args:[| 4444L |]
           ~user_data:exfil_cookie);
      ignore (Uring.submit ring ~sysno:Syscall_abi.sys_getpid ~args:[||] ~user_data:0L);
      (match Uring.enter ring ~to_submit:3 with Ok _ | Error _ -> ());
      List.iter
        (fun (c : Syscall_ring.cqe) ->
          if
            c.Syscall_ring.user_data = exfil_cookie
            && Result.is_ok (Syscall_abi.decode_int c.Syscall_ring.result)
          then connected := true)
        (Uring.reap ring));
  !connected

(* The OS cannot forge a profile either: profiles ride inside the
   signed image region, so swapping in a permissive one (here recorded
   from the attack itself) breaks the signature and [execve] refuses
   the image.  The baseline performs no signature check — the
   permissive profile loads and the exfiltration runs in-"policy". *)
let sfip_profile_swap_attack ~mode =
  let k = boot mode in
  let strict = sfip_record k sfip_victim_workload in
  let vg_key = Sva.vg_private_key_for_installer k.Kernel.sva in
  let rng = Vg_crypto.Drbg.create ~seed:(Bytes.of_string "sfip-swap") in
  let image =
    Appimage.install ~vg_key ~rng ~name:"sfip-victim"
      ~payload:(Bytes.of_string "text segment of sfip-victim")
      ~entry:0x400000L
      ~profile:(Syscall_policy.to_profile strict)
      ~app_key:(Bytes.make 16 'k') ()
  in
  let permissive =
    sfip_record k (fun ctx ->
        sfip_victim_workload ctx;
        ignore (sfip_exfil ctx))
  in
  let tampered =
    { image with Appimage.profile = Syscall_policy.to_profile permissive }
  in
  let exfiltrated = ref false in
  (try
     Runtime.launch k ~image:tampered ~ghosting:false (fun ctx ->
         sfip_victim_workload ctx;
         exfiltrated := sfip_exfil ctx)
   with Runtime.App_crash _ -> () (* vg: execve refused the broken signature *));
  !exfiltrated

let smp_remap_race_attack ~mode =
  let node = Vg_fleet.Node.boot (boot_config ~cpus:2 ~seed:"smp-race" mode) in
  let machine = Vg_fleet.Node.machine node in
  let k = Vg_fleet.Node.kernel node in
  (* Core 0: the victim is live, mid-access to its ghost page. *)
  let proc, _va, frame = plant k in
  (* Core 1: a malicious kernel module races a remap of the frame
     backing the victim's ghost page into the shared kernel address
     space, then reads it with an ordinary instrumented access.  On
     real hardware the stale user translation could linger in core 0's
     TLB; Virtual Ghost both refuses the mapping outright and, on any
     successful remap, broadcasts a cross-core shootdown — the native
     build does neither. *)
  Machine.switch_core machine 1;
  let attack_va = Int64.add Layout.kernel_data_start 0x9000L in
  let stolen =
    match
      Sva.map_kernel_page k.Kernel.sva ~va:attack_va ~frame
        ~perm:{ writable = false; user = false; executable = false }
    with
    | Error _ -> false (* the VM refused the cross-core remap *)
    | Ok () ->
        Machine.flush_tlb machine;
        let data = Kmem.read_bytes k.Kernel.kmem attack_va ~len:(String.length secret) in
        Bytes.to_string data = secret
  in
  Machine.switch_core machine 0;
  ignore proc;
  stolen
