(* Tests for the SVA-OS / Virtual Ghost VM layer: boot and the key
   chain, checked MMU operations, ghost memory, interrupt contexts and
   signal dispatch, program launch, swapping, and I/O checks. *)

let boot ?(mode = Sva.Virtual_ghost) ?(seed = "sva-test") () =
  let machine =
    Vg_fleet.Node_config.(
      default |> with_phys_frames 2048 |> with_disk_sectors 128 |> with_seed seed
      |> create_machine)
  in
  let sva = Sva.boot ~vg_key_bits:256 ~mode machine in
  (machine, sva)

let ghost_va = Int64.add Layout.ghost_start 0x42000L
let user_rw : Pagetable.perm = { writable = true; user = true; executable = false }

let check_ok msg = function
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: unexpected error: %s" msg e

let check_mmu_ok msg = function
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: %s" msg (Format.asprintf "%a" Sva.pp_mmu_error e)

(* ------------------------------------------------------------------ *)
(* Boot                                                                *)

let test_boot_maps_sva_memory () =
  let machine, sva = boot () in
  ignore sva;
  (* The SVA range is mapped in the kernel page table... *)
  let vpage = Int64.shift_right_logical Layout.sva_start 12 in
  (match Pagetable.lookup (Machine.kernel_pt machine) ~vpage with
  | Some pte ->
      Alcotest.(check bool) "registered" true
        (Sva.frame_use sva pte.Pagetable.frame = Sva.Sva_internal)
  | None -> Alcotest.fail "SVA memory not mapped");
  (* ...and is kernel-writable on the raw hardware path. *)
  Machine.write_virt machine Layout.sva_start ~len:8 42L;
  Alcotest.(check int64) "raw write works" 42L
    (Machine.read_virt machine Layout.sva_start ~len:8)

let test_key_survives_reboot () =
  let machine, sva1 = boot () in
  let pub1 = Sva.vg_public_key sva1 in
  (* Second boot on the same machine (same TPM): unseal, not regenerate. *)
  let sva2 = Sva.boot ~mode:Sva.Virtual_ghost machine in
  let pub2 = Sva.vg_public_key sva2 in
  Alcotest.(check bool) "same key" true
    (Vg_crypto.Bignum.equal pub1.Vg_crypto.Rsa.n pub2.Vg_crypto.Rsa.n)

let test_distinct_machines_distinct_keys () =
  let _, sva1 = boot ~seed:"machine-a" () in
  let _, sva2 = boot ~seed:"machine-b" () in
  Alcotest.(check bool) "different" false
    (Vg_crypto.Bignum.equal (Sva.vg_public_key sva1).Vg_crypto.Rsa.n
       (Sva.vg_public_key sva2).Vg_crypto.Rsa.n)

let test_random_not_os_controlled () =
  let _, sva = boot () in
  let a = Sva.random_bytes sva 32 and b = Sva.random_bytes sva 32 in
  Alcotest.(check bool) "fresh draws differ" false (Bytes.equal a b)

(* ------------------------------------------------------------------ *)
(* MMU checks                                                          *)

let test_mmu_allows_ordinary_mappings () =
  let _, sva = boot () in
  let pt = Sva.declare_address_space sva ~pid:1 in
  check_mmu_ok "user map" (Sva.map_page sva pt ~va:0x400000L ~frame:10 ~perm:user_rw);
  check_mmu_ok "unmap" (Sva.unmap_page sva pt ~va:0x400000L)

let test_mmu_refuses_ghost_frame () =
  let _, sva = boot () in
  let pt = Sva.declare_address_space sva ~pid:1 in
  check_ok "allocgm" (Sva.allocgm sva ~pid:1 ~pt ~va:ghost_va ~frames:[ 30 ]);
  (* The kernel now tries to map the ghost frame into user space. *)
  (match Sva.map_page sva pt ~va:0x400000L ~frame:30 ~perm:user_rw with
  | Error (Sva.Protected_frame (Sva.Ghost_frame 1)) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Format.asprintf "%a" Sva.pp_mmu_error e)
  | Ok () -> Alcotest.fail "ghost frame was mapped!");
  (* And into the kernel's own space. *)
  Alcotest.(check bool) "kernel map refused" true
    (Sva.map_kernel_page sva ~va:Layout.kernel_data_start ~frame:30
       ~perm:{ writable = true; user = false; executable = false }
    <> Ok ())

let test_mmu_refuses_ghost_range () =
  let _, sva = boot () in
  let pt = Sva.declare_address_space sva ~pid:1 in
  (* The kernel tries to install its own frame inside the ghost range
     (the paper's "map physical pages it has already modified" attack). *)
  (match Sva.map_page sva pt ~va:ghost_va ~frame:11 ~perm:user_rw with
  | Error (Sva.Protected_range _) -> ()
  | Error _ | Ok () -> Alcotest.fail "mapping into ghost range must be refused");
  (* Unmapping ghost memory from under the application is also refused. *)
  check_ok "allocgm" (Sva.allocgm sva ~pid:1 ~pt ~va:ghost_va ~frames:[ 31 ]);
  Alcotest.(check bool) "unmap refused" true (Sva.unmap_page sva pt ~va:ghost_va <> Ok ())

let test_mmu_refuses_sva_targets () =
  let machine, sva = boot () in
  ignore machine;
  let pt = Sva.declare_address_space sva ~pid:1 in
  Alcotest.(check bool) "sva va refused" true
    (Sva.map_page sva pt ~va:Layout.sva_start ~frame:12 ~perm:user_rw <> Ok ());
  (* An SVA-internal frame (from the top of memory) cannot be mapped. *)
  Alcotest.(check bool) "sva frame refused" true
    (Sva.map_page sva pt ~va:0x400000L ~frame:2047 ~perm:user_rw <> Ok ())

let test_mmu_refuses_code_writable () =
  let _, sva = boot () in
  let pt = Sva.declare_address_space sva ~pid:1 in
  Sva.set_code_frame sva 13;
  Alcotest.(check bool) "writable code refused" true
    (Sva.map_page sva pt ~va:0x400000L ~frame:13 ~perm:user_rw <> Ok ());
  check_mmu_ok "read-only code ok"
    (Sva.map_page sva pt ~va:0x400000L ~frame:13
       ~perm:{ writable = false; user = true; executable = true })

let test_mmu_native_mode_unchecked () =
  (* The baseline kernel can do all of these — that is the vulnerable
     world Virtual Ghost removes. *)
  let _, sva = boot ~mode:Sva.Native_build () in
  let pt = Sva.declare_address_space sva ~pid:1 in
  check_ok "allocgm" (Sva.allocgm sva ~pid:1 ~pt ~va:ghost_va ~frames:[ 30 ]);
  check_mmu_ok "ghost frame mapped" (Sva.map_page sva pt ~va:0x400000L ~frame:30 ~perm:user_rw);
  check_mmu_ok "ghost range mapped" (Sva.map_page sva pt ~va:(Int64.add ghost_va 0x1000L) ~frame:11 ~perm:user_rw)

(* Kernel code stays fixed: under Virtual Ghost the VM refuses an
   ordinary frame in the kernel-code range, replacing a native-code
   translation, and unmapping kernel code; the baseline kernel may do
   all three. *)
let code_va = Int64.add Layout.kernel_code_start 0x0800_0000L
let code_ro : Pagetable.perm = { writable = false; user = false; executable = true }

let expect_mmu mode what ~vg_error result =
  match (mode, result) with
  | Sva.Virtual_ghost, Error e when e = vg_error -> ()
  | Sva.Native_build, Ok () -> ()
  | _, Ok () -> Alcotest.failf "%s: permitted under Virtual Ghost" what
  | _, Error e -> Alcotest.failf "%s: %s" what (Format.asprintf "%a" Sva.pp_mmu_error e)

let both_modes f = List.iter f [ Sva.Virtual_ghost; Sva.Native_build ]

let test_mmu_refuses_data_in_kernel_code () =
  both_modes (fun mode ->
      let _, sva = boot ~mode () in
      expect_mmu mode "ordinary frame in kernel code"
        ~vg_error:(Sva.Protected_range "kernel code")
        (Sva.map_kernel_page sva ~va:code_va ~frame:14 ~perm:code_ro))

let test_mmu_refuses_native_code_remap () =
  both_modes (fun mode ->
      let _, sva = boot ~mode () in
      Sva.set_code_frame sva 15;
      Sva.set_code_frame sva 16;
      check_mmu_ok "map native code" (Sva.map_kernel_page sva ~va:code_va ~frame:15 ~perm:code_ro);
      expect_mmu mode "native code replaced by other code"
        ~vg_error:(Sva.Protected_range "remap of native code")
        (Sva.map_kernel_page sva ~va:code_va ~frame:16 ~perm:code_ro);
      (* Outside the kernel-code range too: a read-only code mapping in
         user space cannot be swapped for a data frame. *)
      let pt = Sva.declare_address_space sva ~pid:1 in
      check_mmu_ok "map user code"
        (Sva.map_page sva pt ~va:0x400000L ~frame:15
           ~perm:{ writable = false; user = true; executable = true });
      expect_mmu mode "native code replaced by data"
        ~vg_error:(Sva.Protected_range "remap of native code")
        (Sva.map_page sva pt ~va:0x400000L ~frame:17 ~perm:user_rw))

let test_mmu_refuses_kernel_code_unmap () =
  both_modes (fun mode ->
      let machine, sva = boot ~mode () in
      Sva.set_code_frame sva 15;
      check_mmu_ok "map native code" (Sva.map_kernel_page sva ~va:code_va ~frame:15 ~perm:code_ro);
      expect_mmu mode "unmap kernel code" ~vg_error:(Sva.Protected_range "kernel code")
        (Sva.unmap_page sva (Machine.kernel_pt machine) ~va:code_va);
      Alcotest.(check bool) "mapping kept only under Virtual Ghost" (mode = Sva.Virtual_ghost)
        (Pagetable.lookup (Machine.kernel_pt machine) ~vpage:(Int64.shift_right_logical code_va 12)
        <> None))

(* ------------------------------------------------------------------ *)
(* Ghost memory                                                        *)

let test_allocgm_zeroes_and_maps () =
  let machine, sva = boot () in
  let pt = Sva.declare_address_space sva ~pid:7 in
  (* Dirty the frame first: previous owner's data must not leak. *)
  Phys_mem.write (Machine.mem machine) ~addr:0x28000L ~len:8 0xdeadL;
  check_ok "allocgm" (Sva.allocgm sva ~pid:7 ~pt ~va:ghost_va ~frames:[ 0x28 ]);
  Machine.set_current_pt machine pt;
  Machine.set_privilege machine Machine.User;
  Alcotest.(check int64) "zeroed" 0L (Machine.read_virt machine ghost_va ~len:8);
  (* The application can use it. *)
  Machine.write_virt machine ghost_va ~len:8 0x5ec4e7L;
  Alcotest.(check int64) "usable" 0x5ec4e7L (Machine.read_virt machine ghost_va ~len:8)

let test_allocgm_rejects_mapped_frame () =
  let _, sva = boot () in
  let pt = Sva.declare_address_space sva ~pid:1 in
  check_mmu_ok "map" (Sva.map_page sva pt ~va:0x400000L ~frame:40 ~perm:user_rw);
  Alcotest.(check bool) "refused" true
    (Sva.allocgm sva ~pid:1 ~pt ~va:ghost_va ~frames:[ 40 ] <> Ok ())

let test_allocgm_rejects_bad_range () =
  let _, sva = boot () in
  let pt = Sva.declare_address_space sva ~pid:1 in
  Alcotest.(check bool) "outside ghost" true
    (Sva.allocgm sva ~pid:1 ~pt ~va:0x400000L ~frames:[ 41 ] <> Ok ());
  Alcotest.(check bool) "unaligned" true
    (Sva.allocgm sva ~pid:1 ~pt ~va:(Int64.add ghost_va 8L) ~frames:[ 41 ] <> Ok ())

let test_freegm_roundtrip () =
  let machine, sva = boot () in
  let pt = Sva.declare_address_space sva ~pid:7 in
  check_ok "allocgm" (Sva.allocgm sva ~pid:7 ~pt ~va:ghost_va ~frames:[ 50; 51 ]);
  Machine.set_current_pt machine pt;
  Machine.set_privilege machine Machine.User;
  Machine.write_virt machine ghost_va ~len:8 0x5ec4e7L;
  Machine.set_privilege machine Machine.Kernel;
  (match Sva.freegm sva ~pid:7 ~pt ~va:ghost_va ~count:2 with
  | Ok frames -> Alcotest.(check (list int)) "frames back" [ 50; 51 ] frames
  | Error e -> Alcotest.failf "freegm: %s" e);
  (* Frame contents were zeroed before the OS got them back. *)
  Alcotest.(check int64) "no data leak" 0L
    (Phys_mem.read (Machine.mem machine) ~addr:0x32000L ~len:8);
  Alcotest.(check bool) "registry cleared" true (Sva.frame_use sva 50 = Sva.Kernel_managed)

let test_freegm_rejects_foreign_page () =
  let _, sva = boot () in
  let pt7 = Sva.declare_address_space sva ~pid:7 in
  check_ok "allocgm" (Sva.allocgm sva ~pid:7 ~pt:pt7 ~va:ghost_va ~frames:[ 52 ]);
  (* Another process (or the kernel lying about the pid) cannot free it. *)
  Alcotest.(check bool) "foreign refused" true
    (match Sva.freegm sva ~pid:8 ~pt:pt7 ~va:ghost_va ~count:1 with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Interrupt contexts and traps                                        *)

let test_trap_costs_differ_by_mode () =
  let run mode =
    let machine, sva = boot ~mode () in
    let tid = Sva.new_thread sva ~pid:1 ~entry:0x1000L ~stack:0x7fff0000L in
    Machine.reset_clock machine;
    Sva.enter_trap sva ~tid;
    Sva.return_from_trap sva ~tid;
    Machine.cycles machine
  in
  let native = run Sva.Native_build and vg = run Sva.Virtual_ghost in
  Alcotest.(check bool) "vg trap dearer" true (vg > native);
  Alcotest.(check bool) "by roughly the IC-save cost" true
    (vg - native >= Cost.vg_trap_extra / 2)

let test_native_ic_is_kernel_visible_and_tamperable () =
  let machine, sva = boot ~mode:Sva.Native_build () in
  let tid = Sva.new_thread sva ~pid:1 ~entry:0x1000L ~stack:0x7fff0000L in
  Sva.enter_trap sva ~tid;
  match Sva.native_ic_address sva ~tid with
  | None -> Alcotest.fail "native build must expose the IC"
  | Some va ->
      (* The kernel can read the saved program counter... *)
      Alcotest.(check int64) "read pc" 0x1000L (Machine.read_virt machine va ~len:8);
      (* ...and overwrite it, hijacking the thread on resume. *)
      Machine.write_virt machine va ~len:8 0xbad00L;
      Sva.return_from_trap sva ~tid;
      Alcotest.(check int64) "hijacked" 0xbad00L
        (Sva.thread_icontext sva ~tid).Icontext.pc

let test_vg_ic_not_exposed () =
  let _, sva = boot ~mode:Sva.Virtual_ghost () in
  let tid = Sva.new_thread sva ~pid:1 ~entry:0x1000L ~stack:0x7fff0000L in
  Sva.enter_trap sva ~tid;
  Alcotest.(check bool) "no kernel-visible IC" true (Sva.native_ic_address sva ~tid = None);
  (* Even if the kernel guesses the mirror location inside SVA memory
     and writes through an *instrumented* access, the sandbox mask
     redirects it; here we verify the authoritative copy is immune to
     the masked write actually performed by instrumented code. *)
  let mirror_guess = Int64.add Layout.sva_start 0x4000L in
  let masked = Vg_compiler.Sandbox_pass.masked_address mirror_guess in
  Alcotest.(check bool) "masked away from SVA" false (Layout.in_sva masked);
  Sva.return_from_trap sva ~tid;
  Alcotest.(check int64) "pc intact" 0x1000L (Sva.thread_icontext sva ~tid).Icontext.pc

let test_syscall_result_propagates () =
  let _, sva = boot () in
  let tid = Sva.new_thread sva ~pid:1 ~entry:0x1000L ~stack:0x7fff0000L in
  Sva.enter_trap sva ~tid;
  Sva.set_syscall_result sva ~tid 42L;
  Sva.return_from_trap sva ~tid;
  Alcotest.(check int64) "result in gpr0" 42L (Sva.thread_icontext sva ~tid).Icontext.gprs.(0)

let test_clone_thread_copies_context () =
  let _, sva = boot () in
  let tid = Sva.new_thread sva ~pid:1 ~entry:0x1000L ~stack:0x7fff0000L in
  Sva.set_syscall_result sva ~tid 7L;
  let child = Sva.clone_thread sva ~tid ~new_pid:2 in
  let cic = Sva.thread_icontext sva ~tid:child in
  Alcotest.(check int64) "pc" 0x1000L cic.Icontext.pc;
  Alcotest.(check int64) "gpr0" 7L cic.Icontext.gprs.(0);
  (* Distinct contexts: mutating the child does not touch the parent. *)
  Sva.set_syscall_result sva ~tid:child 9L;
  Alcotest.(check int64) "parent intact" 7L (Sva.thread_icontext sva ~tid).Icontext.gprs.(0)

(* ------------------------------------------------------------------ *)
(* Signal dispatch                                                     *)

let test_ipush_requires_registration_under_vg () =
  let _, sva = boot () in
  let tid = Sva.new_thread sva ~pid:3 ~entry:0x1000L ~stack:0x7fff0000L in
  (match Sva.ipush_function sva ~tid ~target:0x666000L ~arg:11L with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unregistered handler must be refused");
  Sva.permit_function sva ~pid:3 0x2000L;
  check_ok "registered handler" (Sva.ipush_function sva ~tid ~target:0x2000L ~arg:11L);
  let ic = Sva.thread_icontext sva ~tid in
  Alcotest.(check int64) "pc -> handler" 0x2000L ic.Icontext.pc;
  Alcotest.(check int64) "signal number" 11L ic.Icontext.gprs.(0);
  (* sigreturn restores the interrupted state *)
  check_ok "sigreturn" (Sva.icontext_load sva ~tid);
  Alcotest.(check int64) "pc restored" 0x1000L (Sva.thread_icontext sva ~tid).Icontext.pc

let test_ipush_unchecked_in_native () =
  let _, sva = boot ~mode:Sva.Native_build () in
  let tid = Sva.new_thread sva ~pid:3 ~entry:0x1000L ~stack:0x7fff0000L in
  check_ok "native allows anything"
    (Sva.ipush_function sva ~tid ~target:0x666000L ~arg:11L);
  Alcotest.(check int64) "hijacked pc" 0x666000L (Sva.thread_icontext sva ~tid).Icontext.pc

let test_sigreturn_without_push () =
  let _, sva = boot () in
  let tid = Sva.new_thread sva ~pid:3 ~entry:0x1000L ~stack:0x7fff0000L in
  Alcotest.(check bool) "refused" true (Sva.icontext_load sva ~tid <> Ok ())

let test_nested_signals () =
  let _, sva = boot () in
  let tid = Sva.new_thread sva ~pid:3 ~entry:0x1000L ~stack:0x7fff0000L in
  Sva.permit_function sva ~pid:3 0x2000L;
  Sva.permit_function sva ~pid:3 0x3000L;
  check_ok "first" (Sva.ipush_function sva ~tid ~target:0x2000L ~arg:1L);
  check_ok "nested" (Sva.ipush_function sva ~tid ~target:0x3000L ~arg:2L);
  check_ok "pop inner" (Sva.icontext_load sva ~tid);
  Alcotest.(check int64) "back in first handler" 0x2000L
    (Sva.thread_icontext sva ~tid).Icontext.pc;
  check_ok "pop outer" (Sva.icontext_load sva ~tid);
  Alcotest.(check int64) "back at entry" 0x1000L (Sva.thread_icontext sva ~tid).Icontext.pc

(* ------------------------------------------------------------------ *)
(* Program launch                                                      *)

let make_image sva ~name ~app_key =
  let rng = Vg_crypto.Drbg.create ~seed:(Bytes.of_string "installer-rng") in
  Appimage.install
    ~vg_key:(Sva.vg_private_key_for_installer sva)
    ~rng ~name
    ~payload:(Bytes.of_string ("code of " ^ name))
    ~entry:0x400100L ~app_key ()

let test_exec_valid_image () =
  let _, sva = boot () in
  let pt = Sva.declare_address_space sva ~pid:9 in
  let tid = Sva.new_thread sva ~pid:9 ~entry:0L ~stack:0x7fff0000L in
  let app_key = Bytes.of_string "0123456789abcdef" in
  let image = make_image sva ~name:"ssh" ~app_key in
  (match Sva.reinit_icontext sva ~tid ~pt ~image ~stack:0x7ffe0000L with
  | Ok (key, freed) ->
      Alcotest.(check bytes) "key recovered" app_key key;
      Alcotest.(check (list int)) "no prior ghost" [] freed
  | Error e -> Alcotest.failf "exec failed: %s" e);
  Alcotest.(check int64) "pc at entry" 0x400100L (Sva.thread_icontext sva ~tid:tid).Icontext.pc;
  (match Sva.get_app_key sva ~pid:9 with
  | Some k -> Alcotest.(check bytes) "getKey" app_key k
  | None -> Alcotest.fail "key missing")

let test_exec_rejects_tampered_payload () =
  let _, sva = boot () in
  let pt = Sva.declare_address_space sva ~pid:9 in
  let tid = Sva.new_thread sva ~pid:9 ~entry:0L ~stack:0x7fff0000L in
  let image = make_image sva ~name:"ssh" ~app_key:(Bytes.make 16 'k') in
  Alcotest.(check bool) "payload tamper refused" true
    (Sva.reinit_icontext sva ~tid ~pt ~image:(Appimage.tamper_payload image)
       ~stack:0x7ffe0000L
    <> Ok (Bytes.make 16 'k', []));
  (match Sva.reinit_icontext sva ~tid ~pt ~image:(Appimage.tamper_payload image) ~stack:0x7ffe0000L with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "must refuse");
  (match Sva.reinit_icontext sva ~tid ~pt ~image:(Appimage.tamper_key_section image) ~stack:0x7ffe0000L with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "key-section tamper must refuse")

let test_exec_releases_previous_ghost () =
  let _, sva = boot () in
  let pt = Sva.declare_address_space sva ~pid:9 in
  let tid = Sva.new_thread sva ~pid:9 ~entry:0L ~stack:0x7fff0000L in
  Sva.allocgm sva ~pid:9 ~pt ~va:ghost_va ~frames:[ 60 ] |> check_ok "allocgm";
  let image = make_image sva ~name:"ssh" ~app_key:(Bytes.make 16 'k') in
  (match Sva.reinit_icontext sva ~tid ~pt ~image ~stack:0x7ffe0000L with
  | Ok (_, freed) -> Alcotest.(check (list int)) "ghost released" [ 60 ] freed
  | Error e -> Alcotest.failf "exec: %s" e);
  Alcotest.(check bool) "registry cleared" true (Sva.frame_use sva 60 = Sva.Kernel_managed)

(* ------------------------------------------------------------------ *)
(* Swapping                                                            *)

let test_swap_roundtrip () =
  let machine, sva = boot () in
  let pt = Sva.declare_address_space sva ~pid:5 in
  check_ok "allocgm" (Sva.allocgm sva ~pid:5 ~pt ~va:ghost_va ~frames:[ 70 ]);
  Machine.set_current_pt machine pt;
  Machine.set_privilege machine Machine.User;
  Machine.write_bytes_virt machine ghost_va (Bytes.of_string "ghost page payload");
  Machine.set_privilege machine Machine.Kernel;
  match Sva.swap_out_ghost sva ~pid:5 ~pt ~va:ghost_va with
  | Error e -> Alcotest.failf "swap out: %s" e
  | Ok (frame, blob) ->
      Alcotest.(check int) "frame returned" 70 frame;
      (* Page is gone and zeroed. *)
      Alcotest.(check int64) "frame zeroed" 0L
        (Phys_mem.read (Machine.mem machine) ~addr:0x46000L ~len:8);
      (* The blob is ciphertext: the secret is not visible in it. *)
      let contains_plain =
        let s = Bytes.to_string blob in
        let rec go i =
          i + 5 <= String.length s && (String.sub s i 5 = "ghost" || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "encrypted" false contains_plain;
      check_ok "swap in" (Sva.swap_in_ghost sva ~pid:5 ~pt ~va:ghost_va ~frame:70 ~blob);
      Machine.set_privilege machine Machine.User;
      Alcotest.(check string) "restored" "ghost page payload"
        (Bytes.to_string (Machine.read_bytes_virt machine ghost_va ~len:18))

let test_swap_tamper_detected () =
  let machine, sva = boot () in
  ignore machine;
  let pt = Sva.declare_address_space sva ~pid:5 in
  check_ok "allocgm" (Sva.allocgm sva ~pid:5 ~pt ~va:ghost_va ~frames:[ 71 ]);
  match Sva.swap_out_ghost sva ~pid:5 ~pt ~va:ghost_va with
  | Error e -> Alcotest.failf "swap out: %s" e
  | Ok (frame, blob) ->
      Bytes.set blob 100 (Char.chr (Char.code (Bytes.get blob 100) lxor 1));
      (match Sva.swap_in_ghost sva ~pid:5 ~pt ~va:ghost_va ~frame ~blob with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "tampered swap page accepted")

let test_swap_replay_detected () =
  let machine, sva = boot () in
  ignore machine;
  let pt = Sva.declare_address_space sva ~pid:5 in
  check_ok "allocgm" (Sva.allocgm sva ~pid:5 ~pt ~va:ghost_va ~frames:[ 72 ]);
  match Sva.swap_out_ghost sva ~pid:5 ~pt ~va:ghost_va with
  | Error e -> Alcotest.failf "swap out 1: %s" e
  | Ok (frame, old_blob) -> (
      check_ok "swap in 1" (Sva.swap_in_ghost sva ~pid:5 ~pt ~va:ghost_va ~frame ~blob:old_blob);
      match Sva.swap_out_ghost sva ~pid:5 ~pt ~va:ghost_va with
      | Error e -> Alcotest.failf "swap out 2: %s" e
      | Ok (frame2, _fresh_blob) -> (
          (* The OS replays the stale blob instead of the fresh one. *)
          match Sva.swap_in_ghost sva ~pid:5 ~pt ~va:ghost_va ~frame:frame2 ~blob:old_blob with
          | Error _ -> ()
          | Ok () -> Alcotest.fail "replayed swap page accepted"))

(* ------------------------------------------------------------------ *)
(* Monotonic counters                                                  *)

let exec_app sva ~pid ~name =
  let pt = Sva.declare_address_space sva ~pid in
  let tid = Sva.new_thread sva ~pid ~entry:0L ~stack:0x7fff0000L in
  let rng = Vg_crypto.Drbg.create ~seed:(Bytes.of_string ("rng-" ^ name)) in
  let image =
    Appimage.install
      ~vg_key:(Sva.vg_private_key_for_installer sva)
      ~rng ~name ~payload:(Bytes.of_string name) ~entry:0x400000L
      ~app_key:(Bytes.of_string (name ^ String.make (16 - min 16 (String.length name)) '#'))
      ()
  in
  match Sva.reinit_icontext sva ~tid ~pt ~image ~stack:0x7ffe0000L with
  | Ok _ -> (pt, tid)
  | Error e -> Alcotest.failf "exec: %s" e

let test_counters_monotonic () =
  let _, sva = boot () in
  let _ = exec_app sva ~pid:40 ~name:"counter-app" in
  Alcotest.(check bool) "unset" true
    (match Sva.counter_current sva ~pid:40 "files" with Ok None -> true | Ok (Some _) | Error _ -> false);
  (match Sva.counter_next sva ~pid:40 "files" with
  | Ok v -> Alcotest.(check int) "first" 1 v
  | Error e -> Alcotest.failf "next: %s" e);
  (match Sva.counter_next sva ~pid:40 "files" with
  | Ok v -> Alcotest.(check int) "second" 2 v
  | Error e -> Alcotest.failf "next: %s" e);
  (* Independent names. *)
  (match Sva.counter_next sva ~pid:40 "other" with
  | Ok v -> Alcotest.(check int) "other starts fresh" 1 v
  | Error e -> Alcotest.failf "next: %s" e)

let test_counters_need_identity () =
  let _, sva = boot () in
  let _tid = Sva.new_thread sva ~pid:50 ~entry:0L ~stack:0x7fff0000L in
  Alcotest.(check bool) "no app key, no counter" true
    (match Sva.counter_next sva ~pid:50 "x" with Error _ -> true | Ok _ -> false)

let test_counters_namespaced_by_app () =
  let _, sva = boot () in
  let _ = exec_app sva ~pid:60 ~name:"app-alpha" in
  let _ = exec_app sva ~pid:61 ~name:"app-beta" in
  ignore (Sva.counter_next sva ~pid:60 "shared-name");
  ignore (Sva.counter_next sva ~pid:60 "shared-name");
  (match Sva.counter_next sva ~pid:61 "shared-name" with
  | Ok v -> Alcotest.(check int) "isolated" 1 v
  | Error e -> Alcotest.failf "next: %s" e)

(* ------------------------------------------------------------------ *)
(* Thread bookkeeping                                                  *)

let test_thread_slot_reuse () =
  let _, sva = boot () in
  let t1 = Sva.new_thread sva ~pid:1 ~entry:0x1000L ~stack:0x7fff0000L in
  let addr1 = Sva.native_ic_address sva ~tid:t1 in
  ignore addr1;
  Sva.free_thread sva ~tid:t1;
  let t2 = Sva.new_thread sva ~pid:1 ~entry:0x2000L ~stack:0x7fff0000L in
  Alcotest.(check bool) "new tid" true (t2 <> t1);
  Alcotest.(check int64) "fresh context" 0x2000L
    (Sva.thread_icontext sva ~tid:t2).Icontext.pc;
  Alcotest.(check bool) "old thread gone" true
    (try
       ignore (Sva.thread_icontext sva ~tid:t1);
       false
     with Not_found -> true)

(* ------------------------------------------------------------------ *)
(* I/O port checks                                                     *)

let test_iommu_port_protected_under_vg () =
  let machine, sva = boot () in
  Alcotest.(check bool) "refused" true (Sva.io_write sva ~port:Sva.iommu_config_port 0L <> Ok ());
  (* Protection still active: ghost frames remain DMA-blocked. *)
  let pt = Sva.declare_address_space sva ~pid:1 in
  check_ok "allocgm" (Sva.allocgm sva ~pid:1 ~pt ~va:ghost_va ~frames:[ 80 ]);
  Alcotest.(check bool) "dma blocked" true
    (try
       Iommu.dma_write (Machine.iommu machine) (Machine.mem machine) ~addr:0x50000L
         (Bytes.make 8 'x');
       false
     with Iommu.Dma_blocked _ -> true)

let test_iommu_port_open_in_native () =
  let _, sva = boot ~mode:Sva.Native_build () in
  check_ok "allowed" (Sva.io_write sva ~port:Sva.iommu_config_port 0L)

let test_ordinary_ports_allowed () =
  let _, sva = boot () in
  check_ok "serial port" (Sva.io_write sva ~port:0x3f8L 65L);
  ignore (Sva.io_read sva ~port:0x60L)

let () =
  Alcotest.run "vg_sva"
    [
      ( "boot",
        [
          Alcotest.test_case "maps SVA memory" `Quick test_boot_maps_sva_memory;
          Alcotest.test_case "key survives reboot" `Slow test_key_survives_reboot;
          Alcotest.test_case "distinct machines, distinct keys" `Slow
            test_distinct_machines_distinct_keys;
          Alcotest.test_case "trusted randomness" `Quick test_random_not_os_controlled;
        ] );
      ( "mmu",
        [
          Alcotest.test_case "ordinary mappings" `Quick test_mmu_allows_ordinary_mappings;
          Alcotest.test_case "refuses ghost frame" `Quick test_mmu_refuses_ghost_frame;
          Alcotest.test_case "refuses ghost range" `Quick test_mmu_refuses_ghost_range;
          Alcotest.test_case "refuses SVA targets" `Quick test_mmu_refuses_sva_targets;
          Alcotest.test_case "refuses writable code" `Quick test_mmu_refuses_code_writable;
          Alcotest.test_case "native mode unchecked" `Quick test_mmu_native_mode_unchecked;
          Alcotest.test_case "refuses data in kernel code" `Quick
            test_mmu_refuses_data_in_kernel_code;
          Alcotest.test_case "refuses native code remap" `Quick
            test_mmu_refuses_native_code_remap;
          Alcotest.test_case "refuses kernel code unmap" `Quick
            test_mmu_refuses_kernel_code_unmap;
        ] );
      ( "ghost-memory",
        [
          Alcotest.test_case "allocgm zeroes and maps" `Quick test_allocgm_zeroes_and_maps;
          Alcotest.test_case "rejects mapped frame" `Quick test_allocgm_rejects_mapped_frame;
          Alcotest.test_case "rejects bad range" `Quick test_allocgm_rejects_bad_range;
          Alcotest.test_case "freegm round-trip" `Quick test_freegm_roundtrip;
          Alcotest.test_case "freegm rejects foreign page" `Quick
            test_freegm_rejects_foreign_page;
        ] );
      ( "interrupt-context",
        [
          Alcotest.test_case "trap costs by mode" `Quick test_trap_costs_differ_by_mode;
          Alcotest.test_case "native IC tamperable" `Quick
            test_native_ic_is_kernel_visible_and_tamperable;
          Alcotest.test_case "vg IC not exposed" `Quick test_vg_ic_not_exposed;
          Alcotest.test_case "syscall result" `Quick test_syscall_result_propagates;
          Alcotest.test_case "clone thread" `Quick test_clone_thread_copies_context;
        ] );
      ( "signal-dispatch",
        [
          Alcotest.test_case "vg requires registration" `Quick
            test_ipush_requires_registration_under_vg;
          Alcotest.test_case "native unchecked" `Quick test_ipush_unchecked_in_native;
          Alcotest.test_case "sigreturn without push" `Quick test_sigreturn_without_push;
          Alcotest.test_case "nested signals" `Quick test_nested_signals;
        ] );
      ( "exec",
        [
          Alcotest.test_case "valid image" `Slow test_exec_valid_image;
          Alcotest.test_case "tampered image refused" `Slow test_exec_rejects_tampered_payload;
          Alcotest.test_case "releases previous ghost" `Slow test_exec_releases_previous_ghost;
        ] );
      ( "swap",
        [
          Alcotest.test_case "round-trip" `Quick test_swap_roundtrip;
          Alcotest.test_case "tamper detected" `Quick test_swap_tamper_detected;
          Alcotest.test_case "replay detected" `Quick test_swap_replay_detected;
        ] );
      ( "counters",
        [
          Alcotest.test_case "monotonic" `Slow test_counters_monotonic;
          Alcotest.test_case "require identity" `Quick test_counters_need_identity;
          Alcotest.test_case "namespaced by app" `Slow test_counters_namespaced_by_app;
        ] );
      ( "threads",
        [ Alcotest.test_case "slot reuse" `Quick test_thread_slot_reuse ] );
      ( "io",
        [
          Alcotest.test_case "IOMMU port protected (VG)" `Quick
            test_iommu_port_protected_under_vg;
          Alcotest.test_case "IOMMU port open (native)" `Quick test_iommu_port_open_in_native;
          Alcotest.test_case "ordinary ports" `Quick test_ordinary_ports_allowed;
        ] );
    ]
