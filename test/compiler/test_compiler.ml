(* Tests for the Virtual Ghost compiler: layout, sandboxing pass, CFI
   instrumentation, code generation, the native executor (including
   differential testing against the reference interpreter), the Iago
   mmap-masking pass, the signed translation cache and the pipeline. *)

(* ------------------------------------------------------------------ *)
(* Shared memory environment usable by both Interp and Executor.       *)

type world = {
  mem : Bytes.t;
  base : int64;
  mutable cycles : int;
  mutable stores : (int64 * int64) list; (* address, value — newest first *)
}

let make_world ?(base = 0x1000L) () =
  { mem = Bytes.make 65536 '\000'; base; cycles = 0; stores = [] }

let world_off w addr =
  let off = Int64.to_int (Int64.sub addr w.base) in
  if off < 0 || off >= Bytes.length w.mem - 8 then
    failwith (Printf.sprintf "world access out of range: %Lx" addr);
  off

let world_load w addr (width : Ir.width) =
  let i = world_off w addr in
  match width with
  | W8 -> Int64.of_int (Char.code (Bytes.get w.mem i))
  | W16 -> Int64.of_int (Bytes.get_uint16_le w.mem i)
  | W32 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le w.mem i)) 0xffffffffL
  | W64 -> Bytes.get_int64_le w.mem i

let world_store w addr (width : Ir.width) v =
  w.stores <- (addr, v) :: w.stores;
  let i = world_off w addr in
  match width with
  | W8 -> Bytes.set w.mem i (Char.chr (Int64.to_int (Int64.logand v 0xffL)))
  | W16 -> Bytes.set_uint16_le w.mem i (Int64.to_int (Int64.logand v 0xffffL))
  | W32 -> Bytes.set_int32_le w.mem i (Int64.to_int32 v)
  | W64 -> Bytes.set_int64_le w.mem i v

let interp_env w : Interp.env =
  {
    load = world_load w;
    store = world_store w;
    memcpy =
      (fun ~dst ~src ~len ->
        Bytes.blit w.mem (world_off w src) w.mem (world_off w dst) (Int64.to_int len));
    io_read = (fun port -> Int64.add port 7L);
    io_write = (fun _ _ -> ());
    extern = (fun name _ -> failwith ("interp extern: " ^ name));
    resolve_sym = (fun s -> failwith ("interp sym: " ^ s));
    func_of_addr = (fun _ -> None);
    charge = (fun n -> w.cycles <- w.cycles + n);
    fence = (fun () -> ());
  }

let exec_env w : Exec_env.env =
  {
    Exec_env.null_env with
    load = Boxed_mem.load (world_load w);
    store = Boxed_mem.store (world_store w);
    memcpy =
      (fun ~dst ~src ~len ->
        Bytes.blit w.mem (world_off w src) w.mem (world_off w dst) (Int64.to_int len));
    io_read = (fun port -> Int64.add port 7L);
    io_write = (fun _ _ -> ());
    charge = (fun _ n -> w.cycles <- w.cycles + n);
  }

(* ------------------------------------------------------------------ *)
(* Program fixtures                                                    *)

(* Function-pointer dispatch through memory: the shape kernel code has
   when calling through an ops table. *)
let fptr_program () =
  let b = Builder.create () in
  Builder.func b "inc" ~params:[ "x" ];
  let r = Builder.bin b Add (Reg "x") (Imm 1L) in
  Builder.ret b (Some r);
  Builder.func b "dec" ~params:[ "x" ];
  let r = Builder.bin b Sub (Reg "x") (Imm 1L) in
  Builder.ret b (Some r);
  Builder.func b "dispatch" ~params:[ "which"; "x" ];
  (* store both pointers in an ops table at 0x3000, load one, call it *)
  Builder.store b ~src:(Sym "inc") ~addr:(Imm 0x3000L) ();
  Builder.store b ~src:(Sym "dec") ~addr:(Imm 0x3008L) ();
  let offset = Builder.bin b Mul (Reg "which") (Imm 8L) in
  let slot = Builder.bin b Add (Imm 0x3000L) offset in
  let fp = Builder.load b slot in
  let r = Builder.call_indirect b fp [ Reg "x" ] in
  Builder.ret b (Some r);
  Builder.program b

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)

let test_layout_partitions () =
  Alcotest.(check bool) "ghost start" true (Layout.in_ghost 0xffffff0000000000L);
  Alcotest.(check bool) "ghost end excl" false (Layout.in_ghost 0xffffff8000000000L);
  Alcotest.(check bool) "kernel" true (Layout.in_kernel 0xffffff8000000000L);
  Alcotest.(check bool) "user" true (Layout.in_user 0x400000L);
  Alcotest.(check bool) "user not kernel" false (Layout.in_kernel 0x400000L);
  Alcotest.(check bool) "sva inside kernel" true (Layout.in_kernel Layout.sva_start)

let test_layout_escape_bit () =
  (* ORing bit 39 into any ghost address yields a kernel address. *)
  let ghost = 0xffffff0012345678L in
  let escaped = Int64.logor ghost Layout.ghost_escape_bit in
  Alcotest.(check bool) "escapes to kernel" true (Layout.in_kernel escaped);
  Alcotest.(check bool) "no longer ghost" false (Layout.in_ghost escaped)

(* ------------------------------------------------------------------ *)
(* Sandboxing pass                                                     *)

let test_masked_address_semantics () =
  (* kernel addresses unchanged *)
  Alcotest.(check int64) "kernel id" 0xffffff8011223344L
    (Sandbox_pass.masked_address 0xffffff8011223344L);
  (* user addresses unchanged *)
  Alcotest.(check int64) "user id" 0x7fff12345678L
    (Sandbox_pass.masked_address 0x7fff12345678L);
  (* ghost addresses escape into kernel space *)
  Alcotest.(check int64) "ghost escapes" 0xffffff8012345678L
    (Sandbox_pass.masked_address 0xffffff0012345678L);
  (* SVA-internal addresses are redirected to zero *)
  Alcotest.(check int64) "sva zeroed" 0L (Sandbox_pass.masked_address Layout.sva_start)

let prop_masked_never_ghost_or_sva =
  QCheck2.Test.make ~name:"masked address never ghost or SVA" ~count:2000
    QCheck2.Gen.(map Int64.of_int int)
    (fun addr ->
      let m = Sandbox_pass.masked_address addr in
      (not (Layout.in_ghost m)) && not (Layout.in_sva m))

let prop_masked_preserves_safe =
  QCheck2.Test.make ~name:"masking is identity outside ghost and SVA" ~count:2000
    QCheck2.Gen.(map Int64.of_int int)
    (fun addr ->
      if Layout.in_ghost addr || Layout.in_sva addr then true
      else Sandbox_pass.masked_address addr = addr)

(* The IR mask sequence must agree with the reference function.  We run
   an instrumented store through the interpreter and observe where the
   store actually lands. *)
let observe_store_target addr_value =
  let b = Builder.create () in
  Builder.func b "f" ~params:[ "a" ];
  Builder.store b ~src:(Imm 1L) ~addr:(Reg "a") ();
  Builder.ret b None;
  let program = Sandbox_pass.instrument_program (Builder.program b) in
  let target = ref None in
  let env =
    {
      Interp.load = (fun _ _ -> 0L);
      store = (fun addr _ _ -> target := Some addr);
      memcpy = (fun ~dst:_ ~src:_ ~len:_ -> ());
      io_read = (fun _ -> 0L);
      io_write = (fun _ _ -> ());
      extern = (fun _ _ -> 0L);
      resolve_sym = (fun _ -> 0L);
      func_of_addr = (fun _ -> None);
      charge = (fun _ -> ());
      fence = (fun () -> ());
    }
  in
  ignore (Interp.run env program "f" [| addr_value |]);
  Option.get !target

let prop_ir_sequence_matches_reference =
  QCheck2.Test.make ~name:"instrumented IR matches masked_address" ~count:300
    (QCheck2.Gen.oneof
       [
         QCheck2.Gen.map Int64.of_int QCheck2.Gen.int;
         (* bias towards interesting ranges *)
         QCheck2.Gen.map
           (fun off -> Int64.add Layout.ghost_start (Int64.of_int off))
           (QCheck2.Gen.int_bound 1_000_000);
         QCheck2.Gen.map
           (fun off -> Int64.add Layout.sva_start (Int64.of_int off))
           (QCheck2.Gen.int_bound 1_000_000);
       ])
    (fun addr -> observe_store_target addr = Sandbox_pass.masked_address addr)

let test_sandbox_instruments_all_memory_ops () =
  let b = Builder.create () in
  Builder.func b "f" ~params:[ "a" ];
  let v = Builder.load b (Reg "a") in
  Builder.store b ~src:v ~addr:(Reg "a") ();
  ignore (Builder.atomic_rmw b Add ~addr:(Reg "a") (Imm 1L));
  Builder.memcpy b ~dst:(Reg "a") ~src:(Reg "a") ~len:(Imm 8L);
  Builder.ret b None;
  let before = Builder.program b in
  let after = Sandbox_pass.instrument_program before in
  (* load, store, atomic: 1 operand each; memcpy: 2 operands. *)
  let expected_added = 5 * Sandbox_pass.added_instructions_per_operand in
  Alcotest.(check int) "added instructions"
    (Ir.instr_count before + expected_added)
    (Ir.instr_count after)

let test_sandbox_leaves_non_memory_alone () =
  let p = Fixtures.rec_sum_program () in
  let p' = Sandbox_pass.instrument_program p in
  Alcotest.(check int) "unchanged" (Ir.instr_count p) (Ir.instr_count p')

(* ------------------------------------------------------------------ *)
(* Codegen + executor, differential against the interpreter            *)

let compile_link ~cfi program = Linker.link (Codegen.compile ~cfi program)

let run_both program func args =
  let wi = make_world () in
  let interp_result = Interp.run (interp_env wi) program func args in
  let we = make_world () in
  let image = compile_link ~cfi:false program in
  let exec_result = Executor.run (exec_env we) image func args in
  (interp_result, exec_result, wi, we)

let test_differential_sum () =
  let i, e, wi, we = run_both (Fixtures.rec_sum_program ()) "sum" [| 250L |] in
  Alcotest.(check int64) "interp" 31375L i;
  Alcotest.(check int64) "exec agrees" i e;
  Alcotest.(check int) "cycles agree" wi.cycles we.cycles

let test_differential_collatz () =
  List.iter
    (fun n ->
      let i, e, wi, we = run_both (Fixtures.collatz_program ()) "collatz" [| n |] in
      Alcotest.(check int64) (Printf.sprintf "collatz %Ld" n) i e;
      Alcotest.(check bytes) "memory agrees" wi.mem we.mem;
      Alcotest.(check int) "cycles agree" wi.cycles we.cycles)
    [ 1L; 6L; 27L; 97L ]

let test_differential_fptr () =
  let program = fptr_program () in
  (* Interpreter needs symbol resolution for the function pointers. *)
  let image = Codegen.compile ~cfi:false program in
  let resolve s = Option.get (Native.addr_of_symbol image s) in
  let wi = make_world () in
  let ienv =
    {
      (interp_env wi) with
      Interp.resolve_sym = resolve;
      func_of_addr =
        (fun a ->
          Native.index_of_addr image a
          |> Option.map (fun i -> (Option.get (Native.symbol_of_index image i)).Native.name));
    }
  in
  let i0 = Interp.run ienv program "dispatch" [| 0L; 10L |] in
  let i1 = Interp.run ienv program "dispatch" [| 1L; 10L |] in
  let we = make_world () in
  let linked = Linker.link image in
  let e0 = Executor.run (exec_env we) linked "dispatch" [| 0L; 10L |] in
  let e1 = Executor.run (exec_env we) linked "dispatch" [| 1L; 10L |] in
  Alcotest.(check int64) "inc" 11L i0;
  Alcotest.(check int64) "dec" 9L i1;
  Alcotest.(check int64) "exec inc" i0 e0;
  Alcotest.(check int64) "exec dec" i1 e1

let test_differential_instrumented () =
  (* The instrumented program must behave identically on safe
     addresses under both engines. *)
  let program = Sandbox_pass.instrument_program (Fixtures.collatz_program ()) in
  let wi = make_world () in
  let i = Interp.run (interp_env wi) program "collatz" [| 27L |] in
  let we = make_world () in
  let image = compile_link ~cfi:true program in
  let e = Executor.run (exec_env we) image "collatz" [| 27L |] in
  Alcotest.(check int64) "instrumented agree" i e;
  Alcotest.(check int64) "steps" 111L e

let test_executor_io () =
  let b = Builder.create () in
  Builder.func b "main" ~params:[];
  Builder.io_write b ~port:(Imm 0x3f8L) (Imm 65L);
  let v = Builder.io_read b (Imm 0x60L) in
  Builder.ret b (Some v);
  let image = compile_link ~cfi:false (Builder.program b) in
  let w = make_world () in
  Alcotest.(check int64) "io" 0x67L (Executor.run (exec_env w) image "main" [||])

let test_executor_extern () =
  let b = Builder.create () in
  Builder.func b "main" ~params:[];
  let r = Builder.call b "extern.helper" [ Imm 5L ] in
  Builder.ret b (Some r);
  let image = compile_link ~cfi:false (Builder.program b) in
  let w = make_world () in
  let env =
    { (exec_env w) with Exec_env.extern = (fun name args ->
          Alcotest.(check string) "extern name" "extern.helper" name;
          Int64.mul args.(0) 3L) }
  in
  Alcotest.(check int64) "extern" 15L (Executor.run env image "main" [||])

let test_executor_fuel () =
  let b = Builder.create () in
  Builder.func b "main" ~params:[];
  Builder.br b "spin";
  Builder.block b "spin";
  Builder.br b "spin";
  let image = compile_link ~cfi:false (Builder.program b) in
  let w = make_world () in
  Alcotest.(check bool) "fuel" true
    (try
       ignore (Executor.run ~fuel:500 (exec_env w) image "main" [||]);
       false
     with Exec_env.Exec_trap _ -> true)

let test_cycle_accounting () =
  (* The instrumented build must charge strictly more cycles. *)
  let native = compile_link ~cfi:false (Fixtures.collatz_program ()) in
  let vg =
    compile_link ~cfi:true (Sandbox_pass.instrument_program (Fixtures.collatz_program ()))
  in
  let wn = make_world () in
  ignore (Executor.run (exec_env wn) native "collatz" [| 97L |]);
  let wv = make_world () in
  ignore (Executor.run (exec_env wv) vg "collatz" [| 97L |]);
  Alcotest.(check bool) "vg costs more" true (wv.cycles > wn.cycles);
  (* Collatz is memory-heavy: instrumentation should cost at least 2x. *)
  Alcotest.(check bool) "overhead is substantial" true
    (float_of_int wv.cycles /. float_of_int wn.cycles > 2.0)

(* ------------------------------------------------------------------ *)
(* CFI                                                                 *)

let test_cfi_image_validates () =
  let image =
    Codegen.compile ~cfi:true (Sandbox_pass.instrument_program (fptr_program ()))
  in
  (match Cfi_pass.validate image with
  | Ok () -> ()
  | Error vs ->
      Alcotest.failf "violations: %s"
        (String.concat "; " (List.map (fun (v : Cfi_pass.violation) -> v.message) vs)));
  Alcotest.(check bool) "has labels" true
    (Native.count image (function Native.NCfiLabel _ -> true | _ -> false) > 0)

let test_native_image_clean () =
  let image = Codegen.compile ~cfi:false (fptr_program ()) in
  Alcotest.(check bool) "no artifacts" true
    (Cfi_pass.validate_uninstrumented image = Ok ())

let test_cfi_catches_unchecked_ret () =
  let image = Codegen.compile ~cfi:false (Fixtures.rec_sum_program ()) in
  Alcotest.(check bool) "flagged" true (Cfi_pass.validate image <> Ok ())

let test_cfi_indirect_call_works () =
  (* A legitimate indirect call through the ops table still works under
     CFI: the target carries the shared label. *)
  let image = compile_link ~cfi:true (fptr_program ()) in
  let w = make_world () in
  Alcotest.(check int64) "legit call" 11L
    (Executor.run (exec_env w) image "dispatch" [| 0L; 10L |])

let test_cfi_blocks_corrupted_fptr () =
  (* Corrupt the ops table so the function pointer aims at attacker-
     chosen user memory. Under CFI the call must be refused; without
     CFI the executor would call foreign code. *)
  let b = Builder.create () in
  Builder.func b "victim" ~params:[];
  let fp = Builder.load b (Imm 0x3000L) in
  let r = Builder.call_indirect b fp [] in
  Builder.ret b (Some r);
  let program = Builder.program b in
  (* CFI build: violation *)
  let image = compile_link ~cfi:true program in
  let w = make_world () in
  world_store w 0x3000L W64 0x400000L (* user-space address *);
  Alcotest.(check bool) "cfi violation" true
    (try
       ignore (Executor.run (exec_env w) image "victim" [||]);
       false
     with Exec_env.Cfi_violation _ -> true);
  (* Native build: the foreign call goes through — hijack succeeds. *)
  let image_native = compile_link ~cfi:false program in
  let hijacked = ref false in
  let w2 = make_world () in
  world_store w2 0x3000L W64 0x400000L;
  let env =
    { (exec_env w2) with Exec_env.call_foreign = (fun addr _ ->
          Alcotest.(check int64) "target" 0x400000L addr;
          hijacked := true;
          0L) }
  in
  ignore (Executor.run env image_native "victim" [||]);
  Alcotest.(check bool) "hijack succeeds without CFI" true !hijacked

let test_cfi_blocks_rop_return () =
  (* Simulate a control-data attack that corrupts a return address to
     point into the middle of a function (a "gadget").  With CFI the
     return is refused because the gadget slot carries no label; the
     uninstrumented kernel happily returns there. *)
  let program = Fixtures.rec_sum_program () in
  let run_with_tamper (image : Linker.image) =
    let w = make_world () in
    (* Redirect every return into the middle of `sum` (slot 3 — an
       arbitrary non-label slot). *)
    let gadget = Native.addr_of_index image.Linker.native 3 in
    let env = { (exec_env w) with Exec_env.tamper_return = Some (fun _ -> gadget) } in
    Executor.run ~fuel:10_000 env image "sum" [| 5L |]
  in
  let vg = compile_link ~cfi:true (Sandbox_pass.instrument_program program) in
  Alcotest.(check bool) "cfi blocks" true
    (try
       ignore (run_with_tamper vg);
       false
     with Exec_env.Cfi_violation _ -> true);
  let native = compile_link ~cfi:false program in
  Alcotest.(check bool) "native follows corrupted return" true
    (try
       ignore (run_with_tamper native);
       true (* terminated somewhere random but without CFI violation *)
     with
    | Exec_env.Cfi_violation _ -> false
    | Exec_env.Exec_trap _ -> true)

let test_cfi_kernel_masking () =
  (* An indirect call whose target is a *user-space* copy of kernel code
     cannot escape: the check masks the address into kernel space
     first.  Target 0x40 masked = kernel_code_start + 0x40, which in our
     image is a non-entry slot -> violation (not a user-code call). *)
  let b = Builder.create () in
  Builder.func b "victim" ~params:[];
  let r = Builder.call_indirect b (Imm 0x40L) [] in
  Builder.ret b (Some r);
  let image = compile_link ~cfi:true (Builder.program b) in
  let w = make_world () in
  let foreign_called = ref false in
  let env =
    { (exec_env w) with Exec_env.call_foreign = (fun _ _ ->
          foreign_called := true;
          0L) }
  in
  (try ignore (Executor.run env image "victim" [||]) with
  | Exec_env.Cfi_violation _ -> ()
  | Exec_env.Exec_trap _ -> ());
  Alcotest.(check bool) "never leaves kernel code" false !foreign_called

(* ------------------------------------------------------------------ *)
(* Iago mmap masking                                                   *)

let test_mmap_mask_pass () =
  let b = Builder.create () in
  Builder.func b "app" ~params:[];
  let p = Builder.call b "extern.mmap" [ Imm 4096L ] in
  Builder.ret b (Some p);
  let program =
    Mmap_mask_pass.instrument_program ~mmap_callees:[ "extern.mmap" ] (Builder.program b)
  in
  let returns = ref 0L in
  let env =
    {
      Interp.load = (fun _ _ -> 0L);
      store = (fun _ _ _ -> ());
      memcpy = (fun ~dst:_ ~src:_ ~len:_ -> ());
      io_read = (fun _ -> 0L);
      io_write = (fun _ _ -> ());
      extern = (fun _ _ -> !returns);
      resolve_sym = (fun _ -> 0L);
      func_of_addr = (fun _ -> None);
      charge = (fun _ -> ());
      fence = (fun () -> ());
    }
  in
  (* Hostile kernel returns a pointer into ghost memory. *)
  returns := 0xffffff0000042000L;
  let got = Interp.run env program "app" [||] in
  Alcotest.(check bool) "moved out of ghost" false (Layout.in_ghost got);
  Alcotest.(check int64) "reference semantics"
    (Mmap_mask_pass.masked_return 0xffffff0000042000L) got;
  (* Benign pointers unchanged. *)
  returns := 0x7f0000001000L;
  Alcotest.(check int64) "benign unchanged" 0x7f0000001000L
    (Interp.run env program "app" [||])

let prop_mmap_mask_reference =
  QCheck2.Test.make ~name:"mmap mask never returns ghost pointer" ~count:2000
    QCheck2.Gen.(map Int64.of_int int)
    (fun v -> not (Layout.in_ghost (Mmap_mask_pass.masked_return v)))

(* ------------------------------------------------------------------ *)
(* Optimizer                                                           *)

let test_opt_constant_folding () =
  let b = Builder.create () in
  Builder.func b "f" ~params:[];
  let x = Builder.bin b Add (Imm 2L) (Imm 3L) in
  let y = Builder.bin b Mul x (Imm 4L) in
  let z = Builder.cmp b Eq y (Imm 20L) in
  let r = Builder.select b z (Imm 111L) (Imm 222L) in
  Builder.ret b (Some r);
  let opt = Opt_pass.optimize_program (Builder.program b) in
  (* Everything folds to constants; semantics check via the interpreter. *)
  let env =
    {
      Interp.load = (fun _ _ -> 0L);
      store = (fun _ _ _ -> ());
      memcpy = (fun ~dst:_ ~src:_ ~len:_ -> ());
      io_read = (fun _ -> 0L);
      io_write = (fun _ _ -> ());
      extern = (fun _ _ -> 0L);
      resolve_sym = (fun _ -> 0L);
      func_of_addr = (fun _ -> None);
      charge = (fun _ -> ());
      fence = (fun () -> ());
    }
  in
  Alcotest.(check int64) "folded result" 111L (Interp.run env opt "f" [||])

let test_opt_branch_folding_prunes () =
  let b = Builder.create () in
  Builder.func b "f" ~params:[];
  let c = Builder.cmp b Eq (Imm 1L) (Imm 1L) in
  Builder.cbr b c "yes" "no";
  Builder.block b "yes";
  Builder.ret b (Some (Imm 1L));
  Builder.block b "no";
  Builder.ret b (Some (Imm 0L));
  let opt = Opt_pass.optimize_program (Builder.program b) in
  let f = Option.get (Ir.find_func opt "f") in
  Alcotest.(check int) "dead branch pruned" 2 (List.length f.Ir.blocks);
  Alcotest.(check bool) "no block is 'no'" false
    (List.exists (fun (blk : Ir.block) -> blk.Ir.label = "no") f.Ir.blocks)

let test_opt_dce () =
  let b = Builder.create () in
  Builder.func b "f" ~params:[ "x" ];
  let _dead = Builder.bin b Add (Reg "x") (Imm 1L) in
  let _dead2 = Builder.cmp b Eq (Reg "x") (Imm 0L) in
  let live = Builder.bin b Mul (Reg "x") (Imm 2L) in
  Builder.ret b (Some live);
  let opt = Opt_pass.optimize_program (Builder.program b) in
  Alcotest.(check int) "dead arithmetic removed" 1 (Ir.instr_count opt)

let test_opt_keeps_effects () =
  let b = Builder.create () in
  Builder.func b "f" ~params:[ "p" ];
  (* Results unused, but loads can fault and stores/calls/IO are
     effects: none may be removed. *)
  let _l = Builder.load b (Reg "p") in
  Builder.store b ~src:(Imm 1L) ~addr:(Reg "p") ();
  let _c = Builder.call b "extern.effect" [] in
  Builder.io_write b ~port:(Imm 0x80L) (Imm 1L);
  Builder.ret b None;
  let before = Ir.instr_count (Builder.program b) in
  ignore before;
  let b2 = Builder.create () in
  Builder.func b2 "f" ~params:[ "p" ];
  let _l = Builder.load b2 (Reg "p") in
  Builder.store b2 ~src:(Imm 1L) ~addr:(Reg "p") ();
  let _c = Builder.call b2 "extern.effect" [] in
  Builder.io_write b2 ~port:(Imm 0x80L) (Imm 1L);
  Builder.ret b2 None;
  let opt = Opt_pass.optimize_program (Builder.program b2) in
  Alcotest.(check int) "effects kept" 4 (Ir.instr_count opt)

let test_opt_no_div_by_zero_folding () =
  let b = Builder.create () in
  Builder.func b "f" ~params:[];
  let d = Builder.bin b Udiv (Imm 1L) (Imm 0L) in
  Builder.ret b (Some d);
  let opt = Opt_pass.optimize_program (Builder.program b) in
  let env =
    {
      Interp.load = (fun _ _ -> 0L);
      store = (fun _ _ _ -> ());
      memcpy = (fun ~dst:_ ~src:_ ~len:_ -> ());
      io_read = (fun _ -> 0L);
      io_write = (fun _ _ -> ());
      extern = (fun _ _ -> 0L);
      resolve_sym = (fun _ -> 0L);
      func_of_addr = (fun _ -> None);
      charge = (fun _ -> ());
      fence = (fun () -> ());
    }
  in
  Alcotest.(check bool) "still traps" true
    (try
       ignore (Interp.run env opt "f" [||]);
       false
     with Interp.Trap _ -> true)

(* ------------------------------------------------------------------ *)
(* Linker                                                              *)

let test_linker_structure () =
  let program = fptr_program () in
  let native = Codegen.compile ~cfi:true (Sandbox_pass.instrument_program program) in
  let linked = Linker.link native in
  Alcotest.(check int) "one func per symbol" (List.length native.Native.symbols)
    (Array.length linked.Linker.funcs);
  Alcotest.(check int) "lcode covers code" (Array.length native.Native.code)
    (Array.length linked.Linker.lcode);
  List.iter
    (fun (s : Native.symbol) ->
      match Linker.find_func linked s.Native.name with
      | None -> Alcotest.failf "symbol %s lost by linker" s.Native.name
      | Some id ->
          let f = linked.Linker.funcs.(id) in
          Alcotest.(check string) "name" s.Native.name f.Linker.f_name;
          Alcotest.(check int) "entry" s.Native.entry f.Linker.f_entry;
          Alcotest.(check int) "arity" (List.length s.Native.params)
            (Array.length f.Linker.f_params);
          Alcotest.(check int) "entry_of inverse" id
            linked.Linker.entry_of.(s.Native.entry);
          Alcotest.(check int) "owner of entry" id
            linked.Linker.owner_of.(s.Native.entry))
    native.Native.symbols;
  (* every CFI label is pre-resolved *)
  Array.iteri
    (fun i ins ->
      match ins with
      | Native.NCfiLabel l ->
          Alcotest.(check int) "label_of" (Int32.to_int l) linked.Linker.label_of.(i)
      | _ ->
          Alcotest.(check int) "no stray label" Linker.no_label
            linked.Linker.label_of.(i))
    native.Native.code

let test_linker_register_slots_dense () =
  (* Parameters take the first frame slots, in order; every register
     named in a function maps below f_nregs. *)
  let linked = compile_link ~cfi:false (fptr_program ()) in
  Array.iter
    (fun (f : Linker.func) ->
      Array.iteri
        (fun j slot ->
          Alcotest.(check bool) (Printf.sprintf "%s param %d" f.Linker.f_name j) true
            (slot = j))
        f.Linker.f_params;
      Alcotest.(check int) "names cover frame" f.Linker.f_nregs
        (Array.length f.Linker.f_names))
    linked.Linker.funcs

(* An indirect checked call that lands on a *return-site* label (a
   labelled slot that is not a function entry) must name the owning
   function in the trap, not just a raw slot number. *)
let test_indirect_call_to_nonentry_names_owner () =
  let b = Builder.create () in
  Builder.func b "leaf" ~params:[];
  Builder.ret b (Some (Imm 1L));
  Builder.func b "caller" ~params:[];
  let r = Builder.call b "leaf" [] in
  Builder.ret b (Some r);
  Builder.func b "victim" ~params:[];
  let fp = Builder.load b (Imm 0x3000L) in
  let r = Builder.call_indirect b fp [] in
  Builder.ret b (Some r);
  let image = Codegen.compile ~cfi:true (Builder.program b) in
  let linked = Linker.link image in
  (* find a labelled slot that is not any function's entry: the return
     site of the call inside `caller` *)
  let gadget = ref (-1) in
  Array.iteri
    (fun i ins ->
      match ins with
      | Native.NCfiLabel _ when linked.Linker.entry_of.(i) < 0 && !gadget < 0 ->
          gadget := i
      | _ -> ())
    image.Native.code;
  Alcotest.(check bool) "found a return-site label" true (!gadget >= 0);
  let w = make_world () in
  world_store w 0x3000L W64 (Native.addr_of_index image !gadget);
  let contains ~needle hay =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  match Executor.run (exec_env w) linked "victim" [||] with
  | _ -> Alcotest.fail "expected a trap"
  | exception Exec_env.Exec_trap msg ->
      Alcotest.(check bool)
        (Printf.sprintf "trap names owner: %s" msg)
        true
        (contains ~needle:"caller" msg
        && contains ~needle:"not a function entry" msg)
  | exception Exec_env.Cfi_violation msg ->
      Alcotest.failf "unexpected CFI violation: %s" msg

let test_checked_return_cycles_unchanged () =
  (* The pre-resolved fast path for checked returns must charge exactly
     what the slow probe does: Cfi_pass.check_extra_cycles per return,
     on top of one cycle per slot. *)
  let program = Sandbox_pass.instrument_program (Fixtures.rec_sum_program ()) in
  let vg = compile_link ~cfi:true program in
  let w = make_world () in
  ignore (Executor.run (exec_env w) vg "sum" [| 10L |]);
  let with_fast_path = w.cycles in
  (* Force the slow path with an identity tamper hook: same masking and
     label probe, just not pre-resolved. *)
  let w2 = make_world () in
  let env = { (exec_env w2) with Exec_env.tamper_return = Some (fun a -> a) } in
  ignore (Executor.run env vg "sum" [| 10L |]);
  Alcotest.(check int) "fast path charges the same" w2.cycles with_fast_path

let test_trans_cache_roundtrip () =
  let cache = Trans_cache.create ~key:(Bytes.of_string "vm-secret") in
  let image = compile_link ~cfi:true (Fixtures.rec_sum_program ()) in
  Trans_cache.add cache ~name:"kernel" ~instrumented:false image;
  match Trans_cache.find cache ~name:"kernel" with
  | Error e -> Alcotest.failf "image should verify: %s" (Trans_cache.describe_find_error e)
  | Ok image' ->
      Alcotest.(check int) "same size"
        (Array.length image.Linker.native.Native.code)
        (Array.length image'.Linker.native.Native.code);
      let w = make_world () in
      Alcotest.(check int64) "still runs" 15L
        (Executor.run (exec_env w) image' "sum" [| 5L |])

let test_trans_cache_tamper_detected () =
  let cache = Trans_cache.create ~key:(Bytes.of_string "vm-secret") in
  let image = compile_link ~cfi:true (Fixtures.rec_sum_program ()) in
  Trans_cache.add cache ~name:"kernel" ~instrumented:false image;
  Trans_cache.tamper cache ~name:"kernel";
  Alcotest.(check bool) "rejected" true
    (Trans_cache.find cache ~name:"kernel" = Error Trans_cache.Bad_signature)

let test_trans_cache_wrong_key () =
  let cache = Trans_cache.create ~key:(Bytes.of_string "vm-secret") in
  let image = compile_link ~cfi:true (Fixtures.rec_sum_program ()) in
  let signed = Trans_cache.sign cache ~instrumented:false image in
  let other = Trans_cache.create ~key:(Bytes.of_string "evil-key") in
  Alcotest.(check bool) "foreign signature rejected" true
    (Trans_cache.verify_and_load other signed = Error Trans_cache.Bad_signature)

(* ------------------------------------------------------------------ *)
(* Syscall-flow graphs                                                 *)

let sfip_resolve = function
  | "extern.open" -> Some 1
  | "extern.read" -> Some 2
  | "extern.close" -> Some 3
  | "extern.write" -> Some 4
  | _ -> None

(* main: open, call helper (which writes), close.  The direct call
   splices helper's (first, last) summary into main's chain. *)
let sfip_demo_program () =
  let b = Builder.create () in
  Builder.func b "helper" ~params:[];
  let _ = Builder.call b "extern.write" [ Imm 1L ] in
  Builder.ret b (Some (Imm 0L));
  Builder.func b "main" ~params:[];
  let _ = Builder.call b "extern.open" [ Imm 7L ] in
  let _ = Builder.call b "helper" [] in
  let _ = Builder.call b "extern.close" [ Imm 7L ] in
  Builder.ret b (Some (Imm 0L));
  Builder.program b

let test_sfip_extract_direct_calls () =
  let image = compile_link ~cfi:false (sfip_demo_program ()) in
  let g = Sfip.extract ~resolve:sfip_resolve ~n:8 ~entries:[ "main" ] image in
  Alcotest.(check int) "one entry" 1 (Sfip.entry_count g);
  Alcotest.(check bool) "entry is open" true (Sfip.entry_allowed g 1);
  Alcotest.(check bool) "open -> write (into helper)" true
    (Sfip.allowed g ~from:1 ~to_:4);
  Alcotest.(check bool) "write -> close (out of helper)" true
    (Sfip.allowed g ~from:4 ~to_:3);
  Alcotest.(check bool) "helper cannot be skipped" false
    (Sfip.allowed g ~from:1 ~to_:3);
  Alcotest.(check int) "exactly two transitions" 2 (Sfip.transition_count g)

let test_sfip_wire_roundtrip () =
  let image = compile_link ~cfi:false (sfip_demo_program ()) in
  let g = Sfip.extract ~resolve:sfip_resolve ~n:8 image in
  let wire = Sfip.to_bytes g in
  (match Sfip.of_bytes wire with
  | None -> Alcotest.fail "wire form should decode"
  | Some g' -> Alcotest.(check bool) "roundtrip equal" true (Sfip.equal g g'));
  (* Strict decode: every single-byte corruption is refused or decodes
     to a graph that is not the original (never a silent mutation into
     an accepted different policy at the header level). *)
  Alcotest.(check bool) "truncation refused" true
    (Sfip.of_bytes (Bytes.sub wire 0 (Bytes.length wire - 1)) = None);
  let header_corrupt = Bytes.copy wire in
  Bytes.set header_corrupt 0 '\xff';
  Alcotest.(check bool) "bad magic refused" true (Sfip.of_bytes header_corrupt = None)

let test_trans_cache_policy_carried () =
  let cache = Trans_cache.create ~key:(Bytes.of_string "vm-secret") in
  Trans_cache.set_syscall_resolver cache ~n:8 sfip_resolve;
  let image = compile_link ~cfi:false (sfip_demo_program ()) in
  let g = Sfip.extract ~resolve:sfip_resolve ~n:8 image in
  Trans_cache.add cache ~name:"app" ~instrumented:false ~sfip:g image;
  (match Trans_cache.find_with_policy cache ~name:"app" with
  | Error e -> Alcotest.failf "should load: %s" (Trans_cache.describe_find_error e)
  | Ok (_, None) -> Alcotest.fail "graph lost by the cache"
  | Ok (_, Some g') -> Alcotest.(check bool) "carried graph equal" true (Sfip.equal g g'));
  match Trans_cache.policy cache ~name:"app" with
  | Ok (Some _) -> ()
  | _ -> Alcotest.fail "policy accessor should yield the graph"

(* A signed blob whose graph does not match its code is refused by the
   verifier's Policy invariant — the OS cannot pair honest code with a
   permissive profile even if it controls the cache file. *)
let test_trans_cache_policy_mismatch () =
  let cache = Trans_cache.create ~key:(Bytes.of_string "vm-secret") in
  Trans_cache.set_syscall_resolver cache ~n:8 sfip_resolve;
  let image = compile_link ~cfi:false (sfip_demo_program ()) in
  let permissive = Sfip.create ~n:8 in
  for i = 0 to 7 do
    Sfip.allow_entry permissive i;
    for j = 0 to 7 do
      Sfip.allow permissive ~from:i ~to_:j
    done
  done;
  let signed = Trans_cache.sign cache ~instrumented:false ~sfip:permissive image in
  match Trans_cache.verify_and_load cache signed with
  | Error (Trans_cache.Rejected_by_verifier vs) ->
      Alcotest.(check bool) "a Policy violation" true
        (List.exists (fun v -> v.Image_verify.invariant = Image_verify.Policy) vs)
  | Error e -> Alcotest.failf "wrong refusal: %s" (Trans_cache.describe_find_error e)
  | Ok _ -> Alcotest.fail "mismatched policy must not load"

let test_trans_cache_policy_needs_resolver () =
  let cache = Trans_cache.create ~key:(Bytes.of_string "vm-secret") in
  let image = compile_link ~cfi:false (sfip_demo_program ()) in
  let g = Sfip.extract ~resolve:sfip_resolve ~n:8 image in
  Trans_cache.add cache ~name:"app" ~instrumented:false ~sfip:g image;
  match Trans_cache.find cache ~name:"app" with
  | Error (Trans_cache.Rejected_by_verifier vs) ->
      Alcotest.(check bool) "fails closed on Policy" true
        (List.exists (fun v -> v.Image_verify.invariant = Image_verify.Policy) vs)
  | _ -> Alcotest.fail "policy blob without a resolver must be refused"

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)

let test_pipeline_vg_mode () =
  let compiled = Pipeline.compile_kernel_code ~mode:Pipeline.Virtual_ghost (fptr_program ()) in
  Alcotest.(check bool) "validates" true (Cfi_pass.validate compiled.Pipeline.image = Ok ());
  Alcotest.(check bool) "bigger than native" true
    (Array.length compiled.Pipeline.image.Native.code
    > Array.length
        (Pipeline.compile_kernel_code ~mode:Pipeline.Native_build (fptr_program ()))
          .Pipeline.image.Native.code)

let test_pipeline_rejects_malformed () =
  let f : Ir.func =
    { name = "f"; params = []; blocks = [ { label = "entry"; instrs = []; term = Br "nope" } ] }
  in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Pipeline.compile_kernel_code { funcs = [ f ] });
       false
     with Pipeline.Rejected _ -> true)

let test_pipeline_application_mode () =
  let b = Builder.create () in
  Builder.func b "app" ~params:[];
  let p = Builder.call b "extern.mmap" [ Imm 4096L ] in
  Builder.ret b (Some p);
  let compiled = Pipeline.compile_application_code (Builder.program b) in
  (* Application code is not CFI-instrumented... *)
  Alcotest.(check bool) "no cfi" true
    (Cfi_pass.validate_uninstrumented compiled.Pipeline.image = Ok ());
  (* ...but does carry the Iago masking (more instructions than a bare
     call + ret would lower to). *)
  Alcotest.(check bool) "mask added" true
    (Array.length compiled.Pipeline.image.Native.code > 2)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "vg_compiler"
    [
      ( "layout",
        [
          Alcotest.test_case "partitions" `Quick test_layout_partitions;
          Alcotest.test_case "escape bit" `Quick test_layout_escape_bit;
        ] );
      ( "sandbox",
        [
          Alcotest.test_case "masked_address semantics" `Quick test_masked_address_semantics;
          Alcotest.test_case "instruments all memory ops" `Quick
            test_sandbox_instruments_all_memory_ops;
          Alcotest.test_case "leaves non-memory alone" `Quick
            test_sandbox_leaves_non_memory_alone;
        ] );
      ( "sandbox-properties",
        qcheck
          [
            prop_masked_never_ghost_or_sva; prop_masked_preserves_safe;
            prop_ir_sequence_matches_reference;
          ] );
      ( "codegen-executor",
        [
          Alcotest.test_case "differential: sum" `Quick test_differential_sum;
          Alcotest.test_case "differential: collatz" `Quick test_differential_collatz;
          Alcotest.test_case "differential: function pointers" `Quick test_differential_fptr;
          Alcotest.test_case "differential: instrumented" `Quick
            test_differential_instrumented;
          Alcotest.test_case "io" `Quick test_executor_io;
          Alcotest.test_case "extern" `Quick test_executor_extern;
          Alcotest.test_case "fuel" `Quick test_executor_fuel;
          Alcotest.test_case "cycle accounting" `Quick test_cycle_accounting;
        ] );
      ( "linker",
        [
          Alcotest.test_case "structure" `Quick test_linker_structure;
          Alcotest.test_case "dense register slots" `Quick
            test_linker_register_slots_dense;
          Alcotest.test_case "indirect call to non-entry names owner" `Quick
            test_indirect_call_to_nonentry_names_owner;
          Alcotest.test_case "checked-return cycles unchanged" `Quick
            test_checked_return_cycles_unchanged;
        ] );
      ( "cfi",
        [
          Alcotest.test_case "image validates" `Quick test_cfi_image_validates;
          Alcotest.test_case "native image clean" `Quick test_native_image_clean;
          Alcotest.test_case "catches unchecked ret" `Quick test_cfi_catches_unchecked_ret;
          Alcotest.test_case "legit indirect call works" `Quick test_cfi_indirect_call_works;
          Alcotest.test_case "blocks corrupted fptr" `Quick test_cfi_blocks_corrupted_fptr;
          Alcotest.test_case "blocks ROP-style return" `Quick test_cfi_blocks_rop_return;
          Alcotest.test_case "kernel target masking" `Quick test_cfi_kernel_masking;
        ] );
      ( "iago",
        Alcotest.test_case "mmap mask pass" `Quick test_mmap_mask_pass
        :: qcheck [ prop_mmap_mask_reference ] );
      ( "optimizer",
        [
          Alcotest.test_case "constant folding" `Quick test_opt_constant_folding;
          Alcotest.test_case "branch folding prunes" `Quick test_opt_branch_folding_prunes;
          Alcotest.test_case "dead code elimination" `Quick test_opt_dce;
          Alcotest.test_case "keeps effects" `Quick test_opt_keeps_effects;
          Alcotest.test_case "div-by-zero not folded" `Quick test_opt_no_div_by_zero_folding;
        ] );
      ( "trans-cache",
        [
          Alcotest.test_case "round-trip" `Quick test_trans_cache_roundtrip;
          Alcotest.test_case "tamper detected" `Quick test_trans_cache_tamper_detected;
          Alcotest.test_case "wrong key" `Quick test_trans_cache_wrong_key;
        ] );
      ( "sfip",
        [
          Alcotest.test_case "extraction with direct-call summaries" `Quick
            test_sfip_extract_direct_calls;
          Alcotest.test_case "wire roundtrip, strict decode" `Quick
            test_sfip_wire_roundtrip;
          Alcotest.test_case "trans-cache carries the graph" `Quick
            test_trans_cache_policy_carried;
          Alcotest.test_case "code/policy mismatch refused" `Quick
            test_trans_cache_policy_mismatch;
          Alcotest.test_case "no resolver fails closed" `Quick
            test_trans_cache_policy_needs_resolver;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "vg mode" `Quick test_pipeline_vg_mode;
          Alcotest.test_case "rejects malformed" `Quick test_pipeline_rejects_malformed;
          Alcotest.test_case "application mode" `Quick test_pipeline_application_mode;
        ] );
    ]
