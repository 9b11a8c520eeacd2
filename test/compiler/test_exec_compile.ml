(* Tests for the closure-compiled execution engine: exact parity with
   the slot executor on the CFI attack scenarios (ROP via tampered
   returns, corrupted function pointers, kernel-space masking), host
   allocation no higher than the slot executor's, run-state reuse
   across traps, re-entry and interleaved fibers, the v4
   translation cache (verify-before-compile, HMAC-keyed memoization of
   both the verifier and the closure compiler), and the fusion
   statistics of the translator itself. *)

(* ------------------------------------------------------------------ *)
(* Memory environment with per-tag cycle accounting.                   *)

type world = {
  mem : Bytes.t;
  base : int64;
  by_tag : int array;
  mutable stores : (int64 * int64) list;
}

let make_world ?(base = 0x1000L) () =
  {
    mem = Bytes.make 65536 '\000';
    base;
    by_tag = Array.make Obs.Tag.count 0;
    stores = [];
  }

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
    charge =
      (fun tag n ->
        let i = Obs.Tag.index tag in
        w.by_tag.(i) <- w.by_tag.(i) + n);
  }

(* ------------------------------------------------------------------ *)
(* Fixtures come from [Vg_oracle.Fixtures].                           *)

let compile_link ~cfi program = Linker.link (Codegen.compile ~cfi program)

(* ------------------------------------------------------------------ *)
(* Outcome capture: value / trap / CFI violation, message included.    *)

type outcome = Value of int64 | Trap of string | Cfi of string

let show_outcome = function
  | Value v -> Printf.sprintf "value %Ld" v
  | Trap m -> "trap: " ^ m
  | Cfi m -> "cfi: " ^ m

let capture f =
  match f () with
  | v -> Value v
  | exception Exec_env.Exec_trap m -> Trap m
  | exception Exec_env.Cfi_violation m -> Cfi m

(* Run the same image through both engines (fresh worlds, optionally
   tweaked envs) and demand byte-identical observable behaviour:
   outcome, per-tag cycle counts, store trace and final memory. *)
let check_parity ?fuel ?(tweak = fun _image env -> env) name image entry args =
  let w1 = make_world () in
  let env1 = tweak image (exec_env w1) in
  let o1 = capture (fun () -> Executor.run ?fuel env1 image entry args) in
  let w2 = make_world () in
  let env2 = tweak image (exec_env w2) in
  let t = Exec_compile.compile image in
  let o2 = capture (fun () -> Exec_compile.run ?fuel env2 t entry args) in
  Alcotest.(check string) (name ^ ": outcome") (show_outcome o1) (show_outcome o2);
  Alcotest.(check (array int)) (name ^ ": cycles by tag") w1.by_tag w2.by_tag;
  Alcotest.(check bool) (name ^ ": store trace") true (w1.stores = w2.stores);
  Alcotest.(check bool) (name ^ ": memory") true (Bytes.equal w1.mem w2.mem);
  o1

(* ------------------------------------------------------------------ *)
(* Fixture parity, all build modes                                     *)

let test_fixture_parity () =
  List.iter
    (fun (label, program, entry, args) ->
      let native = compile_link ~cfi:false program in
      (match check_parity (label ^ "/native") native entry args with
      | Value _ -> ()
      | o -> Alcotest.failf "%s/native did not terminate: %s" label (show_outcome o));
      let vg =
        compile_link ~cfi:true (Sandbox_pass.instrument_program program)
      in
      (match check_parity (label ^ "/vg") vg entry args with
      | Value _ -> ()
      | o -> Alcotest.failf "%s/vg did not terminate: %s" label (show_outcome o)))
    [
      ("collatz", Fixtures.collatz_program (), "collatz", [| 97L |]);
      ("recsum", Fixtures.rec_sum_program (), "sum", [| 40L |]);
    ]

let test_fuel_exhaustion_parity () =
  (* Starve both engines identically: same trap, same partial cycle
     bill, same partial memory effects. *)
  let image = compile_link ~cfi:false (Fixtures.collatz_program ()) in
  match check_parity ~fuel:100 "fuel" image "collatz" [| 97L |] with
  | Trap _ -> ()
  | o -> Alcotest.failf "expected fuel trap, got %s" (show_outcome o)

(* ------------------------------------------------------------------ *)
(* Attack parity: tampered returns (ROP)                               *)

let test_rop_tamper_parity () =
  let program = Fixtures.rec_sum_program () in
  let tweak (image : Linker.image) env =
    (* Redirect every return into the middle of `sum` (slot 3 — an
       arbitrary non-label slot), as in the slot-executor ROP test. *)
    let gadget = Native.addr_of_index image.Linker.native 3 in
    { env with Exec_env.tamper_return = Some (fun _ -> gadget) }
  in
  let vg = compile_link ~cfi:true (Sandbox_pass.instrument_program program) in
  (match check_parity ~fuel:10_000 ~tweak "rop/vg" vg "sum" [| 5L |] with
  | Cfi _ -> ()
  | o -> Alcotest.failf "expected CFI violation under vg, got %s" (show_outcome o));
  let native = compile_link ~cfi:false program in
  (* Without CFI the corrupted return is followed: the run ends somewhere
     random (trap or stray value) but never with a CFI violation. *)
  match check_parity ~fuel:10_000 ~tweak "rop/native" native "sum" [| 5L |] with
  | Trap _ | Value _ -> ()
  | Cfi _ as o -> Alcotest.failf "unexpected CFI violation under native: %s" (show_outcome o)

(* ------------------------------------------------------------------ *)
(* Attack parity: corrupted function pointer                           *)

let victim_fptr_program () =
  let b = Builder.create () in
  Builder.func b "victim" ~params:[];
  let fp = Builder.load b (Imm 0x3000L) in
  let r = Builder.call_indirect b fp [] in
  Builder.ret b (Some r);
  Builder.program b

let test_corrupted_fptr_parity () =
  let program = victim_fptr_program () in
  (* CFI build: both engines refuse the call with the same violation. *)
  let poison image name =
    let w1 = make_world () in
    world_store w1 0x3000L W64 0x400000L;
    let o1 = capture (fun () -> Executor.run (exec_env w1) image "victim" [||]) in
    let w2 = make_world () in
    world_store w2 0x3000L W64 0x400000L;
    let t = Exec_compile.compile image in
    let o2 = capture (fun () -> Exec_compile.run (exec_env w2) t "victim" [||]) in
    Alcotest.(check string) (name ^ ": outcome") (show_outcome o1) (show_outcome o2);
    Alcotest.(check (array int)) (name ^ ": cycles by tag") w1.by_tag w2.by_tag;
    o1
  in
  (match poison (compile_link ~cfi:true program) "fptr/cfi" with
  | Cfi _ -> ()
  | o -> Alcotest.failf "expected CFI violation, got %s" (show_outcome o));
  (* Native build: the hijack goes through — on both engines, to the
     same attacker-chosen target. *)
  let image_native = compile_link ~cfi:false program in
  let hijack run =
    let w = make_world () in
    world_store w 0x3000L W64 0x400000L;
    let hijacked = ref 0L in
    let env =
      {
        (exec_env w) with
        Exec_env.call_foreign =
          (fun addr _ ->
            hijacked := addr;
            0L);
      }
    in
    ignore (run env);
    !hijacked
  in
  Alcotest.(check int64) "slot executor hijacked" 0x400000L
    (hijack (fun env -> Executor.run env image_native "victim" [||]));
  let t = Exec_compile.compile image_native in
  Alcotest.(check int64) "compiled engine hijacked" 0x400000L
    (hijack (fun env -> Exec_compile.run env t "victim" [||]))

let test_kernel_masking_parity () =
  (* The indirect-call check masks the target into kernel space before
     lookup on both engines: a user-space target can never reach
     call_foreign. *)
  let b = Builder.create () in
  Builder.func b "victim" ~params:[];
  let r = Builder.call_indirect b (Imm 0x40L) [] in
  Builder.ret b (Some r);
  let image = compile_link ~cfi:true (Builder.program b) in
  let run_engine run =
    let w = make_world () in
    let foreign_called = ref false in
    let env =
      {
        (exec_env w) with
        Exec_env.call_foreign =
          (fun _ _ ->
            foreign_called := true;
            0L);
      }
    in
    let o = capture (fun () -> run env) in
    (o, !foreign_called, w.by_tag)
  in
  let o1, f1, c1 = run_engine (fun env -> Executor.run env image "victim" [||]) in
  let t = Exec_compile.compile image in
  let o2, f2, c2 = run_engine (fun env -> Exec_compile.run env t "victim" [||]) in
  Alcotest.(check bool) "slot executor stays in kernel" false f1;
  Alcotest.(check bool) "compiled engine stays in kernel" false f2;
  Alcotest.(check string) "same outcome" (show_outcome o1) (show_outcome o2);
  Alcotest.(check (array int)) "same cycles" c1 c2

(* ------------------------------------------------------------------ *)
(* Host-allocation parity                                              *)

(* The kernel runs every module through the compiled engine, so it must
   cost no more host allocation than the slot executor, its reference.
   The fixture is a read() override that checksums a 4 KiB buffer by
   recursion over 8-byte words: a call, a guarded load and a return per
   word, the shape of a verified module's hot path. *)
let checksum_program () =
  let b = Builder.create () in
  Builder.func b "sys_read" ~params:[ "fd"; "buf"; "len" ];
  let n = Builder.call b "extern.genuine_read" [ Reg "fd"; Reg "buf"; Reg "len" ] in
  let nothing = Builder.cmp b Slt n (Imm 1L) in
  Builder.cbr b nothing "done" "sum";
  Builder.block b "done";
  Builder.ret b (Some n);
  Builder.block b "sum";
  let sum = Builder.call b "csum" [ Reg "buf"; n ] in
  Builder.ret b (Some (Builder.bin b And sum (Imm 0x3fffffffL)));
  Builder.func b "csum" ~params:[ "p"; "n" ];
  let short = Builder.cmp b Ult (Reg "n") (Imm 8L) in
  Builder.cbr b short "base" "step";
  Builder.block b "base";
  Builder.ret b (Some (Imm 0L));
  Builder.block b "step";
  let word = Builder.load b ~width:W64 (Reg "p") in
  let rest =
    Builder.call b "csum"
      [ Builder.bin b Add (Reg "p") (Imm 8L); Builder.bin b Sub (Reg "n") (Imm 8L) ]
  in
  Builder.ret b (Some (Builder.bin b Add (Builder.bin b Mul rest (Imm 31L)) word));
  Builder.program b

(* Host words [f] allocates ({!Alloc_meter}): a register file that
   grows skips the minor heap, so the direct major words count too. *)
let host_words f =
  let r, c = Alloc_meter.count f in
  (r, c.Alloc_meter.words, c.Alloc_meter.direct_major)

let checksum_buf = 0x4000L
let checksum_len = 4096

(* A world holding [checksum_len] seeded bytes at [checksum_buf], and
   an env whose genuine_read reports the whole buffer as read. *)
let checksum_world ?(extern = fun _ args -> args.(2)) seed =
  let w = make_world () in
  let rng = Random.State.make [| seed |] in
  for j = 0 to checksum_len - 1 do
    world_store w
      (Int64.add checksum_buf (Int64.of_int j))
      W8
      (Int64.of_int (Random.State.int rng 256))
  done;
  w.stores <- [];
  (w, { (exec_env w) with Exec_env.extern })

let checksum_args = [| 3L; checksum_buf; Int64.of_int checksum_len |]

let checksum_image () =
  compile_link ~cfi:true (Sandbox_pass.instrument_program (checksum_program ()))

let test_alloc_parity () =
  let image = checksum_image () in
  let measure run =
    let w, env = checksum_world 7 in
    let v, words, major = host_words (fun () -> run env) in
    (v, Array.fold_left ( + ) 0 w.by_tag, words, major)
  in
  let v1, c1, a1, _ = measure (fun env -> Executor.run env image "sys_read" checksum_args) in
  let t = Exec_compile.compile image in
  let cold = measure (fun env -> Exec_compile.run env t "sys_read" checksum_args) in
  let warm = measure (fun env -> Exec_compile.run env t "sys_read" checksum_args) in
  List.iter
    (fun (what, (v, c, a, _)) ->
      Alcotest.(check int64) (what ^ ": same checksum") v1 v;
      Alcotest.(check int) (what ^ ": same cycles") c1 c;
      if a > a1 then
        Alcotest.failf "%s compiled run allocated %.0f words, slot executor %.0f" what a a1)
    [ ("cold", cold); ("warm", warm) ];
  let _, _, _, warm_major = warm in
  if warm_major > 0. then
    Alcotest.failf "warm compiled run allocated %.0f words on the major heap" warm_major

(* ------------------------------------------------------------------ *)
(* Run-state reuse                                                     *)

(* A run keeps its register file, stamps and frame stack for the
   image's next run.  Whatever the earlier runs did, a run must return
   what it returns on a freshly compiled image, cycle for cycle. *)
let fresh_checksum seed =
  let w, env = checksum_world seed in
  let t = Exec_compile.compile (checksum_image ()) in
  let v = Exec_compile.run env t "sys_read" checksum_args in
  (v, w.by_tag)

let check_checksum_run what t seed =
  let expect_v, expect_cycles = fresh_checksum seed in
  let w, env = checksum_world seed in
  let v = Exec_compile.run env t "sys_read" checksum_args in
  Alcotest.(check int64) (what ^ ": result") expect_v v;
  Alcotest.(check (array int)) (what ^ ": cycles by tag") expect_cycles w.by_tag

let test_reuse_after_trap () =
  let t = Exec_compile.compile (checksum_image ()) in
  check_checksum_run "first" t 7;
  (* Out of fuel deep in the recursion, with hundreds of frames live. *)
  let _, env = checksum_world 8 in
  (match capture (fun () -> Exec_compile.run ~fuel:5_000 env t "sys_read" checksum_args) with
  | Trap _ -> ()
  | o -> Alcotest.failf "expected a fuel trap, got %s" (show_outcome o));
  check_checksum_run "after the trap" t 9;
  check_checksum_run "warm" t 10

(* [f x] defines [y] only when [x] is nonzero, then returns it. *)
let maybe_defined_program () : Ir.program =
  let block label instrs term : Ir.block = { label; instrs; term } in
  {
    funcs =
      [
        {
          name = "f";
          params = [ "x" ];
          blocks =
            [
              block "entry" [] (Cbr { cond = Reg "x"; if_true = "def"; if_false = "use" });
              block "def" [ Bin { dst = "y"; op = Add; a = Imm 5L; b = Imm 0L } ] (Br "use");
              block "use" [] (Ret (Some (Reg "y")));
            ];
        };
      ];
  }

let test_stale_slot_traps () =
  let image = compile_link ~cfi:false (maybe_defined_program ()) in
  let run t x =
    let w = make_world () in
    let o = capture (fun () -> Exec_compile.run (exec_env w) t "f" [| x |]) in
    (show_outcome o, w.by_tag)
  in
  let expected = run (Exec_compile.compile image) 0L in
  Alcotest.(check string) "fresh state traps" "trap: read of undefined register y"
    (fst expected);
  let t = Exec_compile.compile image in
  Alcotest.(check string) "defining run" "value 5" (fst (run t 1L));
  let o, cycles = run t 0L in
  Alcotest.(check string) "slot left by the earlier run still traps" (fst expected) o;
  Alcotest.(check (array int)) "same cycles" (snd expected) cycles

(* An extern that re-enters the image: the inner run must not disturb
   the outer one's registers or frames. *)
let test_reentrant_run () =
  let t = Exec_compile.compile (checksum_image ()) in
  (* leaves a spare state for the outer run to take *)
  check_checksum_run "warm-up" t 6;
  let inner = ref None in
  let extern _ (args : int64 array) =
    let _, env = checksum_world 7 in
    inner := Some (Exec_compile.run env t "csum" [| args.(1); args.(2) |]);
    args.(2)
  in
  let _, env = checksum_world ~extern 7 in
  let v = Exec_compile.run env t "sys_read" checksum_args in
  let expect_v, _ = fresh_checksum 7 in
  Alcotest.(check int64) "outer result" expect_v v;
  let expect_inner =
    let _, env = checksum_world 7 in
    Exec_compile.run env (Exec_compile.compile (checksum_image ())) "csum"
      [| checksum_buf; Int64.of_int checksum_len |]
  in
  Alcotest.(check (option int64)) "inner result" (Some expect_inner) !inner;
  check_checksum_run "after re-entry" t 11

(* Two fibers in the same image at once: each blocks in its extern
   (as genuine_read does on an empty pipe) while the other runs. *)
type _ Effect.t += Block : unit Effect.t
type step = Done of int64 * int array | Blocked of (unit, step) Effect.Deep.continuation

let test_interleaved_fibers () =
  let t = Exec_compile.compile (checksum_image ()) in
  check_checksum_run "warm-up" t 20;
  let start seed =
    let extern _ (args : int64 array) =
      Effect.perform Block;
      args.(2)
    in
    Effect.Deep.match_with
      (fun () ->
        let w, env = checksum_world ~extern seed in
        let v = Exec_compile.run env t "sys_read" checksum_args in
        Done (v, w.by_tag))
      ()
      {
        retc = Fun.id;
        exnc = raise;
        effc =
          (fun (type a) (e : a Effect.t) ->
            match e with
            | Block -> Some (fun (k : (a, step) Effect.Deep.continuation) -> Blocked k)
            | _ -> None);
      }
  in
  let resume what = function
    | Blocked k -> Effect.Deep.continue k ()
    | Done _ -> Alcotest.failf "%s did not block" what
  in
  let a = start 21 in
  let b = start 22 in
  let check what seed = function
    | Done (v, cycles) ->
        let expect_v, expect_cycles = fresh_checksum seed in
        Alcotest.(check int64) (what ^ ": result") expect_v v;
        Alcotest.(check (array int)) (what ^ ": cycles by tag") expect_cycles cycles
    | Blocked _ -> Alcotest.failf "%s blocked twice" what
  in
  check "fiber a" 21 (resume "fiber a" a);
  check "fiber b" 22 (resume "fiber b" b);
  check_checksum_run "after both" t 23

(* ------------------------------------------------------------------ *)
(* Translation cache v4                                                *)

let instrumented_image () =
  compile_link ~cfi:true (Sandbox_pass.instrument_program (Fixtures.collatz_program ()))

let test_cache_find_compiled () =
  let tc = Trans_cache.create ~key:(Bytes.of_string "vm-secret-mac-key") in
  Trans_cache.add tc ~name:"m" ~instrumented:true (instrumented_image ());
  match Trans_cache.find_compiled tc ~name:"m" with
  | Error e -> Alcotest.failf "find_compiled: %s" (Trans_cache.describe_find_error e)
  | Ok artifact ->
      (* The artifact really is the verified image, and it runs. *)
      let w = make_world () in
      let compiled_result = Exec_compile.run (exec_env w) artifact "collatz" [| 97L |] in
      let w2 = make_world () in
      let slot_result =
        match Trans_cache.find tc ~name:"m" with
        | Ok image -> Executor.run (exec_env w2) image "collatz" [| 97L |]
        | Error e -> Alcotest.failf "find: %s" (Trans_cache.describe_find_error e)
      in
      Alcotest.(check int64) "same result" slot_result compiled_result;
      Alcotest.(check (array int)) "same cycles" w2.by_tag w.by_tag

let test_cache_refuses_tampered () =
  let tc = Trans_cache.create ~key:(Bytes.of_string "vm-secret-mac-key") in
  Trans_cache.add tc ~name:"m" ~instrumented:true (instrumented_image ());
  Trans_cache.tamper tc ~name:"m";
  (match Trans_cache.find_compiled tc ~name:"m" with
  | Error Trans_cache.Bad_signature -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Trans_cache.describe_find_error e)
  | Ok _ -> Alcotest.fail "tampered image was compiled");
  match Trans_cache.find_compiled tc ~name:"ghost" with
  | Error Trans_cache.Absent -> ()
  | _ -> Alcotest.fail "absent name must report Absent"

let test_cache_memoization () =
  let tc = Trans_cache.create ~key:(Bytes.of_string "vm-secret-mac-key") in
  Trans_cache.add tc ~name:"m" ~instrumented:true (instrumented_image ());
  Alcotest.(check int) "no verifier run before first load" 0 (Trans_cache.verifier_runs tc);
  let a1 =
    match Trans_cache.find_compiled tc ~name:"m" with
    | Ok a -> a
    | Error e -> Alcotest.failf "find_compiled: %s" (Trans_cache.describe_find_error e)
  in
  Alcotest.(check int) "one verifier run after first load" 1 (Trans_cache.verifier_runs tc);
  ignore (Trans_cache.find tc ~name:"m");
  let a2 =
    match Trans_cache.find_compiled tc ~name:"m" with
    | Ok a -> a
    | Error e -> Alcotest.failf "find_compiled: %s" (Trans_cache.describe_find_error e)
  in
  (* Repeated loads of the same signed blob re-check the HMAC but pay
     neither the verifier nor the closure compiler again. *)
  Alcotest.(check int) "still one verifier run" 1 (Trans_cache.verifier_runs tc);
  Alcotest.(check bool) "compiled artifact memoized" true (a1 == a2);
  (* Re-adding the same image produces the same blob and tag, so the
     memo still applies; a different image under the same name is a
     different tag and re-verifies. *)
  Trans_cache.add tc ~name:"other" ~instrumented:true
    (compile_link ~cfi:true (Sandbox_pass.instrument_program (Fixtures.rec_sum_program ())));
  ignore (Trans_cache.find_compiled tc ~name:"other");
  Alcotest.(check int) "distinct image re-verifies" 2 (Trans_cache.verifier_runs tc)

(* ------------------------------------------------------------------ *)
(* Translator statistics                                               *)

let test_fusion_stats () =
  let collatz = Exec_compile.compile (compile_link ~cfi:false (Fixtures.collatz_program ())) in
  let s = Exec_compile.stats collatz in
  Alcotest.(check bool) "has slots" true (s.Exec_compile.slots > 0);
  (* collatz has cmp+branch and load+mask adjacencies to fuse. *)
  Alcotest.(check bool) "fuses pairs" true (s.Exec_compile.fused_pairs > 0);
  let recsum = Exec_compile.compile (compile_link ~cfi:false (Fixtures.rec_sum_program ())) in
  let s2 = Exec_compile.stats recsum in
  (* the recursive call is statically pre-resolved *)
  Alcotest.(check bool) "static calls" true (s2.Exec_compile.static_calls > 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "exec_compile"
    [
      ( "parity",
        [
          Alcotest.test_case "fixtures, per-tag cycles" `Quick test_fixture_parity;
          Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion_parity;
          Alcotest.test_case "ROP via tampered returns" `Quick test_rop_tamper_parity;
          Alcotest.test_case "corrupted function pointer" `Quick
            test_corrupted_fptr_parity;
          Alcotest.test_case "kernel-space masking" `Quick test_kernel_masking_parity;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "checksum module, compiled <= slots" `Quick
            test_alloc_parity;
        ] );
      ( "state-reuse",
        [
          Alcotest.test_case "clean run after a trap" `Quick test_reuse_after_trap;
          Alcotest.test_case "slot from an earlier run traps" `Quick test_stale_slot_traps;
          Alcotest.test_case "re-entrant run" `Quick test_reentrant_run;
          Alcotest.test_case "interleaved fibers" `Quick test_interleaved_fibers;
        ] );
      ( "trans-cache-v4",
        [
          Alcotest.test_case "find_compiled verifies then compiles" `Quick
            test_cache_find_compiled;
          Alcotest.test_case "tampered blobs are refused" `Quick
            test_cache_refuses_tampered;
          Alcotest.test_case "verifier and compiler memoized by tag" `Quick
            test_cache_memoization;
        ] );
      ( "translator",
        [ Alcotest.test_case "fusion statistics" `Quick test_fusion_stats ] );
    ]
