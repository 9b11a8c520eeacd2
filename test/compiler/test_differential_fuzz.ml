(* Differential fuzzing of the compilation pipeline.

   Random well-formed IR programs are run through (a) the reference
   interpreter, (b) the code generator + native executor, (c) the
   full Virtual Ghost pipeline (sandboxing + CFI), and (d) the
   closure-compiled engine over both pipeline outputs — all must
   agree on the result and on final memory whenever addresses stay
   outside the protected ranges (where masking is the identity), and
   the compiled engine must be byte-identical to the slot executor on
   cycles, per-tag charge totals, and exception trajectories
   (including CFI violations, traps and out-of-fuel).

   Program generation lives in {!Vg_testgen.Testgen} (shared with the
   image-verifier property tests): programs terminate by construction —
   control flow within a function only branches forward, and calls only
   target previously generated functions (no recursion). *)

let gen_program = Vg_testgen.Testgen.gen_program
let scratch_base = Vg_testgen.Testgen.scratch_base

(* ------------------------------------------------------------------ *)
(* Execution environments over a shared flat scratch memory            *)

type mem_world = { mem : Bytes.t }

let make_world () = { mem = Bytes.make 8192 '\000' }

let off addr = Int64.to_int (Int64.sub addr scratch_base)

let w_load w addr (width : Ir.width) =
  let i = off addr in
  match width with
  | W8 -> Int64.of_int (Char.code (Bytes.get w.mem i))
  | W16 -> Int64.of_int (Bytes.get_uint16_le w.mem i)
  | W32 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le w.mem i)) 0xffffffffL
  | W64 -> Bytes.get_int64_le w.mem i

let w_store w addr (width : Ir.width) v =
  let i = off addr in
  match width with
  | W8 -> Bytes.set w.mem i (Char.chr (Int64.to_int (Int64.logand v 0xffL)))
  | W16 -> Bytes.set_uint16_le w.mem i (Int64.to_int (Int64.logand v 0xffffL))
  | W32 -> Bytes.set_int32_le w.mem i (Int64.to_int32 v)
  | W64 -> Bytes.set_int64_le w.mem i v

(* [Value (result, memory, cycles)]: the simulated cycle count rides
   along so the slot-file executor can be checked against the
   interpreter's cost model, not just its answers. *)
type run_result = Value of int64 * Bytes.t * int | Trapped

let run_interp program args =
  let w = make_world () in
  let cycles = ref 0 in
  let env =
    {
      Interp.load = w_load w;
      store = w_store w;
      memcpy = (fun ~dst:_ ~src:_ ~len:_ -> ());
      io_read = (fun _ -> 0L);
      io_write = (fun _ _ -> ());
      extern = (fun _ _ -> 0L);
      resolve_sym = (fun _ -> 0L);
      func_of_addr = (fun _ -> None);
      charge = (fun n -> cycles := !cycles + n);
      fence = (fun () -> ());
    }
  in
  match Interp.run ~fuel:200_000 env program "f0" args with
  | v -> Value (v, w.mem, !cycles)
  | exception Interp.Trap _ -> Trapped

let run_native ~vg program args =
  let w = make_world () in
  let cycles = ref 0 in
  let env =
    {
      Exec_env.null_env with
      load = Boxed_mem.load (w_load w);
      store = Boxed_mem.store (w_store w);
      charge = (fun _ n -> cycles := !cycles + n);
    }
  in
  let image =
    if vg then
      Codegen.compile ~cfi:true (Sandbox_pass.instrument_program program)
    else Codegen.compile ~cfi:false program
  in
  match Executor.run ~fuel:400_000 env (Linker.link image) "f0" args with
  | v -> Value (v, w.mem, !cycles)
  | exception Exec_env.Exec_trap _ -> Trapped

let run_compiled ~vg program args =
  let w = make_world () in
  let cycles = ref 0 in
  let env =
    {
      Exec_env.null_env with
      load = Boxed_mem.load (w_load w);
      store = Boxed_mem.store (w_store w);
      charge = (fun _ n -> cycles := !cycles + n);
    }
  in
  let image =
    if vg then
      Codegen.compile ~cfi:true (Sandbox_pass.instrument_program program)
    else Codegen.compile ~cfi:false program
  in
  let artifact = Exec_compile.compile (Linker.link image) in
  match Exec_compile.run ~fuel:400_000 env artifact "f0" args with
  | v -> Value (v, w.mem, !cycles)
  | exception Exec_env.Exec_trap _ -> Trapped

(* Results agree: same trap behaviour, same value, same final memory.
   Cycle counts are compared separately ({!agree_cycles}) because the
   instrumented pipeline legitimately charges more. *)
let agree a b =
  match (a, b) with
  | Trapped, Trapped -> true
  | Value (va, ma, _), Value (vb, mb, _) -> va = vb && Bytes.equal ma mb
  | Value _, Trapped | Trapped, Value _ -> false

(* The uninstrumented executor must charge exactly what the reference
   interpreter charges: slot allocation and O(1) resolution are host-time
   optimisations and must not perturb the simulated cost model. *)
let agree_cycles a b =
  match (a, b) with
  | Value (_, _, ca), Value (_, _, cb) -> ca = cb
  | Trapped, Trapped -> true
  | _ -> false

let prop_three_way_agreement =
  QCheck2.Test.make
    ~name:"interp = slot executor = compiled on random programs" ~count:400
    QCheck2.Gen.(pair (int_bound 1_000_000) (pair (int_bound 4000) (int_bound 4000)))
    (fun (seed, (a, b)) ->
      let program = gen_program seed in
      match Verify.check program with
      | Error _ -> false (* the generator must produce well-formed IR *)
      | Ok () ->
          let args = [| Int64.of_int a; Int64.of_int b |] in
          let reference = run_interp program args in
          let native = run_native ~vg:false program args in
          let compiled = run_compiled ~vg:false program args in
          let native_vg = run_native ~vg:true program args in
          let compiled_vg = run_compiled ~vg:true program args in
          agree reference native
          && agree_cycles reference native
          (* the compiled engine is byte-identical to the slot executor,
             instrumented or not — including the cycle totals the
             instrumented pipeline legitimately inflates *)
          && agree reference compiled
          && agree_cycles native compiled
          && agree reference native_vg
          && agree native_vg compiled_vg
          && agree_cycles native_vg compiled_vg)

(* Slot executor vs compiled engine on full trajectories: same
   exception constructor and message, same per-tag charge totals at the
   moment of the exception, same memory — under return-address
   tampering, tight fuel limits, and full instrumentation.  This is
   what lets the closure compiler live outside the TCB. *)
type trajectory = TVal of int64 | TTrap of string | TCfi of string

let prop_compiled_trajectory_parity =
  QCheck2.Test.make
    ~name:"compiled = slot executor on trap/CFI/fuel trajectories" ~count:300
    QCheck2.Gen.(
      pair (int_bound 1_000_000)
        (pair
           (pair (int_bound 4000) (int_bound 4000))
           (pair (pair (int_bound 4) bool) (int_bound 4000))))
    (fun (seed, ((a, b), ((tamper_sel, vg), fuel_raw))) ->
      let program = gen_program seed in
      let image =
        if vg then
          Linker.link
            (Codegen.compile ~cfi:true (Sandbox_pass.instrument_program program))
        else Linker.link (Codegen.compile ~cfi:false program)
      in
      let artifact = Exec_compile.compile image in
      let args = [| Int64.of_int a; Int64.of_int b |] in
      (* small fuel: many runs die mid-flight, pinning the out-of-fuel
         point and the charges accumulated up to it *)
      let fuel = 20 + fuel_raw in
      let tamper =
        match tamper_sel with
        | 0 | 1 -> None
        | 2 -> Some (fun addr -> Int64.add addr 16L) (* next slot *)
        | 3 -> Some (fun addr -> Int64.add addr 8L) (* misaligned *)
        | _ -> Some (fun _ -> 0xdead_beef_0000L) (* far outside *)
      in
      let run_one use_compiled =
        let w = make_world () in
        let by_tag = Array.make Obs.Tag.count 0 in
        let env =
          {
            Exec_env.null_env with
            load = Boxed_mem.load (w_load w);
            store = Boxed_mem.store (w_store w);
            charge =
              (fun tag n ->
                let i = Obs.Tag.index tag in
                by_tag.(i) <- by_tag.(i) + n);
            tamper_return = tamper;
          }
        in
        let outcome =
          if use_compiled then
            match Exec_compile.run ~fuel env artifact "f0" args with
            | v -> TVal v
            | exception Exec_env.Exec_trap m -> TTrap m
            | exception Exec_env.Cfi_violation m -> TCfi m
          else
            match Executor.run ~fuel env image "f0" args with
            | v -> TVal v
            | exception Exec_env.Exec_trap m -> TTrap m
            | exception Exec_env.Cfi_violation m -> TCfi m
        in
        (outcome, by_tag, w.mem)
      in
      let o_slots, c_slots, m_slots = run_one false in
      let o_comp, c_comp, m_comp = run_one true in
      o_slots = o_comp && c_slots = c_comp && Bytes.equal m_slots m_comp)

let prop_optimizer_preserves_semantics =
  QCheck2.Test.make ~name:"optimizer preserves semantics (both pass orders)"
    ~count:400
    QCheck2.Gen.(pair (int_bound 1_000_000) (pair (int_bound 4000) (int_bound 4000)))
    (fun (seed, (a, b)) ->
      let program = gen_program seed in
      let args = [| Int64.of_int a; Int64.of_int b |] in
      let reference = run_interp program args in
      let optimized = Opt_pass.optimize_program program in
      (* Optimised code must still verify and agree, interpreted and
         compiled, with and without instrumentation. *)
      Verify.check optimized = Ok ()
      && agree reference (run_interp optimized args)
      && agree reference (run_native ~vg:false optimized args)
      && agree reference (run_native ~vg:true optimized args)
      (* Optimising *after* instrumentation must also preserve
         semantics (and thus the masking, checked next). *)
      &&
      let inst_then_opt = Opt_pass.optimize_program (Sandbox_pass.instrument_program program) in
      let image = Linker.link (Codegen.compile ~cfi:true inst_then_opt) in
      let w = make_world () in
      let env = { Exec_env.null_env with load = Boxed_mem.load (w_load w); store = Boxed_mem.store (w_store w) } in
      agree reference
        (match Executor.run ~fuel:400_000 env image "f0" args with
        | v -> Value (v, w.mem, 0)
        | exception Exec_env.Exec_trap _ -> Trapped))

let prop_optimizer_never_unmasks =
  (* Optimising instrumented code must never let a ghost address reach
     memory: run with a ghost-range argument feeding addresses. *)
  QCheck2.Test.make ~name:"optimizer never removes the sandbox mask" ~count:300
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let program = gen_program seed in
      let inst_then_opt =
        Opt_pass.optimize_program (Sandbox_pass.instrument_program program)
      in
      let image = Linker.link (Codegen.compile ~cfi:true inst_then_opt) in
      let safe = ref true in
      let check addr =
        if Layout.in_ghost addr || Layout.in_sva addr then safe := false
      in
      let env =
        {
          Exec_env.null_env with
          load =
            Boxed_mem.load (fun addr _ ->
              check addr;
              0L);
          store = Boxed_mem.store (fun addr _ _ -> check addr);
          memcpy =
            (fun ~dst ~src ~len:_ ->
              check dst;
              check src);
        }
      in
      (* Ghost-range arguments so address computations land in the
         ghost partition wherever masking is missing. *)
      let args = [| Int64.add Layout.ghost_start 0x1234L; Layout.ghost_start |] in
      (try ignore (Executor.run ~fuel:400_000 env image "f0" args) with
      | Exec_env.Exec_trap _ -> ()
      | Exec_env.Cfi_violation _ -> ());
      !safe)

let prop_instrumentation_preserves_size_relation =
  QCheck2.Test.make ~name:"instrumented image is strictly larger" ~count:100
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let program = gen_program seed in
      let plain = Codegen.compile ~cfi:false program in
      let vg = Codegen.compile ~cfi:true (Sandbox_pass.instrument_program program) in
      Array.length vg.Native.code >= Array.length plain.Native.code)

(* Speculation can only leak what an attacker observes through the
   cache — i.e. the addresses reaching [spec_load] on the wrong path.
   Any program the load-time verifier proves under the
   speculation-safe branchless mask must keep even those transient
   addresses out of the protected ranges, and speculation must stay
   architecturally invisible: value, final memory and cycle count
   identical to a depth-0 run at every window depth.

   The generator clamps its own addresses into scratch, so the wrapper
   below adds the one shape it cannot produce — a load whose address
   arrives raw in a parameter.  That is exactly the Spectre-v1 gadget:
   under the predicated mask the wrong select arm transiently
   dereferences the unmasked parameter, so with a ghost-range argument
   this wrapper distinguishes the mitigations (the probe fires under
   [Off]); under [Safe_mask] it must never fire. *)
let spec_entry =
  {
    Ir.name = "spec_entry";
    params = [ "p"; "q" ];
    blocks =
      [
        {
          Ir.label = "entry";
          instrs =
            [
              Ir.Load { dst = "v"; addr = Ir.Reg "p"; width = Ir.W64 };
              Ir.Call
                { dst = Some "r"; callee = "f0"; args = [ Ir.Reg "v"; Ir.Reg "q" ] };
            ];
          term = Ir.Ret (Some (Ir.Reg "r"));
        };
      ];
  }

let prop_safe_mask_no_transient_leak =
  QCheck2.Test.make
    ~name:"safe-mask verified code never leaks transiently at any depth"
    ~count:150
    QCheck2.Gen.(
      pair (int_bound 1_000_000)
        (pair (pair (int_bound 4000) (int_bound 4000)) (int_range 1 16)))
    (fun (seed, ((a, b), depth)) ->
      let program =
        { Ir.funcs = spec_entry :: (gen_program seed).Ir.funcs }
      in
      let compiled =
        Pipeline.compile_kernel_code ~mode:Pipeline.Virtual_ghost
          ~mitigation:Mitigation.Safe_mask program
      in
      let image = compiled.Pipeline.linked in
      (* The pipeline's safe-mask output must prove the Spec invariant
         (no predicated window survives, so nothing can mispredict into
         an unmasked access). *)
      Image_verify.check ~mitigation:Mitigation.Safe_mask image = Ok ()
      && (* (a) differential vs depth 0: speculation leaves no
            architectural residue *)
      let run_at spec_depth =
        let w = make_world () in
        let cycles = ref 0 in
        let env =
          {
            Exec_env.null_env with
            load = Boxed_mem.load (w_load w);
            store = Boxed_mem.store (w_store w);
            charge = (fun _ n -> cycles := !cycles + n);
            spec_depth;
            spec_load = (fun _ _ -> Some 0L);
          }
        in
        (* keep the wrapper's raw-parameter load inside scratch so the
           flat test memory stays in range *)
        let p = Int64.add scratch_base (Int64.of_int (a land 0xff8)) in
        let args = [| p; Int64.of_int b |] in
        match Executor.run ~fuel:400_000 env image "spec_entry" args with
        | v -> Value (v, w.mem, !cycles)
        | exception Exec_env.Exec_trap _ -> Trapped
      in
      let r0 = run_at 0 in
      let rd = run_at depth in
      agree r0 rd && agree_cycles r0 rd
      && (* (b) with ghost-range arguments feeding every address
            computation, no transient (or architectural) access ever
            touches the ghost partition or the SVA ranges *)
      let safe = ref true in
      let check addr =
        if Layout.in_ghost addr || Layout.in_sva addr then safe := false
      in
      let env =
        {
          Exec_env.null_env with
          load =
            Boxed_mem.load (fun addr _ ->
              check addr;
              0L);
          store = Boxed_mem.store (fun addr _ _ -> check addr);
          memcpy =
            (fun ~dst ~src ~len:_ ->
              check dst;
              check src);
          spec_depth = depth;
          spec_load =
            (fun addr _ ->
              check addr;
              Some 0L);
        }
      in
      let args = [| Int64.add Layout.ghost_start 0x1234L; Layout.ghost_start |] in
      (try ignore (Executor.run ~fuel:400_000 env image "spec_entry" args) with
      | Exec_env.Exec_trap _ -> ()
      | Exec_env.Cfi_violation _ -> ());
      !safe)

let prop_cfi_audit_on_random_programs =
  QCheck2.Test.make ~name:"CFI audit passes on every pipeline output" ~count:100
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let program = gen_program seed in
      let compiled = Pipeline.compile_kernel_code ~mode:Pipeline.Virtual_ghost program in
      Cfi_pass.validate compiled.Pipeline.image = Ok ())

let () =
  Alcotest.run "vg_compiler_fuzz"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_three_way_agreement;
            prop_compiled_trajectory_parity;
            prop_optimizer_preserves_semantics;
            prop_optimizer_never_unmasks;
            prop_instrumentation_preserves_size_relation;
            prop_safe_mask_no_transient_leak;
            prop_cfi_audit_on_random_programs;
          ] );
    ]
