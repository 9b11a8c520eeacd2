(* A tour of the Virtual Ghost compiler: what the sandboxing and CFI
   passes actually do to kernel code, shown on a tiny kernel function.

     dune exec examples/compiler_tour.exe *)

open Vg_ir

let demo_program () =
  let b = Builder.create () in
  Builder.func b "copy_word" ~params:[ "dst"; "src" ];
  let v = Builder.load b (Ir.Reg "src") in
  Builder.store b ~src:v ~addr:(Ir.Reg "dst") ();
  Builder.ret b None;
  Builder.program b

let () =
  print_endline "== The Virtual Ghost compiler, step by step ==";
  print_endline "";
  let program = demo_program () in
  print_endline "A kernel function in the SVA virtual instruction set:";
  print_endline "";
  print_endline (Pp.program_to_string program);
  print_endline "";

  print_endline "After the load/store sandboxing pass (paper section 4.3.1):";
  print_endline "every memory operand gains the ghost mask (compare against";
  print_endline "0xffffff0000000000, OR with bit 39) and the SVA-internal-memory";
  print_endline "check (redirect to 0):";
  print_endline "";
  let instrumented = Vg_compiler.Sandbox_pass.instrument_program program in
  print_endline (Pp.program_to_string instrumented);
  print_endline "";

  let native = Vg_compiler.Codegen.compile ~cfi:false program in
  let vg = Vg_compiler.Codegen.compile ~cfi:true instrumented in
  Printf.printf "native code size: baseline %d slots, virtual-ghost %d slots\n"
    (Array.length native.Vg_compiler.Native.code)
    (Array.length vg.Vg_compiler.Native.code);
  Printf.printf "CFI labels in the instrumented image: %d\n"
    (Vg_compiler.Native.count vg (function
      | Vg_compiler.Native.NCfiLabel _ -> true
      | _ -> false));
  (match Vg_compiler.Cfi_pass.validate vg with
  | Ok () -> print_endline "CFI audit: every return checked, every entry labelled"
  | Error _ -> print_endline "CFI audit FAILED");
  print_endline "";

  (* Run the instrumented code and watch the mask divert a ghost
     pointer. *)
  let observed = ref [] in
  let env =
    {
      Vg_compiler.Exec_env.null_env with
      load = (fun cell _ ->
          observed := ("load", Vg_compiler.Exec_env.(get cell address)) :: !observed;
          Vg_compiler.Exec_env.(set cell value) 0x1122334455667788L);
      store = (fun cell _ ->
          observed := ("store", Vg_compiler.Exec_env.(get cell address)) :: !observed);
    }
  in
  let ghost_ptr = Int64.add Layout.ghost_start 0x5000L in
  let kernel_ptr = Layout.kernel_data_start in
  let linked = Vg_compiler.Linker.link vg in
  ignore
    (Vg_compiler.Exec_compile.run env
       (Vg_compiler.Exec_compile.compile linked)
       "copy_word" [| kernel_ptr; ghost_ptr |]);
  print_endline "Executing copy_word(kernel_ptr, ghost_ptr) on the instrumented code:";
  List.iter
    (fun (op, addr) ->
      Printf.printf "  %-5s touched %s%s\n" op (U64.to_hex addr)
        (if Layout.in_ghost addr then "  <-- ghost!" else ""))
    (List.rev !observed);
  Printf.printf "the ghost source %s was diverted to %s: the secret never moved.\n"
    (U64.to_hex ghost_ptr)
    (U64.to_hex (Vg_compiler.Sandbox_pass.masked_address ghost_ptr));
  print_endline "";

  (* And the signed translation cache. *)
  let cache = Vg_compiler.Trans_cache.create ~key:(Bytes.of_string "vm-secret") in
  Vg_compiler.Trans_cache.add cache ~name:"copy_word" ~instrumented:true linked;
  Printf.printf "translation cache: stored and re-verified image: %b\n"
    (Result.is_ok (Vg_compiler.Trans_cache.find cache ~name:"copy_word"));
  Vg_compiler.Trans_cache.tamper cache ~name:"copy_word";
  (match Vg_compiler.Trans_cache.find cache ~name:"copy_word" with
  | Ok _ -> print_endline "after flipping one byte on disk: ACCEPTED (bug!)"
  | Error e ->
      Printf.printf "after flipping one byte on disk: rejected (%s)\n"
        (Vg_compiler.Trans_cache.describe_find_error e))
