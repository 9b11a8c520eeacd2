let override_prefix = "sys_"

(* A symbol [sys_<name>] overrides the syscall <name> — resolved to
   its number in the {!Syscall_abi} table, the same numbering ring
   submissions use.  A name outside the table is reported and skipped
   rather than registered under a string nothing will ever look up. *)
let overrides_of_image (k : Kernel.t) (image : Vg_compiler.Linker.image) =
  List.filter_map
    (fun (s : Vg_compiler.Native.symbol) ->
      let n = s.Vg_compiler.Native.name in
      if String.length n > String.length override_prefix
         && String.sub n 0 (String.length override_prefix) = override_prefix
      then begin
        let call = String.sub n 4 (String.length n - 4) in
        match Syscall_abi.Sysno.of_name call with
        | Some sysno -> Some (sysno, n)
        | None ->
            Console.write
              (Machine.console k.Kernel.machine)
              (Printf.sprintf "kernel: module symbol %s names no syscall; ignored" n);
            None
      end
      else None)
    image.Vg_compiler.Linker.native.Vg_compiler.Native.symbols

type load_error =
  | Compile_rejected of string
  | Cache_refused of Vg_compiler.Trans_cache.find_error
  | Arity_mismatch of { func : string; params : int; arity : int }

let describe_load_error = function
  | Compile_rejected msg -> "compile rejected: " ^ msg
  | Cache_refused e -> Vg_compiler.Trans_cache.describe_find_error e
  | Arity_mismatch { func; params; arity } ->
      Printf.sprintf "%s takes %d parameters, the syscall has %d registers" func params
        arity

(* The first override whose function's parameter count differs from
   its syscall's register arity: every call to it would trap. *)
let arity_mismatch (image : Vg_compiler.Linker.image) overrides =
  List.find_map
    (fun (sysno, func) ->
      match Vg_compiler.Linker.find_func image func with
      | None -> None
      | Some id ->
          let params = Array.length image.Vg_compiler.Linker.funcs.(id).Vg_compiler.Linker.f_params in
          let arity = Syscall_abi.arity sysno in
          if params = arity then None else Some (Arity_mismatch { func; params; arity }))
    overrides

let errno_of_load_error (_ : load_error) = Errno.ENOEXEC

let reject (k : Kernel.t) ~name err =
  Machine.emit k.Kernel.machine
    (Obs.Event.Security
       {
         subsystem = "image-verify";
         detail =
           Printf.sprintf "module %s refused: %s" name (describe_load_error err);
       });
  Error err

let load (k : Kernel.t) ~name program =
  let mode =
    match Kernel.mode k with
    | Sva.Native_build -> Vg_compiler.Pipeline.Native_build
    | Sva.Virtual_ghost -> Vg_compiler.Pipeline.Virtual_ghost
  in
  let mitigation = k.Kernel.spec_mitigation in
  match Vg_compiler.Pipeline.compile_kernel_code ~mode ~mitigation program with
  | exception Vg_compiler.Pipeline.Rejected msg ->
      reject k ~name (Compile_rejected msg)
  | compiled -> (
      (* The VM caches and signs the translation; load back through the
         verifying path, as the OS would at module insertion.  Under
         Virtual Ghost the image is instrumented, so the cache re-proves
         the sandbox/CFI invariants before handing it back. *)
      let cache = Sva.translation_cache k.Kernel.sva in
      let instrumented = Kernel.mode k = Sva.Virtual_ghost in
      Vg_compiler.Trans_cache.add cache ~name ~instrumented ~mitigation
        compiled.Vg_compiler.Pipeline.linked;
      (* [find_compiled] is the only way to obtain the closure-compiled
         artifact the kernel runs, and it runs the image verifier
         first, so an unverifiable image is refused before any of it
         is translated. *)
      match Vg_compiler.Trans_cache.find_compiled cache ~name with
      | Error e -> reject k ~name (Cache_refused e)
      | Ok artifact -> (
          let image = Vg_compiler.Exec_compile.image artifact in
          let overrides = overrides_of_image k image in
          match arity_mismatch image overrides with
          | Some err -> reject k ~name err
          | None ->
              List.iter
              (fun (sysno, func) ->
                let ov = { Kernel.func; compiled = artifact } in
                Hashtbl.replace k.Kernel.overrides sysno ov;
                k.Kernel.override_of.(Syscall_abi.Sysno.to_int sysno) <- Some ov)
              overrides;
            Hashtbl.replace k.Kernel.modules name (List.map fst overrides);
            Machine.emit k.Kernel.machine
              (Obs.Event.Module_load { name; overrides = List.length overrides });
            Console.write
              (Machine.console k.Kernel.machine)
              (Printf.sprintf "kernel: loaded module %s (%d syscall overrides)" name
                 (List.length overrides));
            Ok ()))

let unload (k : Kernel.t) ~name =
  match Hashtbl.find_opt k.Kernel.modules name with
  | None -> ()
  | Some sysnos ->
      List.iter
        (fun sysno ->
          Hashtbl.remove k.Kernel.overrides sysno;
          k.Kernel.override_of.(Syscall_abi.Sysno.to_int sysno) <- None)
        sysnos;
      Hashtbl.remove k.Kernel.modules name

let loaded_modules (k : Kernel.t) =
  List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) k.Kernel.modules [])

let loaded_overrides (k : Kernel.t) =
  Hashtbl.fold
    (fun sysno _ acc -> Syscall_abi.Sysno.to_name sysno :: acc)
    k.Kernel.overrides []
