(** Loadable kernel modules.

    Modules arrive as virtual-ISA (IR) programs — the threat model
    allows arbitrary hostile module code, but it "must also be compiled
    by the instrumenting compiler".  Loading therefore: (1) compiles
    the IR through the same pipeline as the kernel (sandboxing + CFI
    under Virtual Ghost, nothing under the native baseline); (2) signs
    and stores the translation in the VM's cache and loads it back
    through the verifying path — the HMAC proves the VM produced the
    bytes, and {!Vg_compiler.Image_verify} re-proves the sandbox and
    CFI invariants in them, so a module image patched on disk {e or}
    mis-translated is rejected with a structured reason; (3) registers
    every function named [sys_<call>] as an override for that system
    call. *)

type load_error =
  | Compile_rejected of string
      (** the virtual-ISA program failed IR verification or CFI
          validation inside the pipeline *)
  | Cache_refused of Vg_compiler.Trans_cache.find_error
      (** the signed translation failed signature or image
          verification when loaded back *)
  | Arity_mismatch of { func : string; params : int; arity : int }
      (** an override [func] takes [params] parameters where its
          syscall has [arity] registers ({!Syscall_abi.arity}); checked
          after compilation and verification, so those errors take
          precedence *)

val describe_load_error : load_error -> string

val errno_of_load_error : load_error -> Errno.t
(** Every rejection class surfaces to the OS as [ENOEXEC]: the image
    is not something the VM will execute. *)

val load : Kernel.t -> name:string -> Ir.program -> (unit, load_error) result
(** Compile, cache, verify and register a module.  A rejection emits a
    [Security] observability event naming the failing invariant. *)

val unload : Kernel.t -> name:string -> unit
(** Remove this module's syscall overrides. *)

val loaded_modules : Kernel.t -> string list
(** Names of loaded modules, sorted (per-kernel state: two booted
    kernels never see each other's modules). *)

val loaded_overrides : Kernel.t -> string list
(** Currently overridden system calls. *)
