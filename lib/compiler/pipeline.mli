(** The Virtual Ghost compiler driver.

    Mirrors the paper's build modes: the baseline compiles kernel code
    straight to native code; the Virtual Ghost build first applies
    load/store sandboxing, then lowers with CFI instrumentation, and
    audits the result.  Application code gets the Iago [mmap]-masking
    pass instead (applications are {e not} sandboxed — the paper
    instruments only the OS). *)

(** Build mode for kernel code. *)
type mode =
  | Native_build  (** baseline: no instrumentation *)
  | Virtual_ghost  (** sandboxing + CFI *)

type compiled = {
  image : Native.image;
  linked : Linker.image;
      (** the executor-ready linked form of [image]; what the signed
          translation cache stores and the kernel runs *)
  mode : mode;
}

exception Rejected of string
(** The VM refuses to translate: malformed IR or failed post-lowering
    CFI audit. *)

val compile_kernel_code :
  ?mode:mode ->
  ?optimize:bool ->
  ?mitigation:Mitigation.t ->
  ?base:int64 ->
  ?globals:(string * int64) list ->
  Ir.program ->
  compiled
(** Translate kernel or kernel-module code.  Default mode is
    [Virtual_ghost].  With [~optimize:true] the {!Opt_pass} runs before
    instrumentation (the orderings compose safely either way; see the
    fuzz suite).  [mitigation] (default [Off], [Virtual_ghost] mode
    only) selects the Spectre-hardening of the sandbox: [Safe_mask]
    switches {!Sandbox_pass} to the branchless masking sequence;
    [Fence] keeps the classic sequence and runs {!Fence_pass} after
    it. *)

val compile_application_code :
  ?mmap_callees:string list -> ?base:int64 -> Ir.program -> compiled
(** Translate ghosting-application code: no sandboxing or CFI, but
    [mmap] return values are masked out of the ghost partition.
    [mmap_callees] defaults to [["extern.mmap"]]. *)
