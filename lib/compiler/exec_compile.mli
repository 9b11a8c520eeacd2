(** Closure-compiled execution engine: the kernel's only runtime
    engine for verified module code.

    {!compile} translates a linked image once, at load time, into a
    tree of pre-resolved OCaml closures — one per code slot, with
    superinstruction fusion for three hot adjacent pairs (cmp+branch,
    mask+load/load+mask, push+call) — so that steady-state execution
    avoids the per-instruction constructor match and operand decode of
    the slot executor ([Executor] in [test/oracle]) it was derived from.

    {!run} is observably byte-identical to the slot executor on the
    same image: the same [charge] calls with the same {!Obs.Tag}
    attribution ([Exec]/[Cfi]/[Copy]) in the same order, the same
    {!Exec_env.Exec_trap} / {!Exec_env.Cfi_violation} exceptions with
    the same messages, the same fuel accounting, the same
    [tamper_return] behaviour, and the same generation-stamped
    register-file stack semantics.  Only host time differs.

    The closure compiler is outside the TCB: kernels obtain compiled
    artifacts exclusively through {!Trans_cache.find_compiled}, which
    runs {!Image_verify} first, and this module's behaviour is pinned
    against the slot executor and the reference interpreter (test
    oracles in [test/oracle], outside every runtime library) by cycle
    goldens and the three-way differential fuzz suite. *)

type t
(** A compiled image: the closure array, the image it came from, and
    the run states of its earlier runs, kept for reuse. *)

val compile : Linker.image -> t
(** Translate every function of [image] into closures.  Pure host-time
    work: charges no simulated cycles.  Call sites, arities, operand
    slots and trap messages are resolved now; ill-formed call sites
    compile to closures that raise the identical runtime trap only if
    actually executed. *)

val image : t -> Linker.image
(** The linked image this artifact was compiled from. *)

type stats = { slots : int; fused_pairs : int; static_calls : int }

val stats : t -> stats
(** Translation statistics: total code slots, adjacent pairs fused into
    superinstruction closures, and statically pre-resolved call
    sites. *)

val run : ?fuel:int -> Exec_env.env -> t -> string -> int64 array -> int64
(** [run env t entry args] — exactly the slot executor's contract
    (default [fuel] [5e7], raises [Not_found] on an unknown entry
    symbol) over the compiled form.

    A run that returns leaves its register file and frame stack in [t]
    for the next run, so warm calls allocate neither; a register no
    instruction of the current run wrote still reads as undefined.  A
    run that raises drops its state.  Nested and interleaved runs of
    one [t] each get their own. *)
