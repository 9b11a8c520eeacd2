(** IR programs shared by the engine tests, the cycle goldens and the
    executor bench.  Each call builds a fresh program. *)

val collatz_program : unit -> Ir.program
(** [collatz(n)]: Collatz step count through memory at [0x2000] and
    [0x2008].  Loops, branches, arithmetic, a [select]. *)

val rec_sum_program : unit -> Ir.program
(** [sum(n) = n = 0 ? 0 : n + sum(n-1)]: call-heavy recursion, so every
    call and return pays the CFI check. *)

val iterfib_program : unit -> Ir.program
(** [main(n)]: iterative fibonacci through memory at [0x2100..0x2110],
    about 12 instructions per iteration: dispatch-bound, memory-light. *)

val memcpy_loop_program : unit -> Ir.program
(** [main(n)]: [n] copies of 256 bytes from [0x8000] to [0x4000], the
    bulk-copy path with its [Copy]-tagged surcharges. *)
