(** Spectre-v1 transient leak of ghost memory past the static sandbox.

    The sandboxing pass is architecturally sound: every kernel access
    to a ghost address is escaped before it issues.  But the escape is
    computed with conditional selects, and on a machine with a
    speculative window ([Machine.create ~spec_depth]) the mispredicted
    select transiently forwards the {e raw} ghost address to the load
    behind it.  The squashed load leaves its cache line warm; a
    flush+reload prober (timing a one-load [sys_lseek] override against
    {!Machine.cycles}) reads the secret byte back out of which of 256
    probe lines got hot.

    The leak needs a transient budget of at least 8 macro-ops (see the
    implementation for the exact stream); at [spec_depth = 0] the
    machine has no cache side channel and the attack recovers nothing.
    Booting the kernel with [~spec_mitigation:Fence] (an lfence between
    every mask and its access) or [~spec_mitigation:Safe_mask] (the
    branchless masking sequence — no select to mispredict) closes the
    channel at any depth. *)

val secret_string : string
(** What the victim ssh-agent parks in ghost memory (printable ASCII,
    no NUL — the prober cannot distinguish byte 0 from the absorbed
    architectural access). *)

val probe_lines : int
val line_size : int

val module_program : probe_base:int64 -> Ir.program
(** The hostile module: a [sys_read] leak gadget and a [sys_lseek]
    reload prober over a 256-line probe array at [probe_base]
    (64-byte aligned user memory). *)

type outcome = {
  spec_depth : int;
  mitigation : Vg_compiler.Mitigation.t;
  secret : string;
  leaked : string;  (** recovered bytes; ['?'] where no unique hot line *)
  bytes_recovered : int;
  success : bool;  (** the full secret was recovered *)
  windows : int;  (** transient windows opened (machine-wide) *)
  transient_loads : int;
}

val pp_outcome : Format.formatter -> outcome -> unit

val run_experiment :
  ?cpus:int ->
  ?spec_depth:int ->
  ?mitigation:Vg_compiler.Mitigation.t ->
  unit ->
  outcome
(** Boot a Virtual Ghost kernel on a machine with the given transient
    budget (default 12) and mitigation (default [Off]), load the
    hostile module through the instrumenting compiler and signed
    translation cache, and run the byte-at-a-time oracle over the whole
    secret.  Deterministic: same configuration, same outcome. *)
