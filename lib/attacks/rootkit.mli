(** The malicious kernel module of the paper's security evaluation
    (section 7), modelled on Joseph Kong's FreeBSD rootkits.

    The module replaces the [read] system-call handler and fires as the
    victim process reads from a file descriptor.  Two attacks are
    implemented:

    - {e direct read}: load the victim's heap data through ordinary
      kernel loads and print it to the system log;
    - {e signal-handler code injection}: open an exfiltration file in
      the victim's descriptor table, [mmap] a buffer into the victim,
      copy exploit code into it, install it as a signal handler and
      send the signal; the exploit (running as the victim) copies the
      secret out of the victim's own memory and [write]s it to the
      file.

    Both are expressed as virtual-ISA programs and loaded through the
    standard module loader — so under Virtual Ghost they are compiled
    with sandboxing and CFI like any other kernel code, and both fail
    for the mechanical reasons the paper describes.  On the baseline
    build both succeed. *)

type attack = Direct_read | Signal_inject

val module_program :
  attack:attack -> victim_pid:int -> target_va:int64 -> target_len:int -> scratch_va:int64 ->
  Ir.program
(** Build the module's IR.  [target_va]/[target_len] locate the secret
    in the victim's address space; [scratch_va] is a kernel-data page
    the module uses as its buffer. *)

val prepare_kernel : Kernel.t -> int64
(** Attack-independent setup: register the kernel helper API and map a
    kernel scratch page for the module; returns the scratch address. *)

val register_exploit_payload : Kernel.t -> victim:Runtime.ctx -> secret_va:int64 -> secret_len:int -> unit
(** Wire the [extern.inject_code] helper so that "copying exploit code
    into the mmap'ed buffer" registers a closure at that address in the
    victim's text map.  The payload reads the exfiltration descriptor
    the module staged at the buffer's start, copies the secret from the
    victim's (ghost) heap into traditional memory, and writes it out. *)

type outcome = {
  attack : attack;
  mode : Sva.mode;
  secret_leaked_to_console : bool;  (** direct-read success *)
  secret_in_exfil_file : bool;  (** injection success *)
  vm_refusal_logged : bool;  (** Virtual Ghost blocked the dispatch *)
  victim_survived : bool;
}

val pp_outcome : Format.formatter -> outcome -> unit

val infect : Kernel.t -> attack:attack -> outcome
(** Replay the attack against an already-booted kernel — a fleet
    backend: start the ghosting agent victim, load the malicious
    module, trigger the replaced handler, unload, and report the
    aftermath.  Under Virtual Ghost the attack fails closed, leaving
    [Security] events on the kernel's machine's observability
    instance (fleet reporting picks them up from there). *)

val run_experiment :
  ?cpus:int ->
  obs:Vg_obs.Obs.t ->
  mode:Sva.mode ->
  attack:attack ->
  unit ->
  outcome
(** The full section-7 experiment: boot a machine in [mode] (with
    [cpus] cores — default 1; the attack itself runs on the boot
    core), start the ghosting ssh-agent holding a known secret, load
    the malicious module, trigger the victim's [read], and inspect the
    aftermath.  The machine reports to the hub [obs]. *)

val secret_string : string
(** The planted secret the attacks hunt for. *)
