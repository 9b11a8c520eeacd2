(** One configuration record for one node: the only place the
    defaults of {!Vg_machine.Machine.create} and
    {!Vg_kernel.Kernel.boot} are stated.  Neither takes an optional
    argument; {!Node.boot} and {!create_machine} fill them from here.

    Build a config from {!default} with the [with_*] combinators
    (designed for [|>] chains):

    {[
      Node_config.(
        default |> with_cpus 4 |> with_mode Sva.Virtual_ghost
        |> with_seed "web")
      |> Node.boot
    ]}

    The defaults are the paper's testbed in miniature; the cycle
    goldens of test/golden, which boot through {!Node.boot}, pin
    them. *)

type t = {
  cpus : int;  (** default 1 *)
  phys_frames : int;  (** default 32768 (128 MiB) *)
  disk_sectors : int;  (** default 65536 (32 MiB) *)
  spec_depth : int;  (** speculative window in macro-ops; default 0 *)
  seed : string;  (** determinises TPM + entropy; default ["node"] *)
  obs : Obs.t option;
      (** the hub the machine reports to; default [None], a private hub
          of its own (read it back with {!Vg_machine.Machine.obs}) *)
  mode : Sva.mode;  (** default [Virtual_ghost] *)
  spec_mitigation : Vg_compiler.Mitigation.t;  (** default [Off] *)
  frame_limit : int option;  (** kernel frame-allocator cap; default none *)
}

val default : t

val with_cpus : int -> t -> t
val with_phys_frames : int -> t -> t
val with_disk_sectors : int -> t -> t
val with_spec_depth : int -> t -> t
val with_seed : string -> t -> t
val with_obs : Obs.t -> t -> t
val with_mode : Sva.mode -> t -> t
val with_spec_mitigation : Vg_compiler.Mitigation.t -> t -> t
val with_frame_limit : int -> t -> t

val create_machine : t -> Machine.t
(** The machine half of a boot, for callers that need a bare machine
    with no kernel (machine, SVA and SMP tests).  The kernel fields
    ([mode], [spec_mitigation], [frame_limit]) are unused. *)

val describe : t -> string
(** One-line human summary for logs and CLI output. *)
