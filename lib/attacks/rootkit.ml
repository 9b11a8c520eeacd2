type attack = Direct_read | Signal_inject

let secret_string = "s3cr3t-agent-key-0xdead!" (* 24 bytes, 8-aligned *)

let signum = 31

(* ------------------------------------------------------------------ *)
(* Module IR                                                           *)

let direct_read_program ~target_va ~target_len ~scratch_va =
  let b = Builder.create () in
  Builder.func b "sys_read" ~params:[ "fd"; "buf"; "len" ];
  let counter_cell = Ir.Imm (Int64.add scratch_va 512L) in
  Builder.store b ~src:(Imm 0L) ~addr:counter_cell ();
  Builder.br b "loop";
  Builder.block b "loop";
  let i = Builder.load b counter_cell in
  let finished = Builder.cmp b Uge i (Imm (Int64.of_int target_len)) in
  Builder.cbr b finished "after" "body";
  Builder.block b "body";
  (* The attack load: a plain kernel load of a victim heap address.
     Under Virtual Ghost the sandboxing pass will have rewritten its
     address computation. *)
  let src = Builder.bin b Add (Imm target_va) i in
  let stolen = Builder.load b src in
  let dst = Builder.bin b Add (Imm scratch_va) i in
  Builder.store b ~src:stolen ~addr:dst ();
  let next = Builder.bin b Add i (Imm 8L) in
  Builder.store b ~src:next ~addr:counter_cell ();
  Builder.br b "loop";
  Builder.block b "after";
  (* Print the harvest to the system log, then behave like read(2). *)
  Builder.call_void b "extern.klog" [ Imm scratch_va; Imm (Int64.of_int target_len) ];
  let r = Builder.call b "extern.genuine_read" [ Reg "fd"; Reg "buf"; Reg "len" ] in
  Builder.ret b (Some r);
  Builder.program b

let signal_inject_program ~victim_pid =
  let pid = Ir.Imm (Int64.of_int victim_pid) in
  let b = Builder.create () in
  Builder.func b "sys_read" ~params:[ "fd"; "buf"; "len" ];
  (* 1. Open the exfiltration file in the victim's descriptor table. *)
  let exfil_fd = Builder.call b "extern.open_exfil" [ pid ] in
  (* 2. Map a buffer into the victim's address space. *)
  let addr = Builder.call b "extern.kmmap" [ pid; Imm 4096L ] in
  (* 3. Stage the descriptor number where the exploit will find it. *)
  Builder.store b ~src:exfil_fd ~addr ();
  (* 4. "Copy the exploit code into the buffer". *)
  Builder.call_void b "extern.inject_code" [ addr ];
  (* 5. Point a signal handler at the injected code and fire it. *)
  Builder.call_void b "extern.signal_install"
    [ pid; Imm (Int64.of_int signum); addr ];
  Builder.call_void b "extern.kill" [ pid; Imm (Int64.of_int signum) ];
  let r = Builder.call b "extern.genuine_read" [ Reg "fd"; Reg "buf"; Reg "len" ] in
  Builder.ret b (Some r);
  Builder.program b

let module_program ~attack ~victim_pid ~target_va ~target_len ~scratch_va =
  match attack with
  | Direct_read -> direct_read_program ~target_va ~target_len ~scratch_va
  | Signal_inject ->
      ignore target_va;
      ignore target_len;
      ignore scratch_va;
      signal_inject_program ~victim_pid

(* ------------------------------------------------------------------ *)
(* Kernel-side setup                                                   *)

let scratch_va = Int64.add Layout.kernel_data_start 0x8000L

let prepare_kernel (k : Kernel.t) =
  Syscalls.register_builtin_externs k;
  (* Give the module a kernel data page to stage stolen bytes in. *)
  (match Frame_alloc.alloc k.Kernel.frames with
  | Some frame -> (
      match
        Sva.map_kernel_page k.Kernel.sva ~va:scratch_va ~frame
          ~perm:{ writable = true; user = false; executable = false }
      with
      | Ok () -> ()
      | Error _ -> failwith "rootkit setup: scratch mapping refused")
  | None -> failwith "rootkit setup: out of frames");
  scratch_va

let register_exploit_payload (k : Kernel.t) ~victim ~secret_va ~secret_len =
  Hashtbl.replace k.Kernel.module_externs "extern.inject_code"
    (fun k _caller args ->
      let addr = args.(0) in
      (* Installing code at [addr] in the victim's text map models the
         module's memcpy of exploit instructions into the buffer. *)
      Hashtbl.replace victim.Runtime.proc.Proc.code_map addr (fun _arg ->
          (* Exploit payload, executing *as the victim process*: its own
             ghost memory is readable to it. *)
          let fd =
            Int64.to_int (Bytes.get_int64_le (Runtime.peek victim addr 8) 0)
          in
          let secret = Runtime.peek victim secret_va secret_len in
          let staging = Int64.add addr 8L in
          Runtime.poke victim staging secret;
          ignore
            (Syscalls.write k victim.Runtime.proc ~fd ~buf:staging ~len:secret_len));
      0L)

(* ------------------------------------------------------------------ *)
(* The full experiment                                                 *)

type outcome = {
  attack : attack;
  mode : Sva.mode;
  secret_leaked_to_console : bool;
  secret_in_exfil_file : bool;
  vm_refusal_logged : bool;
  victim_survived : bool;
}

let pp_attack fmt = function
  | Direct_read -> Format.pp_print_string fmt "direct-read"
  | Signal_inject -> Format.pp_print_string fmt "signal-handler injection"

let pp_mode fmt = function
  | Sva.Native_build -> Format.pp_print_string fmt "native"
  | Sva.Virtual_ghost -> Format.pp_print_string fmt "virtual-ghost"

let pp_outcome fmt o =
  Format.fprintf fmt
    "%a on %a: console-leak=%b exfil-file=%b vm-refusal=%b victim-survived=%b"
    pp_attack o.attack pp_mode o.mode o.secret_leaked_to_console o.secret_in_exfil_file
    o.vm_refusal_logged o.victim_survived

let exfil_file_contents k =
  match Diskfs.lookup k.Kernel.fs "/exfil" with
  | Error _ -> None
  | Ok ino -> (
      match Diskfs.stat k.Kernel.fs ~ino with
      | Error _ -> None
      | Ok st when st.Diskfs.size = 0 -> None
      | Ok st -> (
          match Diskfs.read k.Kernel.fs ~ino ~off:0 ~len:st.Diskfs.size with
          | Ok b -> Some (Bytes.to_string b)
          | Error _ -> None))

let contains_sub haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  m = 0 || go 0

(* Replay the attack against an already-booted kernel (a fleet node):
   the same victim/module/trigger sequence as [run_experiment], minus
   the boot.  Returns the observable aftermath on that kernel. *)
let infect k ~attack =
  let mode = Kernel.mode k in
  let machine = k.Kernel.machine in
  let scratch = prepare_kernel k in
  let ghosting = mode = Sva.Virtual_ghost in
  let image =
    if ghosting then begin
      let _, _, agent = Ssh_suite.install_images k ~app_key:(Bytes.make 16 'k') in
      Some agent
    end
    else None
  in
  let console = Machine.console machine in
  let survived = ref true in
  Runtime.launch k ?image ~ghosting (fun victim ->
      let secret_va = Ssh_suite.agent_store_secret victim secret_string in
      register_exploit_payload k ~victim ~secret_va
        ~secret_len:(String.length secret_string);
      (match
         Module_loader.load k ~name:"rootkit"
           (module_program ~attack ~victim_pid:victim.Runtime.proc.Proc.pid
              ~target_va:secret_va ~target_len:(String.length secret_string)
              ~scratch_va:scratch)
       with
      | Ok () -> ()
      | Error e ->
          failwith ("module load: " ^ Module_loader.describe_load_error e));
      let kk = victim.Runtime.kernel and proc = victim.Runtime.proc in
      (match Syscalls.pipe kk proc with
      | Ok (r, w) ->
          let buf = Runtime.ualloc victim 64 in
          Runtime.poke victim buf (Bytes.of_string "request!");
          ignore (Syscalls.write kk proc ~fd:w ~buf ~len:8);
          ignore (Syscalls.read kk proc ~fd:r ~buf ~len:8)
      | Error _ -> failwith "pipe");
      (try Runtime.check_signals victim with Runtime.App_crash _ -> survived := false);
      Module_loader.unload k ~name:"rootkit");
  {
    attack;
    mode;
    secret_leaked_to_console = Console.contains console secret_string;
    secret_in_exfil_file =
      (match exfil_file_contents k with
      | Some contents -> contains_sub contents secret_string
      | None -> false);
    vm_refusal_logged = Console.contains console "not a registered handler";
    victim_survived = !survived;
  }

let run_experiment ?(cpus = 1) ~obs ~mode ~attack () =
  let config =
    Vg_fleet.Node_config.(
      default |> with_cpus cpus |> with_phys_frames 16384
      |> with_disk_sectors 16384 |> with_seed "sec-exp" |> with_mode mode
      |> with_obs obs)
  in
  infect (Vg_fleet.Node.kernel (Vg_fleet.Node.boot config)) ~attack
