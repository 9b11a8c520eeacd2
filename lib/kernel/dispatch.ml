(* The one place a syscall happens.

   Every trap ([Syscalls.syscall]), every submission-ring entry and
   every module override goes through {!run}: raw sysno validation
   ([Sysno.of_int]), the ring disposition, the syscall-flow policy
   check, override-or-builtin handler, and result encoding live here
   and nowhere else.  Handlers are [Syscall_abi.Entry] records
   registered by [Syscalls] at module initialisation, one for every
   number. *)

type origin = Trap | Ring

let origin_to_string = function Trap -> "trap" | Ring -> "ring"

(* A handler takes register arguments and produces a result for the
   entry's codec. *)
type handler = Kernel.t -> Proc.t -> int64 array -> int64 Errno.result

type entry = handler Syscall_abi.Entry.t

let table : entry option array = Array.make Syscall_abi.Sysno.count None

let register (e : entry) =
  table.(Syscall_abi.Sysno.to_int e.Syscall_abi.Entry.sysno) <- Some e

let entry sysno = table.(Syscall_abi.Sysno.to_int sysno)

let entries () =
  List.filter_map (fun s -> table.(Syscall_abi.Sysno.to_int s)) Syscall_abi.Sysno.all

(* Tearing down a policy-killed process needs the syscall bodies
   (close, freegm...), which live above us in [Syscalls]; it installs
   the real teardown at init. *)
let on_kill : (Kernel.t -> Proc.t -> unit) ref = ref (fun _ _ -> ())

(* ------------------------------------------------------------------ *)
(* Syscall-flow integrity                                              *)

let violation_detail (proc : Proc.t) pol ~origin ~name ~batch_index =
  let prev =
    match Syscall_policy.last pol with
    | Some p -> Syscall_abi.Sysno.to_name p
    | None -> "<entry>"
  in
  Printf.sprintf "pid %d: %s -> %s outside profile (%s%s)" proc.Proc.pid prev
    name (origin_to_string origin)
    (match batch_index with
    | None -> ""
    | Some i -> Printf.sprintf ", batch entry %d" i)

(* Kill the process: one [Security{sfip}] event, the policy latched to
   refused, and the exit-style teardown.  The caller still runs the
   trap epilogue — the SVA thread stays alive so the ESFIP result can
   be written back and later (doomed) syscalls refuse cleanly instead
   of crashing the simulator. *)
let violate k (proc : Proc.t) pol ~origin ~name ~batch_index =
  Syscall_policy.kill pol;
  Machine.emit k.Kernel.machine
    (Obs.Event.Security
       {
         subsystem = "sfip";
         detail = violation_detail proc pol ~origin ~name ~batch_index;
       });
  Console.write
    (Machine.console k.Kernel.machine)
    ("vg: sfip kill: " ^ violation_detail proc pol ~origin ~name ~batch_index);
  !on_kill k proc;
  Error Errno.ESFIP

(* Per-entry policy gate.  Unprofiled processes pay nothing — not even
   a cycle charge — so sfip-off runs are byte-identical. *)
let guard k (proc : Proc.t) ~origin sysno =
  match proc.Proc.policy with
  | None -> Ok ()
  | Some pol ->
      if Syscall_policy.killed pol then Error Errno.ESFIP
      else begin
        Machine.charge ~tag:Obs.Tag.Sfip k.Kernel.machine
          Syscall_policy.check_cycles;
        if Syscall_policy.permits pol sysno then begin
          Syscall_policy.note pol sysno;
          Ok ()
        end
        else
          violate k proc pol ~origin
            ~name:(Syscall_abi.Sysno.to_name sysno)
            ~batch_index:None
      end

(* Whole-batch gate for [ring_enter]: scan the submitted sequence —
   intra-batch transitions included — against the policy before any
   entry executes.  Invalid numbers and calls refused from a ring fall
   straight to [ENOSYS] in {!run} without moving the cursor, so the
   scan skips them the same way.  [Error ESFIP] means the batch ran
   nothing; the per-entry charge is paid here, so in-policy entries
   later commit with [prechecked:true] for free (that is the
   amortisation the bench measures). *)
let precheck k (proc : Proc.t) (raw : int array) =
  match proc.Proc.policy with
  | None -> Ok ()
  | Some pol ->
      if Syscall_policy.killed pol then Error Errno.ESFIP
      else begin
        let ring_sysno n =
          Option.bind (Syscall_abi.Sysno.of_int n) (fun s ->
              if Syscall_abi.ring_callable s then Some s else None)
        in
        let sysnos = Array.of_list (List.filter_map ring_sysno (Array.to_list raw)) in
        Machine.charge ~tag:Obs.Tag.Sfip k.Kernel.machine
          (Syscall_policy.check_cycles * Array.length sysnos);
        match Syscall_policy.scan pol sysnos with
        | Ok () -> Ok ()
        | Error i ->
            violate k proc pol ~origin:Ring
              ~name:(Syscall_abi.Sysno.to_name sysnos.(i))
              ~batch_index:(Some i)
      end

(* Commit one prechecked ring entry: advance the cursor (and grow
   record-mode graphs) without re-charging or re-judging. *)
let commit_prechecked (proc : Proc.t) sysno =
  match proc.Proc.policy with
  | None -> ()
  | Some pol -> Syscall_policy.note pol sysno

(* ------------------------------------------------------------------ *)
(* Module override execution                                           *)

let run_override (k : Kernel.t) proc (ov : Kernel.syscall_override) args : int64 =
  let machine = k.Kernel.machine in
  (* Under Virtual Ghost, module code is sandbox-instrumented: an access
     the sandbox forced out of range faults here and is absorbed.  That
     absorbed fault is the defence engaging, so report it. *)
  let sandbox_fault what addr =
    if Sva.mode k.Kernel.sva = Sva.Virtual_ghost && Machine.tracing machine then
      Machine.emit machine
        (Obs.Event.Security
           {
             subsystem = "sandbox";
             detail =
               Printf.sprintf "module %s at %s denied" what (U64.to_hex addr);
           })
  in
  let env =
    {
      Vg_compiler.Exec_env.null_env with
      load =
        (fun cell width ->
          let addr = Vg_compiler.Exec_env.(get cell address) in
          Vg_compiler.Exec_env.(set cell value)
            (try Machine.read_virt machine addr ~len:(Ir.bytes_of_width width)
             with Machine.Page_fault _ | Phys_mem.Bad_physical_address _ ->
               sandbox_fault "load" addr;
               0L));
      store =
        (fun cell width ->
          let addr = Vg_compiler.Exec_env.(get cell address) in
          try
            Machine.write_virt machine addr ~len:(Ir.bytes_of_width width)
              Vg_compiler.Exec_env.(get cell value)
          with Machine.Page_fault _ | Phys_mem.Bad_physical_address _ ->
            sandbox_fault "store" addr);
      memcpy =
        (fun ~dst ~src ~len ->
          try Machine.memcpy_virt machine ~dst ~src ~len:(Int64.to_int len) with
          | Machine.Page_fault { va; _ } -> sandbox_fault "memcpy" va
          | Phys_mem.Bad_physical_address _ ->
              (* a frame outside physical memory carries no virtual
                 address: name the copy's source *)
              sandbox_fault "memcpy" src);
      io_read = (fun port -> Sva.io_read k.Kernel.sva ~port);
      io_write =
        (fun port v ->
          match Sva.io_write k.Kernel.sva ~port v with Ok () -> () | Error _ -> ());
      extern =
        (fun name args ->
          match Hashtbl.find_opt k.Kernel.module_externs name with
          | Some f -> f k proc args
          | None ->
              Console.write (Machine.console machine)
                ("module: call to unknown kernel symbol " ^ name);
              0L);
      charge = Machine.charge_to machine;
      observed = (fun () -> Machine.tracing machine);
      spec_depth = Machine.spec_depth machine;
      spec_load =
        (fun va width ->
          Machine.spec_load machine va ~len:(Ir.bytes_of_width width));
      spec_window = (fun () -> Machine.spec_window_opened machine);
    }
  in
  Vg_compiler.Exec_compile.run env ov.Kernel.compiled ov.Kernel.func args

(* ------------------------------------------------------------------ *)
(* The unified dispatch                                                *)

(* Execute syscall [sysno] with register arguments: validate the
   number and its ring disposition, run the policy gate (exit stays
   outside it), honour any module override, otherwise the registered
   builtin handler, and return the ABI-encoded result register.
   Callers are inside a trap ([Syscalls.syscall], or [ring_enter] for
   ring entries); this performs no trap protocol of its own.
   [prechecked] marks ring entries already vetted by {!precheck}. *)
let run k proc ~origin ?(prechecked = false) ~sysno (args : int64 array) : int64 =
  match Syscall_abi.Sysno.of_int sysno with
  | None -> Syscall_abi.encode_int (Error Errno.ENOSYS)
  | Some sysno when origin = Ring && not (Syscall_abi.ring_callable sysno) ->
      Syscall_abi.encode_int (Error Errno.ENOSYS)
  | Some sysno -> (
      let codec = Syscall_abi.codec sysno in
      let gate =
        if Syscall_abi.disposition sysno = Syscall_abi.No_return then Ok ()
        else if prechecked then begin
          commit_prechecked proc sysno;
          Ok ()
        end
        else guard k proc ~origin sysno
      in
      match gate with
      | Error e -> Syscall_abi.encode codec (Error e)
      | Ok () -> (
          match k.Kernel.override_of.(Syscall_abi.Sysno.to_int sysno) with
          | Some ov -> (
              (* Ring entries always carry four registers; the module
                 function takes the call's real arity. *)
              let arity = Syscall_abi.arity sysno in
              let args =
                if Array.length args > arity then Array.sub args 0 arity
                else args
              in
              (* A module that breaks CFI or traps (division by zero,
                 fuel, an undefined register) loses its kernel thread;
                 the calling process gets EFAULT and runs on. *)
              let terminate event msg =
                Machine.emit k.Kernel.machine event;
                Console.write
                  (Machine.console k.Kernel.machine)
                  ("vg: kernel thread terminated: " ^ msg);
                Syscall_abi.encode_int (Error Errno.EFAULT)
              in
              match run_override k proc ov args with
              | result -> result
              | exception Vg_compiler.Exec_env.Cfi_violation msg ->
                  terminate (Obs.Event.Cfi_violation { detail = msg }) msg
              | exception Vg_compiler.Exec_env.Exec_trap msg ->
                  terminate
                    (Obs.Event.Security
                       {
                         subsystem = "module-trap";
                         detail = Printf.sprintf "%s: %s" ov.Kernel.func msg;
                       })
                    msg)
          | None -> (
              match entry sysno with
              | Some e -> Syscall_abi.encode codec (e.Syscall_abi.Entry.handler k proc args)
              | None -> invalid_arg "Dispatch.run: Syscalls registers every number")))
