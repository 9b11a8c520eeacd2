(* Structured observability: every simulated-cycle charge carries a tag
   and every interesting state transition emits an event.  Sinks are
   attached at run time; with no sink attached the instrumented code
   paths reduce to one boolean load, and nothing here ever touches the
   simulated cycle clock — observability is semantically free by
   construction. *)

module Tag = struct
  type t =
    | Exec  (** executor instruction slots (module / override code) *)
    | Mem  (** single-word virtual memory accesses *)
    | Tlb  (** TLB miss page-table walks *)
    | Copy  (** bulk copies (copyin/copyout, COW, memcpy) *)
    | Zero  (** page zeroing (ghost alloc/free, swap, execve teardown) *)
    | Trap  (** baseline trap entry *)
    | Trap_save  (** VG extra: interrupt-context save + register zeroing *)
    | Trap_return  (** return-to-user path *)
    | Context_switch
    | Page_fault  (** hardware fault delivery *)
    | Mmu_check  (** SVA MMU-update checks *)
    | Mask  (** sandbox address masking on kernel memory operands *)
    | Cfi  (** CFI label checks *)
    | Crypto  (** AES/SHA/counter work on VM-internal paths *)
    | Disk
    | Net
    | Io  (** programmed I/O through the SVA port intrinsics *)
    | Kernel_work  (** generic instrumented kernel work (Kmem.work) *)
    | Other
    | Sched  (** scheduler decisions and run-queue maintenance *)
    | Ipi  (** inter-processor interrupts (TLB shootdown) *)
    | Timer  (** per-core timer interrupts *)
    | Lock  (** spinlock cache-line transfers *)
    | Verify  (** load-time verification of native images *)
    | Ring  (** batched syscall-ring dispatch (per-entry work) *)
    | Sfip  (** syscall-flow-integrity transition checks *)
    | Swap  (** ghost-swap pressure engine (eviction scans, blob I/O) *)
    | Spec  (** speculation-era costs (cache misses, mitigation fences) *)

  let all =
    [
      Exec; Mem; Tlb; Copy; Zero; Trap; Trap_save; Trap_return; Context_switch;
      Page_fault; Mmu_check; Mask; Cfi; Crypto; Disk; Net; Io; Kernel_work;
      Other; Sched; Ipi; Timer; Lock; Verify; Ring; Sfip; Swap; Spec;
    ]

  let count = List.length all

  let index = function
    | Exec -> 0
    | Mem -> 1
    | Tlb -> 2
    | Copy -> 3
    | Zero -> 4
    | Trap -> 5
    | Trap_save -> 6
    | Trap_return -> 7
    | Context_switch -> 8
    | Page_fault -> 9
    | Mmu_check -> 10
    | Mask -> 11
    | Cfi -> 12
    | Crypto -> 13
    | Disk -> 14
    | Net -> 15
    | Io -> 16
    | Kernel_work -> 17
    | Other -> 18
    | Sched -> 19
    | Ipi -> 20
    | Timer -> 21
    | Lock -> 22
    | Verify -> 23
    | Ring -> 24
    | Sfip -> 25
    | Swap -> 26
    | Spec -> 27

  let to_string = function
    | Exec -> "exec"
    | Mem -> "mem"
    | Tlb -> "tlb"
    | Copy -> "copy"
    | Zero -> "zero"
    | Trap -> "trap"
    | Trap_save -> "trap-save"
    | Trap_return -> "trap-return"
    | Context_switch -> "ctx-switch"
    | Page_fault -> "page-fault"
    | Mmu_check -> "mmu-check"
    | Mask -> "mask"
    | Cfi -> "cfi"
    | Crypto -> "crypto"
    | Disk -> "disk"
    | Net -> "net"
    | Io -> "io"
    | Kernel_work -> "kernel"
    | Other -> "other"
    | Sched -> "sched"
    | Ipi -> "ipi"
    | Timer -> "timer"
    | Lock -> "lock"
    | Verify -> "verify"
    | Ring -> "ring"
    | Sfip -> "sfip"
    | Swap -> "swap"
    | Spec -> "spec"
end

module Event = struct
  type mmu_op = Map | Unmap | Protect
  type verdict = Allowed | Denied of string

  type t =
    | Trap_enter of { tid : int; pid : int }
    | Trap_exit of { tid : int; pid : int }
    | Syscall of { name : string; pid : int }
    | Mmu of { op : mmu_op; va : int64; verdict : verdict }
    | Ghost_alloc of { pid : int; pages : int }
    | Ghost_free of { pid : int; pages : int }
    | Swap_out of { pid : int; va : int64 }
    | Swap_in of { pid : int; va : int64; ok : bool }
    | Cfi_violation of { detail : string }
    | Security of { subsystem : string; detail : string }
    | Device_io of { port : int64; write : bool }
    | Module_load of { name : string; overrides : int }
    | Sched_switch of { cpu : int; prev_tid : int; next_tid : int }
    | Ipi of { from_cpu : int; to_cpu : int }
    | Timer_tick of { cpu : int }
    | Lock_contend of { name : string; cpu : int; last_cpu : int }

  let mmu_op_to_string = function
    | Map -> "map"
    | Unmap -> "unmap"
    | Protect -> "protect"

  let kind = function
    | Trap_enter _ -> "trap-enter"
    | Trap_exit _ -> "trap-exit"
    | Syscall _ -> "syscall"
    | Mmu _ -> "mmu"
    | Ghost_alloc _ -> "ghost-alloc"
    | Ghost_free _ -> "ghost-free"
    | Swap_out _ -> "swap-out"
    | Swap_in _ -> "swap-in"
    | Cfi_violation _ -> "cfi-violation"
    | Security _ -> "security"
    | Device_io _ -> "device-io"
    | Module_load _ -> "module-load"
    | Sched_switch _ -> "sched-switch"
    | Ipi _ -> "ipi"
    | Timer_tick _ -> "timer-tick"
    | Lock_contend _ -> "lock-contend"

  (* The events that record a defence engaging (a denial, a detected
     tamper, a deflected access) — what the attack suite greps for. *)
  let is_security = function
    | Mmu { verdict = Denied _; _ } -> true
    | Swap_in { ok = false; _ } -> true
    | Cfi_violation _ | Security _ -> true
    | Trap_enter _ | Trap_exit _ | Syscall _ | Mmu _ | Ghost_alloc _
    | Ghost_free _ | Swap_out _ | Swap_in _ | Device_io _ | Module_load _
    | Sched_switch _ | Ipi _ | Timer_tick _ | Lock_contend _ ->
        false

  let describe = function
    | Trap_enter { tid; pid } -> Printf.sprintf "trap enter tid=%d pid=%d" tid pid
    | Trap_exit { tid; pid } -> Printf.sprintf "trap exit tid=%d pid=%d" tid pid
    | Syscall { name; pid } -> Printf.sprintf "syscall %s pid=%d" name pid
    | Mmu { op; va; verdict } ->
        Printf.sprintf "mmu %s %s: %s" (mmu_op_to_string op)
          (Vg_util.U64.to_hex va)
          (match verdict with Allowed -> "allowed" | Denied why -> "DENIED " ^ why)
    | Ghost_alloc { pid; pages } ->
        Printf.sprintf "ghost alloc pid=%d pages=%d" pid pages
    | Ghost_free { pid; pages } ->
        Printf.sprintf "ghost free pid=%d pages=%d" pid pages
    | Swap_out { pid; va } ->
        Printf.sprintf "swap out pid=%d va=%s" pid (Vg_util.U64.to_hex va)
    | Swap_in { pid; va; ok } ->
        Printf.sprintf "swap in pid=%d va=%s %s" pid (Vg_util.U64.to_hex va)
          (if ok then "ok" else "REJECTED")
    | Cfi_violation { detail } -> "CFI violation: " ^ detail
    | Security { subsystem; detail } ->
        Printf.sprintf "security[%s]: %s" subsystem detail
    | Device_io { port; write } ->
        Printf.sprintf "io %s port %s" (if write then "write" else "read")
          (Vg_util.U64.to_hex port)
    | Module_load { name; overrides } ->
        Printf.sprintf "module %s loaded (%d overrides)" name overrides
    | Sched_switch { cpu; prev_tid; next_tid } ->
        Printf.sprintf "cpu%d: switch tid %d -> %d" cpu prev_tid next_tid
    | Ipi { from_cpu; to_cpu } -> Printf.sprintf "ipi cpu%d -> cpu%d" from_cpu to_cpu
    | Timer_tick { cpu } -> Printf.sprintf "timer tick cpu%d" cpu
    | Lock_contend { name; cpu; last_cpu } ->
        Printf.sprintf "lock %s: cpu%d takes line from cpu%d" name cpu last_cpu
end

type sink = {
  name : string;
  on_charge : cycles:int -> Tag.t -> int -> unit;
  on_event : cycles:int -> Event.t -> unit;
}

type t = { mutable sinks : sink list; mutable armed : bool }

let create () = { sinks = []; armed = false }

let is_armed t = t.armed

let attach t sink =
  t.sinks <- t.sinks @ [ sink ];
  t.armed <- true

let detach t sink =
  t.sinks <- List.filter (fun s -> s != sink) t.sinks;
  t.armed <- t.sinks <> []

let with_sink t sink f =
  attach t sink;
  Fun.protect ~finally:(fun () -> detach t sink) f

let charge t ~cycles tag n =
  List.iter (fun s -> s.on_charge ~cycles tag n) t.sinks

let event t ~cycles ev = List.iter (fun s -> s.on_event ~cycles ev) t.sinks
