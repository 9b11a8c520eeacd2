type t = {
  machine : Machine.t;
  sva : Sva.t;
  kmem : Kmem.t;
  frames : Frame_alloc.t;
  bc : Buffer_cache.t;
  fs : Diskfs.t;
  net : Netstack.t;
  procs : (int, Proc.t) Hashtbl.t;
  mutable next_pid : int;
  current : int array; (* per-CPU: pid whose address space is installed *)
  overrides : (Syscall_abi.Sysno.t, syscall_override) Hashtbl.t;
  override_of : syscall_override option array; (* [overrides] by sysno *)
  module_externs : (string, t -> Proc.t -> int64 array -> int64) Hashtbl.t;
  frame_refs : (int, int) Hashtbl.t; (* COW sharing; absent = 1 *)
  modules : (string, Syscall_abi.Sysno.t list) Hashtbl.t; (* module name -> overridden syscalls *)
  proc_lock : Spinlock.t;
  frame_lock : Spinlock.t;
  swap : Swap_state.t; (* ghost-swap pressure engine (driven by Ghost_swap) *)
  mutable preempt : unit -> unit;
  mutable block : unit -> bool;
  child_wq : Waitq.t;
  mutable syscall_count : int;
  spec_mitigation : Vg_compiler.Mitigation.t;
      (* Spectre hardening every instrumented translation must carry *)
  installer_rng : Vg_crypto.Drbg.t;
      (* pads the key sections of the images the installer signs *)
  mutable images : Appimage.t array; (* execve install handles *)
}

and syscall_override = { func : string; compiled : Vg_compiler.Exec_compile.t }

let mode t = Sva.mode t.sva

(* Translate the kernel's own image, sign it into the cache, and load
   it back through the verifying path: under Virtual Ghost the boot
   refuses to proceed on an image whose sandbox/CFI instrumentation
   does not prove out, and the verification pass itself is charged to
   the [Verify] cycle tag. *)
let verify_kernel_image machine sva ~mitigation =
  let pmode =
    match Sva.mode sva with
    | Sva.Native_build -> Vg_compiler.Pipeline.Native_build
    | Sva.Virtual_ghost -> Vg_compiler.Pipeline.Virtual_ghost
  in
  let compiled =
    Vg_compiler.Pipeline.compile_kernel_code ~mode:pmode ~optimize:true
      ~mitigation
      (Kernel_image.program ())
  in
  let cache = Sva.translation_cache sva in
  let instrumented = Sva.mode sva = Sva.Virtual_ghost in
  Vg_compiler.Trans_cache.add cache ~name:Kernel_image.name ~instrumented
    ~mitigation compiled.Vg_compiler.Pipeline.linked;
  match Vg_compiler.Trans_cache.find cache ~name:Kernel_image.name with
  | Ok image ->
      if instrumented then
        Machine.charge ~tag:Obs.Tag.Verify machine
          (Vg_compiler.Image_verify.cost_cycles image)
  | Error e ->
      failwith
        ("Kernel.boot: kernel image failed load-time verification: "
        ^ Vg_compiler.Trans_cache.describe_find_error e)

let boot ~frame_limit ~spec_mitigation ~mode machine =
  let sva = Sva.boot ~mode machine in
  (* Bind the syscall table into the translation cache so any signed
     blob carrying a syscall-flow graph can be re-proven against its
     code at load time ([Trans_cache] itself lives below [Syscall_abi]
     and cannot name it).  Likewise bind the Spectre mitigation this
     kernel runs under: every instrumented translation must carry it,
     and the verifier proves the matching Spec invariant on load. *)
  Vg_compiler.Trans_cache.set_syscall_resolver (Sva.translation_cache sva)
    ~n:Syscall_abi.Sysno.count Syscall_policy.resolve_extern;
  Vg_compiler.Trans_cache.set_mitigation (Sva.translation_cache sva)
    spec_mitigation;
  verify_kernel_image machine sva ~mitigation:spec_mitigation;
  let kmem = Kmem.create ~mitigation:spec_mitigation sva in
  let phys_frames = Phys_mem.frames (Machine.mem machine) in
  (* Low frames notionally hold the kernel image; the top of memory
     belongs to SVA (its internal area plus per-thread mirrors).
     [frame_limit] caps the allocator to simulate a memory-constrained
     machine (exercises the ghost swap path). *)
  let last = phys_frames - 4096 in
  let last = match frame_limit with Some n -> min last (16 + n - 1) | None -> last in
  let frames = Frame_alloc.create ~first:16 ~last in
  let bc = Buffer_cache.create ~capacity:8192 ~kmem (Machine.disk machine) in
  Buffer_cache.set_lock bc (Spinlock.create machine ~name:"bcache");
  let charge_work n = Kmem.work kmem n in
  let fs =
    match Diskfs.mount ~charge_work bc with
    | Ok fs -> fs
    | Error _ -> Diskfs.mkfs ~charge_work bc
  in
  let net = Netstack.create ~kmem (Machine.nic machine) in
  let t =
    {
      machine;
      sva;
      kmem;
      frames;
      bc;
      fs;
      net;
      procs = Hashtbl.create 32;
      next_pid = 1;
      current = Array.make (Machine.cpus machine) 1;
      overrides = Hashtbl.create 4;
      override_of = Array.make Syscall_abi.Sysno.count None;
      module_externs = Hashtbl.create 16;
      frame_refs = Hashtbl.create 256;
      modules = Hashtbl.create 4;
      proc_lock = Spinlock.create machine ~name:"proc";
      frame_lock = Spinlock.create machine ~name:"frame";
      swap =
        Swap_state.create machine ~cpus:(Machine.cpus machine)
          ~total_frames:(Frame_alloc.total frames);
      preempt = (fun () -> ());
      block = (fun () -> false);
      child_wq = Waitq.create ~name:"child-exit";
      syscall_count = 0;
      spec_mitigation;
      installer_rng = Vg_crypto.Drbg.create ~seed:(Bytes.of_string "vg-installer");
      images = [||];
    }
  in
  (* init (pid 1) *)
  let pt = Sva.declare_address_space sva ~pid:1 in
  let tid = Sva.new_thread sva ~pid:1 ~entry:0x400000L ~stack:0x7fff_f000L in
  Hashtbl.replace t.procs 1 (Proc.make ~pid:1 ~parent:0 ~pt ~tid);
  t.next_pid <- 2;
  (match Sva.swap_integer sva ~tid with Ok () -> () | Error msg -> failwith msg);
  Machine.set_current_pt machine pt;
  t

let find_proc t pid = Hashtbl.find_opt t.procs pid

(* An image is registered once: the handle of an image already in the
   table (the same value, by physical equality) is reused. *)
let image_handle t image =
  let rec find i =
    if i = Array.length t.images then begin
      t.images <- Array.append t.images [| image |];
      i
    end
    else if t.images.(i) == image then i
    else find (i + 1)
  in
  find 0

let image_of_handle t h =
  if h >= 0 && h < Array.length t.images then Some t.images.(h) else None

let init_process t =
  match find_proc t 1 with Some p -> p | None -> failwith "Kernel: init is gone"

let current_pid t = t.current.(Machine.cpu t.machine)

let current_proc t =
  match find_proc t (current_pid t) with
  | Some p -> p
  | None -> failwith "Kernel: current process is gone"

(* Context switch through the SVA-mediated path: the only way the
   kernel changes threads is [sva.swap.integer] (which validates the
   target and keeps its register state inside SVA memory), followed by
   the checked page-table install.  A refusal — the thread is live on
   another core — is a scheduler invariant violation here, so it is
   fatal; hostile schedulers exercising that path go through
   [Sva.swap_integer] directly and get the [Error]. *)
let switch_to t (proc : Proc.t) =
  let cpu = Machine.cpu t.machine in
  let same_space = t.current.(cpu) = proc.Proc.pid in
  let live =
    match Sva.running_on t.sva ~cpu with Some tid -> tid = proc.Proc.tid | None -> false
  in
  if not (same_space && live) then begin
    if not same_space then begin
      Kmem.fn_entry t.kmem;
      Kmem.work t.kmem 40
    end;
    (match Sva.swap_integer t.sva ~tid:proc.Proc.tid with
    | Ok () -> ()
    | Error msg -> failwith ("Kernel.switch_to: " ^ msg));
    if not same_space then begin
      Machine.set_current_pt t.machine proc.Proc.pt;
      t.current.(cpu) <- proc.Proc.pid
    end
  end

(* The process-table half of wait(): remove one zombie child of
   [parent].  The fiber runtime reaps on the dying fiber's core —
   switching to the parent just to drop a table entry would make it
   live on this core, colliding with wherever it actually runs. *)
let reap_zombie t ~parent =
  Spinlock.with_lock t.proc_lock (fun () ->
      Kmem.work t.kmem 40;
      let zombie =
        Hashtbl.fold
          (fun _ (p : Proc.t) acc ->
            match acc with
            | Some _ -> acc
            | None ->
                if p.Proc.parent = parent && Proc.is_zombie p then Some p
                else None)
          t.procs None
      in
      match zombie with
      | Some z ->
          Hashtbl.remove t.procs z.Proc.pid;
          Some z.Proc.pid
      | None -> None)

let create_process t ~parent =
  Spinlock.with_lock t.proc_lock (fun () ->
      let pid = t.next_pid in
      t.next_pid <- pid + 1;
      Kmem.work t.kmem 250;
      let pt = Sva.declare_address_space t.sva ~pid in
      let tid = Sva.clone_thread t.sva ~tid:parent.Proc.tid ~new_pid:pid in
      let proc = Proc.make ~pid ~parent:parent.Proc.pid ~pt ~tid in
      Hashtbl.replace t.procs pid proc;
      Ok proc)

let user_perm : Pagetable.perm = { writable = true; user = true; executable = true }
let user_ro : Pagetable.perm = { writable = false; user = true; executable = true }

(* Frame sharing for copy-on-write fork. *)
let frame_refcount t f = Option.value ~default:1 (Hashtbl.find_opt t.frame_refs f)
let share_frame t f = Hashtbl.replace t.frame_refs f (frame_refcount t f + 1)

(* Drop one reference; free (and zero — charged here, modelling a
   zero-on-free pool) once the last reference is gone. *)
let release_frame t f =
  match frame_refcount t f with
  | 1 ->
      Hashtbl.remove t.frame_refs f;
      (* Zero-on-free runs in the background pool worker; it is not on
         the critical path of munmap/exit, so it is not charged here. *)
      Phys_mem.zero_frame (Machine.mem t.machine) f;
      Spinlock.with_lock t.frame_lock (fun () -> Frame_alloc.free t.frames f)
  | n -> Hashtbl.replace t.frame_refs f (n - 1)

let map_user_page t (proc : Proc.t) va =
  let vpage = Int64.shift_right_logical va 12 in
  if Hashtbl.mem proc.Proc.user_frames vpage then Ok ()
  else if not (Layout.in_user va) then Error Errno.EFAULT
  else begin
    match Spinlock.with_lock t.frame_lock (fun () -> Frame_alloc.alloc t.frames) with
    | None -> Error Errno.ENOMEM
    | Some frame -> (
        (* Frames come from a zero-on-free pool (see [release_frame]);
           the PTE work is instrumented kernel code. *)
        Phys_mem.zero_frame (Machine.mem t.machine) frame;
        Kmem.work t.kmem 30;
        match Sva.map_page t.sva proc.Proc.pt ~va ~frame ~perm:user_perm with
        | Ok () ->
            Hashtbl.replace proc.Proc.user_frames vpage frame;
            Ok ()
        | Error _ ->
            Spinlock.with_lock t.frame_lock (fun () -> Frame_alloc.free t.frames frame);
            Error Errno.EFAULT)
  end

(* Resolve a copy-on-write fault: sole owner pages are simply
   re-enabled for writing; shared pages get a private copy. *)
let resolve_cow t (proc : Proc.t) vpage =
  match Hashtbl.find_opt proc.Proc.user_frames vpage with
  | None -> Error Errno.EFAULT
  | Some frame ->
      let va = Int64.shift_left vpage 12 in
      Kmem.work t.kmem 25;
      if frame_refcount t frame = 1 then begin
        Hashtbl.remove proc.Proc.cow vpage;
        match Sva.protect_page t.sva proc.Proc.pt ~va ~perm:user_perm with
        | Ok () ->
            Machine.flush_tlb t.machine;
            Ok ()
        | Error _ -> Error Errno.EFAULT
      end
      else begin
        match Spinlock.with_lock t.frame_lock (fun () -> Frame_alloc.alloc t.frames) with
        | None -> Error Errno.ENOMEM
        | Some fresh -> (
            Phys_mem.copy_frame (Machine.mem t.machine) ~src:frame ~dst:fresh;
            Machine.charge ~tag:Obs.Tag.Copy t.machine (Cost.copy_cycles 4096);
            match Sva.map_page t.sva proc.Proc.pt ~va ~frame:fresh ~perm:user_perm with
            | Ok () ->
                release_frame t frame;
                Hashtbl.replace proc.Proc.user_frames vpage fresh;
                Hashtbl.remove proc.Proc.cow vpage;
                Machine.flush_tlb t.machine;
                Ok ()
            | Error _ ->
                Spinlock.with_lock t.frame_lock (fun () -> Frame_alloc.free t.frames fresh);
                Error Errno.EFAULT)
      end

(* Make [va, va+len) privately writable (kernel copyout path). *)
let resolve_cow_range t proc va ~len =
  if len > 0 then begin
    let first = Int64.shift_right_logical va 12 in
    let last = Int64.shift_right_logical (Int64.add va (Int64.of_int (len - 1))) 12 in
    let page = ref first in
    while Int64.compare !page last <= 0 do
      if Hashtbl.mem proc.Proc.cow !page then ignore (resolve_cow t proc !page);
      page := Int64.add !page 1L
    done
  end

let ensure_user_range t proc va ~len =
  if len <= 0 then Ok ()
  else begin
    let first = Int64.shift_right_logical va 12 in
    let last = Int64.shift_right_logical (Int64.add va (Int64.of_int (len - 1))) 12 in
    let rec go page =
      if Int64.compare page last > 0 then Ok ()
      else begin
        match map_user_page t proc (Int64.shift_left page 12) with
        | Ok () -> go (Int64.add page 1L)
        | Error _ as e -> e
      end
    in
    go first
  end

let handle_page_fault t proc va =
  (* Hardware fault delivery, VM trap entry, then the (instrumented)
     fault handler's vm_map lookup before the page is materialised. *)
  Machine.charge ~tag:Obs.Tag.Page_fault t.machine Cost.page_fault_hw;
  Sva.enter_trap t.sva ~tid:proc.Proc.tid;
  Kmem.fn_entry t.kmem;
  Kmem.work t.kmem 80;
  (* The fault path is long, mostly register/ALU work (vm_map lookups,
     object chains) whose instrumentation overhead is small. *)
  Machine.charge ~tag:Obs.Tag.Kernel_work t.machine 6000;
  let vpage = Int64.shift_right_logical va 12 in
  let result =
    if Hashtbl.mem proc.Proc.cow vpage then resolve_cow t proc vpage
    else map_user_page t proc va
  in
  Sva.return_from_trap t.sva ~tid:proc.Proc.tid;
  result

let free_user_pages t (proc : Proc.t) =
  (* Batched teardown: one cross-core invalidation for the whole
     address space, not one per page. *)
  let vas =
    Hashtbl.fold
      (fun vpage _ acc -> Int64.shift_left vpage 12 :: acc)
      proc.Proc.user_frames []
  in
  Sva.unmap_pages t.sva proc.Proc.pt ~vas:(List.sort compare vas);
  Hashtbl.iter (fun _ frame -> release_frame t frame) proc.Proc.user_frames;
  Hashtbl.reset proc.Proc.user_frames;
  Hashtbl.reset proc.Proc.cow;
  Machine.flush_tlb t.machine

