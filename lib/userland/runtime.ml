type ctx = {
  kernel : Kernel.t;
  proc : Proc.t;
  ghosting : bool;
  mutable normal_pc : int64;
  mutable heap_cursor : int64;
  mutable heap_end : int64;
  mutable traditional_cursor : int64;
  mutable next_code_addr : int64;
  bounce : int64;
  mutable crashed : string option;
}

exception App_crash of string

let ghost_heap_base = Int64.add Layout.ghost_start 0x1000_0000L
let traditional_heap_base = 0x0000_0000_0100_0000L
let code_base = 0x0000_0000_0041_0000L
let bounce_bytes = 65536

(* ------------------------------------------------------------------ *)
(* User memory access with demand paging                               *)

let as_user ctx f =
  Kernel.switch_to ctx.kernel ctx.proc;
  let machine = ctx.kernel.Kernel.machine in
  Machine.set_privilege machine Machine.User;
  Fun.protect ~finally:(fun () -> Machine.set_privilege machine Machine.Kernel) f

(* Fault resolution: ghost addresses may be swapped out (brought back
   through the VM's sealed path); ordinary user addresses demand-page
   or resolve copy-on-write. *)
let service_fault ctx fault_va =
  if Layout.in_ghost fault_va then Ghost_swap.fault_in ctx.kernel ctx.proc fault_va
  else begin
    (* Traditional demand paging draws from the global allocator; under
       ghost memory pressure refill it by evicting sealed ghost pages. *)
    if Frame_alloc.free_count ctx.kernel.Kernel.frames = 0 then
      Ghost_swap.ensure_free ctx.kernel ~wanted:1;
    Kernel.handle_page_fault ctx.kernel ctx.proc fault_va
  end

let rec poke ctx va data =
  try as_user ctx (fun () -> Machine.write_bytes_virt ctx.kernel.Kernel.machine va data)
  with Machine.Page_fault { va = fault_va; _ } -> (
    match service_fault ctx fault_va with
    | Ok () -> poke ctx va data
    | Error e -> raise (App_crash ("segmentation fault: " ^ Errno.to_string e)))

let rec peek ctx va len =
  try as_user ctx (fun () -> Machine.read_bytes_virt ctx.kernel.Kernel.machine va ~len)
  with Machine.Page_fault { va = fault_va; _ } -> (
    match service_fault ctx fault_va with
    | Ok () -> peek ctx va len
    | Error e -> raise (App_crash ("segmentation fault: " ^ Errno.to_string e)))

let rec user_memcpy ctx ~dst ~src ~len =
  try as_user ctx (fun () -> Machine.memcpy_virt ctx.kernel.Kernel.machine ~dst ~src ~len)
  with Machine.Page_fault { va = fault_va; _ } -> (
    match service_fault ctx fault_va with
    | Ok () -> user_memcpy ctx ~dst ~src ~len
    | Error e -> raise (App_crash ("segmentation fault: " ^ Errno.to_string e)))

(* ------------------------------------------------------------------ *)
(* Allocators                                                          *)

let align8 n = (n + 7) / 8 * 8

let ualloc ctx n =
  let va = ctx.traditional_cursor in
  ctx.traditional_cursor <- Int64.add va (Int64.of_int (align8 n));
  va

let ghost_grow_pages = 16

let galloc ctx n =
  if not ctx.ghosting then ualloc ctx n
  else begin
    let needed = align8 n in
    let remaining = Int64.to_int (Int64.sub ctx.heap_end ctx.heap_cursor) in
    if remaining < needed then begin
      let pages = max ghost_grow_pages ((needed + 4095) / 4096) in
      (match Syscalls.allocgm ctx.kernel ctx.proc ~va:ctx.heap_end ~pages with
      | Ok () -> ctx.heap_end <- Int64.add ctx.heap_end (Int64.of_int (pages * 4096))
      | Error e -> raise (App_crash ("ghost malloc failed: " ^ Errno.to_string e)))
    end;
    let va = ctx.heap_cursor in
    ctx.heap_cursor <- Int64.add va (Int64.of_int needed);
    va
  end

let register_code ctx f =
  let addr = ctx.next_code_addr in
  ctx.next_code_addr <- Int64.add addr 0x100L;
  Hashtbl.replace ctx.proc.Proc.code_map addr (fun arg -> f ctx arg);
  addr

(* ------------------------------------------------------------------ *)
(* Launch                                                              *)

let make kernel proc ~ghosting ~normal_pc =
  let ctx =
    {
      kernel;
      proc;
      ghosting;
      normal_pc;
      heap_cursor = ghost_heap_base;
      heap_end = ghost_heap_base;
      traditional_cursor = traditional_heap_base;
      next_code_addr = code_base;
      bounce = 0L;
      crashed = None;
    }
  in
  (* The bounce buffer is ordinary anonymous memory from mmap. *)
  match Syscalls.mmap kernel proc ~len:bounce_bytes with
  | Ok va -> { ctx with bounce = va }
  | Error e -> raise (App_crash ("runtime init: " ^ Errno.to_string e))

(* The [?sfip] policy argument is a template: each process gets its
   own cursor over the (possibly shared) graph, so a worker pool
   recording into one accumulator composes, and Record/Enforce runs
   observe identical sequences (both start counting right here, after
   execve and before the runtime's own init mmap). *)
let attach_sfip proc = function
  | None -> ()
  | Some pol ->
      proc.Proc.policy <-
        Some (Syscall_policy.create (Syscall_policy.mode pol) (Syscall_policy.graph pol))

let launch kernel ?image ?sfip ~ghosting body =
  let init = Kernel.init_process kernel in
  match Kernel.create_process kernel ~parent:init with
  | Error e -> raise (App_crash ("launch: " ^ Errno.to_string e))
  | Ok proc -> (
      (match image with
      | Some image -> (
          match Syscalls.execve kernel proc image with
          | Ok () -> ()
          | Error e -> raise (App_crash ("execve: " ^ Errno.to_string e)))
      | None -> ());
      attach_sfip proc sfip;
      let normal_pc =
        (Sva.thread_icontext kernel.Kernel.sva ~tid:proc.Proc.tid).Icontext.pc
      in
      let ctx = make kernel proc ~ghosting ~normal_pc in
      Fun.protect
        ~finally:(fun () ->
          if not (Proc.is_zombie proc) then Syscalls.exit_ kernel proc 0;
          match Syscalls.wait kernel init with Ok _ | Error _ -> ())
        (fun () -> body ctx))

(* Like [launch], but as a scheduler fiber: the process is created now
   (so callers can set it up — e.g. inherit a listening socket) and the
   body runs when the scheduler dispatches the fiber, preemptible at
   every syscall.  Exit and reaping happen when the body finishes. *)
let spawn_fiber kernel sched ?cpu ?image ?sfip ~ghosting ~name body =
  let init = Kernel.init_process kernel in
  match Kernel.create_process kernel ~parent:init with
  | Error e -> raise (App_crash ("spawn_fiber: " ^ Errno.to_string e))
  | Ok proc ->
      Sched.spawn sched ?cpu ~name proc (fun () ->
          (match image with
          | Some image -> (
              match Syscalls.execve kernel proc image with
              | Ok () -> ()
              | Error e -> raise (App_crash ("execve: " ^ Errno.to_string e)))
          | None -> ());
          attach_sfip proc sfip;
          let normal_pc =
            (Sva.thread_icontext kernel.Kernel.sva ~tid:proc.Proc.tid).Icontext.pc
          in
          let ctx = make kernel proc ~ghosting ~normal_pc in
          Fun.protect
            ~finally:(fun () ->
              (* Preemption is disabled across teardown: once [exit_]
                 frees the SVA thread, the fiber must not be requeued
                 (there is nothing left to switch to). *)
              let saved = kernel.Kernel.preempt in
              kernel.Kernel.preempt <- (fun () -> ());
              Fun.protect
                ~finally:(fun () -> kernel.Kernel.preempt <- saved)
                (fun () ->
                  if not (Proc.is_zombie proc) then Syscalls.exit_ kernel proc 0;
                  ignore (Kernel.reap_zombie kernel ~parent:init.Proc.pid)))
            (fun () -> body ctx));
      proc

let in_child parent child_proc body =
  let ctx =
    {
      parent with
      proc = child_proc;
      crashed = None;
    }
  in
  body ctx

(* ------------------------------------------------------------------ *)
(* Syscall wrappers                                                    *)

let sys_open ctx path flags = Syscalls.open_ ctx.kernel ctx.proc path flags
let sys_close ctx fd = Syscalls.close ctx.kernel ctx.proc fd

let is_ghost_ptr va = Layout.in_ghost va

let sys_write ctx ~fd ~src ~len =
  if ctx.ghosting && is_ghost_ptr src then begin
    (* The kernel cannot see ghost memory: bounce through traditional
       memory in chunks. *)
    let written = ref 0 and result = ref (Ok 0) in
    (try
       while !written < len do
         let chunk = min bounce_bytes (len - !written) in
         user_memcpy ctx ~dst:ctx.bounce
           ~src:(Int64.add src (Int64.of_int !written))
           ~len:chunk;
         match Syscalls.write ctx.kernel ctx.proc ~fd ~buf:ctx.bounce ~len:chunk with
         | Ok n ->
             written := !written + n;
             if n < chunk then raise Exit
         | Error _ as e ->
             result := e;
             raise Exit
       done
     with Exit -> ());
    match !result with Error _ as e when !written = 0 -> e | _ -> Ok !written
  end
  else Syscalls.write ctx.kernel ctx.proc ~fd ~buf:src ~len

let sys_read ctx ~fd ~dst ~len =
  if ctx.ghosting && is_ghost_ptr dst then begin
    let red = ref 0 and result = ref (Ok 0) in
    (try
       while !red < len do
         let chunk = min bounce_bytes (len - !red) in
         match Syscalls.read ctx.kernel ctx.proc ~fd ~buf:ctx.bounce ~len:chunk with
         | Ok 0 -> raise Exit
         | Ok n ->
             user_memcpy ctx ~dst:(Int64.add dst (Int64.of_int !red)) ~src:ctx.bounce
               ~len:n;
             red := !red + n;
             if n < chunk then raise Exit
         | Error _ as e ->
             result := e;
             raise Exit
       done
     with Exit -> ());
    match !result with Error _ as e when !red = 0 -> e | _ -> Ok !red
  end
  else Syscalls.read ctx.kernel ctx.proc ~fd ~buf:dst ~len

(* Sockets move bytes with the same masked-copyout rules as files: a
   ghost destination needs the bounce buffer, or the kernel's write is
   silently dropped. *)
let sys_recv ctx ~fd ~buf ~len =
  if ctx.ghosting && is_ghost_ptr buf then begin
    let chunk = min bounce_bytes len in
    match Syscalls.recv ctx.kernel ctx.proc ~fd ~buf:ctx.bounce ~len:chunk with
    | Ok n when n > 0 ->
        user_memcpy ctx ~dst:buf ~src:ctx.bounce ~len:n;
        Ok n
    | r -> r
  end
  else Syscalls.recv ctx.kernel ctx.proc ~fd ~buf ~len

let sys_send ctx ~fd ~buf ~len =
  if ctx.ghosting && is_ghost_ptr buf then begin
    let chunk = min bounce_bytes len in
    user_memcpy ctx ~dst:ctx.bounce ~src:buf ~len:chunk;
    Syscalls.send ctx.kernel ctx.proc ~fd ~buf:ctx.bounce ~len:chunk
  end
  else Syscalls.send ctx.kernel ctx.proc ~fd ~buf ~len

let write_string ctx ~fd s =
  let va = galloc ctx (String.length s) in
  poke ctx va (Bytes.of_string s);
  sys_write ctx ~fd ~src:va ~len:(String.length s)

let sys_mmap ctx ~len =
  match Syscalls.mmap ctx.kernel ctx.proc ~len with
  | Ok va ->
      (* Ghosting applications are compiled with the Iago-defence pass:
         a hostile kernel cannot trick them into writing through a
         pointer into their own ghost memory. *)
      if ctx.ghosting then begin
        let masked = Vg_compiler.Mmap_mask_pass.masked_return va in
        (* The mask only changes pointers that aimed into the ghost
           partition — i.e. an Iago attack the pass just defused. *)
        if masked <> va then
          Machine.emit ctx.kernel.Kernel.machine
            (Obs.Event.Security
               {
                 subsystem = "iago-mask";
                 detail =
                   Printf.sprintf "mmap returned ghost pointer %s, masked to %s"
                     (U64.to_hex va) (U64.to_hex masked);
               });
        Ok masked
      end
      else Ok va
  | Error _ as e -> e

let sys_signal ctx ~signum handler =
  let addr = register_code ctx handler in
  (* Wrapper behaviour from the paper: register the handler address as
     a permitted dispatch target before telling the kernel. *)
  Sva.permit_function ctx.kernel.Kernel.sva ~pid:ctx.proc.Proc.pid addr;
  Syscalls.signal ctx.kernel ctx.proc ~signum ~handler:addr

let sys_kill ctx ~pid ~signum = Syscalls.kill ctx.kernel ctx.proc ~pid ~signum

let check_signals ctx =
  let budget = ref 16 in
  let continue = ref true in
  while !continue do
    decr budget;
    if !budget < 0 then raise (App_crash "signal dispatch loop");
    let ic = Sva.thread_icontext ctx.kernel.Kernel.sva ~tid:ctx.proc.Proc.tid in
    if ic.Icontext.pc = ctx.normal_pc then continue := false
    else begin
      match Hashtbl.find_opt ctx.proc.Proc.code_map ic.Icontext.pc with
      | None ->
          ctx.crashed <- Some (U64.to_hex ic.Icontext.pc);
          raise
            (App_crash
               (Printf.sprintf "resumed at %s which holds no code"
                  (U64.to_hex ic.Icontext.pc)))
      | Some code ->
          code ic.Icontext.gprs.(0);
          (match Syscalls.sigreturn ctx.kernel ctx.proc with
          | Ok () -> ()
          | Error _ ->
              (* No pushed context: this was a hijack, not a signal. *)
              ctx.crashed <- Some "hijacked context";
              raise (App_crash "no saved context to return to (hijack)"))
    end
  done

let get_app_key ctx = Sva.get_app_key ctx.kernel.Kernel.sva ~pid:ctx.proc.Proc.pid
let vg_random ctx n = Sva.random_bytes ctx.kernel.Kernel.sva n
