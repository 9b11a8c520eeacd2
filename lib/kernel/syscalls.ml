type open_flags = { create : bool; truncate : bool; append : bool }

let rdonly = { create = false; truncate = false; append = false }
let creat_trunc = { create = true; truncate = true; append = false }

(* ------------------------------------------------------------------ *)
(* Trap protocol                                                       *)

(* Result registers are encoded through the one ABI convention
   ([Syscall_abi]); these are the common [trap ~encode] shapes. *)
let ret_int = Syscall_abi.encode_int
let ret_unit r = Syscall_abi.encode_int (Result.map (fun () -> 0) r)
let ret_any = fun _ -> 0L

(* Wrap a handler in the full system-call protocol.  [encode] derives
   the value placed in the saved context's return register; [name] is
   the syscall's name as reported to observability sinks. *)
let trap ?(after_result = fun () -> ()) (k : Kernel.t) (proc : Proc.t) ~name ~encode f =
  Kernel.switch_to k proc;
  k.Kernel.syscall_count <- k.Kernel.syscall_count + 1;
  Sva.enter_trap k.Kernel.sva ~tid:proc.Proc.tid;
  if Machine.tracing k.Kernel.machine then
    Machine.emit k.Kernel.machine (Obs.Event.Syscall { name; pid = proc.Proc.pid });
  (* Dispatch: table lookup, argument validation, credential checks. *)
  Kmem.fn_entry k.Kernel.kmem;
  Kmem.work k.Kernel.kmem 40;
  Machine.charge ~tag:Obs.Tag.Kernel_work k.Kernel.machine 40;
  let result = f () in
  Sva.set_syscall_result k.Kernel.sva ~tid:proc.Proc.tid (encode result);
  (* Work done on the return-to-user path (e.g. signal delivery)
     happens after the result register is written. *)
  after_result ();
  Sva.return_from_trap k.Kernel.sva ~tid:proc.Proc.tid;
  (* Timer interrupts are taken at the trap epilogue — the point where
     a real kernel finds the thread preemptible.  The scheduler's hook
     unwinds the running fiber here; the default hook does nothing. *)
  k.Kernel.preempt ();
  result

(* Copy between kernel and user/ghost buffers with the instrumented
   accessors.  User-range destinations are demand-mapped first (the
   fault would otherwise silently zero-fill); everything else is left
   to the masking semantics. *)
let prepare_user_buffer k proc va len =
  if Layout.in_user va then ignore (Kernel.ensure_user_range k proc va ~len)

let copyout k proc ~dst data =
  prepare_user_buffer k proc dst (Bytes.length data);
  if Layout.in_user dst then Kernel.resolve_cow_range k proc dst ~len:(Bytes.length data);
  Kmem.write_bytes k.Kernel.kmem dst data

let copyin k proc ~src ~len =
  prepare_user_buffer k proc src len;
  Kmem.read_bytes k.Kernel.kmem src ~len

(* send(2) and write(2) on a connected socket: the user's bytes are
   copied once, straight into the outgoing frame behind its header
   room. *)
let sock_send k proc ~conn ~buf ~len =
  let frame = Bytes.create (Netstack.header_bytes + len) in
  prepare_user_buffer k proc buf len;
  Kmem.read_into k.Kernel.kmem buf frame ~off:Netstack.header_bytes ~len;
  Netstack.send k.Kernel.net ~conn frame

(* Retry an [EAGAIN] attempt after sleeping through the scheduler's
   block hook.  The subscription snapshot is taken before yielding, so
   a wakeup racing the sleep is seen; a resume with no wakeup on the
   subscribed queue is a spurious pass through the run queue and costs
   only the requeue glance — the attempt's own charges model the real
   re-scan.  With the default hook ([fun () -> false], no scheduler)
   the [EAGAIN] surfaces unchanged. *)
let block_on_eagain (k : Kernel.t) ~wq attempt =
  let rec go () =
    match attempt () with
    | Error Errno.EAGAIN as e ->
        let sub = Waitq.subscribe (Option.to_list wq) in
        if k.Kernel.block () then begin
          if not (Waitq.signalled sub) then Kmem.work k.Kernel.kmem 4;
          go ()
        end
        else e
    | r -> r
  in
  go ()

(* ------------------------------------------------------------------ *)
(* File bodies                                                         *)

let path_charge k path = Kmem.work k.Kernel.kmem (40 + (2 * String.length path))

let close_body k proc fd =
  Kmem.fn_entry k.Kernel.kmem;
  Kmem.work k.Kernel.kmem 12;
  match Proc.find_fd proc fd with
  | None -> Error Errno.EBADF
  | Some kind ->
      (match kind with
      | Proc.Pipe_read p -> Pipe_dev.drop_reader p
      | Proc.Pipe_write p -> Pipe_dev.drop_writer p
      | Proc.Sock_conn conn -> Netstack.close k.Kernel.net ~conn
      | Proc.File _ | Proc.Sock_listen _ | Proc.Console_out -> ());
      Proc.remove_fd proc fd;
      Ok ()

let fd_read_kernel k _proc kind len : bytes Errno.result =
  match kind with
  | Proc.File f -> (
      match Diskfs.read k.Kernel.fs ~ino:f.ino ~off:f.offset ~len with
      | Ok data ->
          f.offset <- f.offset + Bytes.length data;
          Ok data
      | Error _ as e -> e)
  | Proc.Pipe_read p -> Pipe_dev.read p len
  | Proc.Sock_conn conn -> Netstack.recv k.Kernel.net ~conn len
  | Proc.Pipe_write _ | Proc.Sock_listen _ | Proc.Console_out -> Error Errno.EBADF

let genuine_read_unwrapped k proc ~fd ~buf ~len =
  Kmem.fn_entry k.Kernel.kmem;
  Kmem.work k.Kernel.kmem 20;
  match Proc.find_fd proc fd with
  | None -> Error Errno.EBADF
  | Some kind -> (
      match fd_read_kernel k proc kind len with
      | Error _ as e -> e
      | Ok data ->
          copyout k proc ~dst:buf data;
          Ok (Bytes.length data))

let genuine_read k proc ~fd ~buf ~len = genuine_read_unwrapped k proc ~fd ~buf ~len

let fd_write_kernel k _proc kind data : int Errno.result =
  match kind with
  | Proc.File f -> (
      match Diskfs.write k.Kernel.fs ~ino:f.ino ~off:f.offset data with
      | Ok n ->
          f.offset <- f.offset + n;
          Ok n
      | Error _ as e -> e)
  | Proc.Pipe_write p -> Pipe_dev.write p data
  | Proc.Console_out ->
      Console.write (Machine.console k.Kernel.machine) (Bytes.to_string data);
      Ok (Bytes.length data)
  | Proc.Sock_conn _ (* sent by [sock_send], never copied in first *)
  | Proc.Pipe_read _ | Proc.Sock_listen _ ->
      Error Errno.EBADF

let genuine_write k proc ~fd ~buf ~len =
  Kmem.fn_entry k.Kernel.kmem;
  Kmem.work k.Kernel.kmem 20;
  match Proc.find_fd proc fd with
  | None -> Error Errno.EBADF
  | Some (Proc.Sock_conn conn) -> sock_send k proc ~conn ~buf ~len
  | Some kind ->
      let data = copyin k proc ~src:buf ~len in
      fd_write_kernel k proc kind data

(* The wakeup source a descriptor's blocked reader sleeps on. *)
let read_wq_of k proc fd =
  match Proc.find_fd proc fd with
  | Some (Proc.Pipe_read p) -> Some (Pipe_dev.read_wq p)
  | Some (Proc.Sock_conn conn) -> Netstack.conn_wq k.Kernel.net ~conn
  | Some (Proc.Sock_listen port) -> Netstack.listen_wq k.Kernel.net ~port
  | _ -> None

let read_body k proc ~fd ~buf ~len =
  if Proc.is_blocking proc fd then
    block_on_eagain k ~wq:(read_wq_of k proc fd) (fun () ->
        genuine_read_unwrapped k proc ~fd ~buf ~len)
  else genuine_read_unwrapped k proc ~fd ~buf ~len

let write_body k proc ~fd ~buf ~len = genuine_write k proc ~fd ~buf ~len

let lseek_body k proc ~fd ~pos =
  Kmem.work k.Kernel.kmem 10;
  match Proc.find_fd proc fd with
  | Some (Proc.File f) when pos >= 0 ->
      f.offset <- pos;
      Ok pos
  | Some (Proc.File _) -> Error Errno.EINVAL
  | Some _ -> Error Errno.EINVAL
  | None -> Error Errno.EBADF

let dup2_body k proc ~src ~dst =
  Kmem.work k.Kernel.kmem 15;
  match Proc.find_fd proc src with
  | None -> Error Errno.EBADF
  | Some kind ->
      (match Proc.find_fd proc dst with
      | Some (Proc.Pipe_read p) -> Pipe_dev.drop_reader p
      | Some (Proc.Pipe_write p) -> Pipe_dev.drop_writer p
      | Some _ | None -> ());
      (* Share the open object (pipe reference counts included). *)
      (match kind with
      | Proc.Pipe_read p -> Pipe_dev.add_reader p
      | Proc.Pipe_write p -> Pipe_dev.add_writer p
      | Proc.File _ | Proc.Sock_listen _ | Proc.Sock_conn _ | Proc.Console_out -> ());
      Hashtbl.replace proc.Proc.fds dst kind;
      if dst >= proc.Proc.next_fd then proc.Proc.next_fd <- dst + 1;
      Ok ()

let fsync_body k =
  Diskfs.sync k.Kernel.fs;
  Ok ()

(* ------------------------------------------------------------------ *)
(* Process bodies                                                      *)

let getpid_body (proc : Proc.t) = Ok proc.Proc.pid

let wait_search k (proc : Proc.t) =
  Kmem.work k.Kernel.kmem 40;
  let children =
    Hashtbl.fold
      (fun _ (p : Proc.t) acc -> if p.Proc.parent = proc.Proc.pid then p :: acc else acc)
      k.Kernel.procs []
  in
  match children with
  | [] -> Error Errno.ECHILD
  | _ -> (
      match List.find_opt Proc.is_zombie children with
      | Some zombie ->
          Hashtbl.remove k.Kernel.procs zombie.Proc.pid;
          let status = match zombie.Proc.state with Proc.Zombie s -> s | _ -> 0 in
          Ok (zombie.Proc.pid, status)
      | None -> Error Errno.EAGAIN)

let wait_body ~block k proc =
  if block then block_on_eagain k ~wq:(Some k.Kernel.child_wq) (fun () -> wait_search k proc)
  else wait_search k proc

(* ------------------------------------------------------------------ *)
(* Memory bodies                                                       *)

let round_up_pages len = (len + 4095) / 4096 * 4096

let genuine_mmap k proc ~len =
  if len <= 0 then Error Errno.EINVAL
  else begin
    Kmem.fn_entry k.Kernel.kmem;
    Kmem.work k.Kernel.kmem 60;
    let va = proc.Proc.mmap_cursor in
    proc.Proc.mmap_cursor <- Int64.add va (Int64.of_int (round_up_pages len + 4096));
    match Kernel.ensure_user_range k proc va ~len with
    | Ok () -> Ok va
    | Error e -> Error e
  end

let munmap_body k proc ~addr ~len =
  Kmem.work k.Kernel.kmem 40;
  let first = Int64.shift_right_logical addr 12 in
  let pages = (len + 4095) / 4096 in
  for i = 0 to pages - 1 do
    let vpage = Int64.add first (Int64.of_int i) in
    match Hashtbl.find_opt proc.Proc.user_frames vpage with
    | None -> ()
    | Some frame ->
        (match Sva.unmap_page k.Kernel.sva proc.Proc.pt ~va:(Int64.shift_left vpage 12) with
        | Ok () | Error _ -> ());
        Kernel.release_frame k frame;
        Hashtbl.remove proc.Proc.user_frames vpage;
        Hashtbl.remove proc.Proc.cow vpage
  done;
  Machine.flush_tlb k.Kernel.machine;
  Ok ()

let allocgm_body k (proc : Proc.t) ~va ~pages =
  Kmem.fn_entry k.Kernel.kmem;
  Kmem.work k.Kernel.kmem 40;
  (* Memory pressure: evict ghost pages (through the VM) until the
     request fits. *)
  if Ghost_swap.available k < pages then Ghost_swap.ensure_frames k ~wanted:pages;
  match Ghost_swap.take_frames k pages with
  | None -> Error Errno.ENOMEM
  | Some frames -> (
      match Sva.allocgm k.Kernel.sva ~pid:proc.Proc.pid ~pt:proc.Proc.pt ~va ~frames with
      | Ok () ->
          proc.Proc.ghost_regions <- (va, pages) :: proc.Proc.ghost_regions;
          Ghost_swap.note_resident k proc ~va ~pages;
          Ok ()
      | Error msg ->
          List.iter (Frame_alloc.free k.Kernel.frames) frames;
          Console.write (Machine.console k.Kernel.machine) ("allocgm: " ^ msg);
          Error Errno.EINVAL)

let freegm_body k (proc : Proc.t) ~va ~pages =
  Kmem.work k.Kernel.kmem 30;
  match Sva.freegm k.Kernel.sva ~pid:proc.Proc.pid ~pt:proc.Proc.pt ~va ~count:pages with
  | Ok frames ->
      List.iter (Frame_alloc.free k.Kernel.frames) frames;
      (* Pages of the range that were swapped out can never be restored
         now; drop their stored blobs. *)
      Ghost_swap.release_range k proc ~va ~pages;
      proc.Proc.ghost_regions <-
        List.filter (fun (base, _) -> base <> va) proc.Proc.ghost_regions;
      Ok ()
  | Error msg ->
      Console.write (Machine.console k.Kernel.machine) ("freegm: " ^ msg);
      Error Errno.EINVAL

(* ------------------------------------------------------------------ *)
(* Signal bodies                                                       *)

let signal_body k (proc : Proc.t) ~signum ~handler =
  Kmem.fn_entry k.Kernel.kmem;
  Kmem.work k.Kernel.kmem 25;
  Hashtbl.replace proc.Proc.signal_handlers signum handler;
  Ok ()

let deliver_signal k (target : Proc.t) signum =
  match Hashtbl.find_opt target.Proc.signal_handlers signum with
  | None -> () (* default action: ignore *)
  | Some handler -> (
      Kmem.work k.Kernel.kmem 40;
      (* Building and copying the signal frame is dominated by
         straight-line work common to both builds. *)
      Machine.charge ~tag:Obs.Tag.Kernel_work k.Kernel.machine 1500;
      match
        Sva.ipush_function k.Kernel.sva ~tid:target.Proc.tid ~target:handler
          ~arg:(Int64.of_int signum)
      with
      | Ok () -> ()
      | Error msg -> Console.write (Machine.console k.Kernel.machine) ("vg: " ^ msg))

let kill_find_target k ~pid =
  Kmem.fn_entry k.Kernel.kmem;
  Kmem.work k.Kernel.kmem 30;
  match Kernel.find_proc k pid with
  | None -> Error Errno.ESRCH
  | Some target when Proc.is_zombie target -> Error Errno.ESRCH
  | Some target -> Ok target

let sigreturn_body k (proc : Proc.t) =
  Kmem.work k.Kernel.kmem 20;
  Machine.charge ~tag:Obs.Tag.Kernel_work k.Kernel.machine 800;
  match Sva.icontext_load k.Kernel.sva ~tid:proc.Proc.tid with
  | Ok () -> Ok ()
  | Error _ -> Error Errno.EINVAL

(* ------------------------------------------------------------------ *)
(* Socket bodies                                                       *)

let listen_body k proc ~port =
  Kmem.work k.Kernel.kmem 40;
  match Netstack.listen k.Kernel.net ~port with
  | Ok () -> Ok (Proc.add_fd proc (Proc.Sock_listen port))
  | Error e -> Error e

let accept_once k proc ~fd =
  Kmem.work k.Kernel.kmem 40;
  match Proc.find_fd proc fd with
  | Some (Proc.Sock_listen port) -> (
      match Netstack.accept k.Kernel.net ~port with
      | Some conn -> Ok (Proc.add_fd proc (Proc.Sock_conn conn))
      | None -> Error Errno.EAGAIN)
  | Some _ -> Error Errno.EINVAL
  | None -> Error Errno.EBADF

let accept_body k proc ~fd =
  if Proc.is_blocking proc fd then
    block_on_eagain k ~wq:(read_wq_of k proc fd) (fun () -> accept_once k proc ~fd)
  else accept_once k proc ~fd

let connect_body k proc addr =
  Kmem.work k.Kernel.kmem 60;
  match Netstack.connect_to k.Kernel.net addr with
  | Ok conn -> Ok (Proc.add_fd proc (Proc.Sock_conn conn))
  | Error e -> Error e

let send_body k proc ~fd ~buf ~len =
  Kmem.fn_entry k.Kernel.kmem;
  match Proc.find_fd proc fd with
  | Some (Proc.Sock_conn conn) -> sock_send k proc ~conn ~buf ~len
  | Some _ -> Error Errno.EINVAL
  | None -> Error Errno.EBADF

let recv_once k proc ~fd ~buf ~len =
  Kmem.fn_entry k.Kernel.kmem;
  match Proc.find_fd proc fd with
  | Some (Proc.Sock_conn conn) -> (
      match Netstack.recv k.Kernel.net ~conn len with
      | Ok data ->
          copyout k proc ~dst:buf data;
          Ok (Bytes.length data)
      | Error _ as e -> e)
  | Some _ -> Error Errno.EINVAL
  | None -> Error Errno.EBADF

let recv_body k proc ~fd ~buf ~len =
  if Proc.is_blocking proc fd then
    block_on_eagain k ~wq:(read_wq_of k proc fd) (fun () -> recv_once k proc ~fd ~buf ~len)
  else recv_once k proc ~fd ~buf ~len

let set_blocking_body k proc ~fd on =
  Kmem.work k.Kernel.kmem 8;
  match Proc.find_fd proc fd with
  | None -> Error Errno.EBADF
  | Some _ ->
      Proc.set_blocking proc fd on;
      Ok ()

(* ------------------------------------------------------------------ *)
(* Readiness                                                           *)

(* Level-triggered, non-consuming readiness (the poll/select view).
   Listener sockets report the backlog without popping it — poll must
   never consume the connection it reports. *)
let fd_ready k kind =
  match kind with
  | Proc.File _ | Proc.Console_out -> true
  | Proc.Pipe_read p -> Pipe_dev.readable p
  | Proc.Pipe_write p -> Pipe_dev.writable p
  | Proc.Sock_listen port -> Netstack.pending_accept k.Kernel.net ~port
  | Proc.Sock_conn conn -> Netstack.conn_readable k.Kernel.net ~conn

let wq_of_fd k proc fd =
  match Proc.find_fd proc fd with
  | Some (Proc.Pipe_read p) -> Some (Pipe_dev.read_wq p)
  | Some (Proc.Pipe_write p) -> Some (Pipe_dev.write_wq p)
  | Some (Proc.Sock_listen port) -> Netstack.listen_wq k.Kernel.net ~port
  | Some (Proc.Sock_conn conn) -> Netstack.conn_wq k.Kernel.net ~conn
  | Some (Proc.File _ | Proc.Console_out) | None -> None

let poll_scan k proc fds =
  Kmem.fn_entry k.Kernel.kmem;
  Kmem.work k.Kernel.kmem (10 + (8 * List.length fds));
  List.filter
    (fun fd ->
      match Proc.find_fd proc fd with
      | None -> true (* closed while polled: ready, the op reports EBADF *)
      | Some kind -> fd_ready k kind)
    fds

(* poll: level-triggered readiness over a descriptor set.  An empty set
   returns immediately; otherwise, when nothing is ready and a
   scheduler is driving us, sleep on every descriptor's waitqueue and
   re-scan on wakeup.  Without a scheduler it degrades to one scan
   (the historical non-blocking contract). *)
let poll_body k proc fds =
  let rec loop () =
    let ready = poll_scan k proc fds in
    if ready <> [] || fds = [] then Ok ready
    else begin
      let sub = Waitq.subscribe (List.filter_map (wq_of_fd k proc) fds) in
      if k.Kernel.block () then begin
        if not (Waitq.signalled sub) then Kmem.work k.Kernel.kmem 4;
        loop ()
      end
      else Ok []
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* The submission ring                                                 *)

(* One trap, many dispatches.  The ring lives in traditional user
   memory ([Syscall_ring] fixes the layout); the kernel pays the trap
   protocol once for [ring_enter], then runs up to [to_submit] queued
   entries through {!Dispatch.run}, writing each ABI-encoded result to
   the completion ring.  Entry buffers pointing into ghost memory meet
   exactly the same fate as in a direct call: the instrumented
   accessors mask the address, the masked access faults, and the data
   never moves.

   A process with a syscall-flow policy gets the whole batch vetted
   before any entry executes ({!Dispatch.precheck}): the submitted
   sequence — intra-batch transitions included — must be in-policy, or
   the process is killed, zero entries are consumed and no completion
   is written.  The per-entry policy charge is paid once in the
   precheck, so the executing entries commit for free. *)
let ring_enter_body k proc ~ring ~depth ~to_submit =
  if depth <= 0 || depth > 4096 || to_submit < 0 then Error Errno.EINVAL
  else if not (Layout.in_user ring) then Error Errno.EFAULT
  else begin
    let module R = Syscall_ring in
    let hdr = copyin k proc ~src:ring ~len:R.header_bytes in
    let sq_head = Int64.to_int (Bytes.get_int64_le hdr R.sq_head_off) in
    let sq_tail = Int64.to_int (Bytes.get_int64_le hdr R.sq_tail_off) in
    let cq_tail = Int64.to_int (Bytes.get_int64_le hdr R.cq_tail_off) in
    if sq_tail - sq_head < 0 || sq_tail - sq_head > depth then Error Errno.EINVAL
    else begin
      let n = min to_submit (sq_tail - sq_head) in
      let field at v =
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0 (Int64.of_int v);
        copyout k proc ~dst:(Int64.add ring (Int64.of_int at)) b
      in
      let read_sqe i =
        let sq_slot = R.slot_of ~depth (sq_head + i) in
        let raw =
          copyin k proc
            ~src:(Int64.add ring (Int64.of_int (R.sqe_off ~depth ~slot:sq_slot)))
            ~len:R.sqe_bytes
        in
        R.read_sqe raw ~off:0
      in
      (* Per-entry dispatch: the short in-kernel path that replaces a
         full trap.  Charged to its own tag so the benchmark can show
         where the batched path spends its cycles. *)
      let charge_entry (sqe : R.sqe) =
        k.Kernel.syscall_count <- k.Kernel.syscall_count + 1;
        Kmem.fn_entry k.Kernel.kmem;
        Machine.charge ~tag:Obs.Tag.Ring k.Kernel.machine 30;
        if Machine.tracing k.Kernel.machine then
          let name =
            match Syscall_abi.Sysno.of_int sqe.R.sysno with
            | Some s -> "ring:" ^ Syscall_abi.Sysno.to_name s
            | None -> "ring:?"
          in
          Machine.emit k.Kernel.machine
            (Obs.Event.Syscall { name; pid = proc.Proc.pid })
      in
      let complete i (sqe : R.sqe) result =
        let cbuf = Bytes.create R.cqe_bytes in
        R.write_cqe cbuf ~off:0 { R.user_data = sqe.R.user_data; result };
        let cq_slot = R.slot_of ~depth (cq_tail + i) in
        copyout k proc
          ~dst:(Int64.add ring (Int64.of_int (R.cqe_off ~depth ~slot:cq_slot)))
          cbuf
      in
      let publish () =
        (* Publish the kernel-owned counters (the user owns sq_tail and
           cq_head; only our two fields are written back). *)
        field R.sq_head_off (sq_head + n);
        field R.cq_tail_off (cq_tail + n);
        Ok n
      in
      match proc.Proc.policy with
      | None ->
          (* Unprofiled: the historical per-entry loop, charge for
             charge — sfip-off cycles stay byte-identical. *)
          for i = 0 to n - 1 do
            let sqe = read_sqe i in
            charge_entry sqe;
            complete i sqe
              (Dispatch.run k proc ~origin:Dispatch.Ring ~sysno:sqe.R.sysno
                 sqe.R.args)
          done;
          publish ()
      | Some _ -> (
          let sqes = Array.init n read_sqe in
          (* The batch's policy-relevant projection: entries the
             dispatch will actually judge.  Invalid numbers and nested
             ring_enter fall straight to [ENOSYS] without moving the
             cursor, so the scan skips them the same way. *)
          let relevant =
            Array.of_list
              (List.filter_map
                 (fun (sqe : R.sqe) ->
                   match Syscall_abi.Sysno.of_int sqe.R.sysno with
                   | Some s
                     when not (Syscall_abi.Sysno.equal s Syscall_abi.sys_ring_enter)
                     ->
                       Some s
                   | Some _ | None -> None)
                 (Array.to_list sqes))
          in
          match Dispatch.precheck k proc relevant with
          | Error e -> Error e
          | Ok () ->
              Array.iteri
                (fun i sqe ->
                  charge_entry sqe;
                  complete i sqe
                    (Dispatch.run k proc ~origin:Dispatch.Ring ~prechecked:true
                       ~sysno:sqe.R.sysno sqe.R.args))
                sqes;
              publish ())
    end
  end

(* ------------------------------------------------------------------ *)
(* Typed wrappers: one trap around the unified dispatch                *)

let via k proc ~sysno args =
  let name = Syscall_abi.Sysno.to_name sysno in
  trap k proc ~name ~encode:ret_int (fun () ->
      Syscall_abi.decode_int
        (Dispatch.run k proc ~origin:Dispatch.Trap
           ~sysno:(Syscall_abi.Sysno.to_int sysno) args))

let via_unit k proc ~sysno args =
  let name = Syscall_abi.Sysno.to_name sysno in
  trap k proc ~name ~encode:ret_unit (fun () ->
      Result.map
        (fun (_ : int) -> ())
        (Syscall_abi.decode_int
           (Dispatch.run k proc ~origin:Dispatch.Trap
              ~sysno:(Syscall_abi.Sysno.to_int sysno) args)))

let i64 = Int64.of_int

let read k proc ~fd ~buf ~len =
  via k proc ~sysno:Syscall_abi.sys_read [| i64 fd; buf; i64 len |]

let write k proc ~fd ~buf ~len =
  via k proc ~sysno:Syscall_abi.sys_write [| i64 fd; buf; i64 len |]

let close k proc fd = via_unit k proc ~sysno:Syscall_abi.sys_close [| i64 fd |]

let lseek k proc ~fd ~pos =
  via k proc ~sysno:Syscall_abi.sys_lseek [| i64 fd; i64 pos |]

let dup2 k proc ~src ~dst =
  via_unit k proc ~sysno:Syscall_abi.sys_dup2 [| i64 src; i64 dst |]

let fsync k proc = via_unit k proc ~sysno:Syscall_abi.sys_fsync [||]

let getpid k proc =
  trap k proc ~name:"getpid"
    ~encode:(fun n -> Int64.of_int n)
    (fun () ->
      match
        Syscall_abi.decode_int
          (Dispatch.run k proc ~origin:Dispatch.Trap
             ~sysno:(Syscall_abi.Sysno.to_int Syscall_abi.sys_getpid) [||])
      with
      | Ok pid -> pid
      | Error e -> -Errno.to_int e)

let munmap k proc ~addr ~len =
  via_unit k proc ~sysno:Syscall_abi.sys_munmap [| addr; i64 len |]

let allocgm k proc ~va ~pages =
  via_unit k proc ~sysno:Syscall_abi.sys_allocgm [| va; i64 pages |]

let freegm k proc ~va ~pages =
  via_unit k proc ~sysno:Syscall_abi.sys_freegm [| va; i64 pages |]

let signal k proc ~signum ~handler =
  via_unit k proc ~sysno:Syscall_abi.sys_signal [| i64 signum; handler |]

let sigreturn k proc = via_unit k proc ~sysno:Syscall_abi.sys_sigreturn [||]

let listen k proc ~port =
  via k proc ~sysno:Syscall_abi.sys_listen [| i64 port |]

let accept k proc ~fd = via k proc ~sysno:Syscall_abi.sys_accept [| i64 fd |]

let connect_to k proc addr =
  via k proc ~sysno:Syscall_abi.sys_connect [| Netstack.addr_to_wire addr |]

let connect k proc ~port = connect_to k proc (Netstack.Local port)

let send k proc ~fd ~buf ~len =
  via k proc ~sysno:Syscall_abi.sys_send [| i64 fd; buf; i64 len |]

let recv k proc ~fd ~buf ~len =
  via k proc ~sysno:Syscall_abi.sys_recv [| i64 fd; buf; i64 len |]

let set_blocking k proc ~fd on =
  via_unit k proc ~sysno:Syscall_abi.sys_set_blocking
    [| i64 fd; (if on then 1L else 0L) |]

let mmap k proc ~len =
  trap k proc ~name:"mmap"
    ~encode:(fun r -> Syscall_abi.encode_addr r)
    (fun () ->
      Syscall_abi.decode_addr
        (Dispatch.run k proc ~origin:Dispatch.Trap
           ~sysno:(Syscall_abi.Sysno.to_int Syscall_abi.sys_mmap) [| i64 len |]))

let ring_enter k proc ~ring ~depth ~to_submit =
  via k proc ~sysno:Syscall_abi.sys_ring_enter
    [| ring; i64 depth; i64 to_submit |]

(* ------------------------------------------------------------------ *)
(* Path- and struct-carrying syscalls (typed only: their arguments do
   not fit syscall registers in this simulation)                       *)

(* These never reach [Dispatch.run], so the syscall-flow gate is
   applied here, inside the trap, at the same point the numbered path
   would check it.  Unprofiled processes pay nothing. *)
let guarded k proc sysno body =
  match Dispatch.guard k proc ~origin:Dispatch.Trap sysno with
  | Error e -> Error e
  | Ok () -> body ()

let open_ k proc path flags =
  trap k proc ~name:"open" ~encode:ret_int (fun () ->
      guarded k proc Syscall_abi.sys_open @@ fun () ->
      Kmem.fn_entry k.Kernel.kmem;
      path_charge k path;
      let resolved = Diskfs.lookup k.Kernel.fs path in
      let ino_result =
        match (resolved, flags.create) with
        | Ok ino, _ -> Ok ino
        | Error Errno.ENOENT, true -> Diskfs.create k.Kernel.fs path
        | (Error _ as e), _ -> e
      in
      match ino_result with
      | Error e -> Error e
      | Ok ino -> (
          match Diskfs.stat k.Kernel.fs ~ino with
          | Error e -> Error e
          | Ok st ->
              if st.Diskfs.itype = Diskfs.Dir then Error Errno.EISDIR
              else begin
                if flags.truncate then
                  ignore (Diskfs.truncate k.Kernel.fs ~ino ~len:0);
                let offset = if flags.append then st.Diskfs.size else 0 in
                Ok (Proc.add_fd proc (Proc.File { ino; offset }))
              end))

let unlink k proc path =
  trap k proc ~name:"unlink" ~encode:ret_unit (fun () ->
      guarded k proc Syscall_abi.sys_unlink @@ fun () ->
      Kmem.fn_entry k.Kernel.kmem;
      path_charge k path;
      Diskfs.unlink k.Kernel.fs path)

let mkdir k proc path =
  trap k proc ~name:"mkdir" ~encode:ret_unit (fun () ->
      guarded k proc Syscall_abi.sys_mkdir @@ fun () ->
      path_charge k path;
      match Diskfs.mkdir k.Kernel.fs path with Ok _ -> Ok () | Error e -> Error e)

let stat k proc path =
  trap k proc ~name:"stat" ~encode:ret_any (fun () ->
      guarded k proc Syscall_abi.sys_stat @@ fun () ->
      path_charge k path;
      match Diskfs.lookup k.Kernel.fs path with
      | Error e -> Error e
      | Ok ino -> Diskfs.stat k.Kernel.fs ~ino)

let rename k proc ~src ~dst =
  trap k proc ~name:"rename" ~encode:ret_unit (fun () ->
      guarded k proc Syscall_abi.sys_rename @@ fun () ->
      Kmem.fn_entry k.Kernel.kmem;
      path_charge k src;
      path_charge k dst;
      Diskfs.rename k.Kernel.fs ~src ~dst)

let fstat k proc ~fd =
  trap k proc ~name:"fstat" ~encode:ret_any (fun () ->
      guarded k proc Syscall_abi.sys_fstat @@ fun () ->
      Kmem.work k.Kernel.kmem 15;
      match Proc.find_fd proc fd with
      | Some (Proc.File f) -> Diskfs.stat k.Kernel.fs ~ino:f.ino
      | Some _ -> Error Errno.EINVAL
      | None -> Error Errno.EBADF)

let readdir k proc path =
  trap k proc ~name:"readdir" ~encode:ret_any (fun () ->
      guarded k proc Syscall_abi.sys_readdir @@ fun () ->
      path_charge k path;
      match Diskfs.lookup k.Kernel.fs path with
      | Error e -> Error e
      | Ok ino -> Diskfs.readdir k.Kernel.fs ~ino)

(* ------------------------------------------------------------------ *)
(* Processes                                                           *)

exception Fork_out_of_memory

let fork k proc =
  trap k proc ~name:"fork" ~encode:(function Ok (c : Proc.t) -> Int64.of_int c.Proc.pid | Error e -> Int64.of_int (-Errno.to_int e))
    (fun () ->
      guarded k proc Syscall_abi.sys_fork @@ fun () ->
      match Kernel.create_process k ~parent:proc with
      | Error e -> Error e
      | Ok child -> (
          try
            (* Share the traditional user address space copy-on-write:
               both sides' PTEs drop to read-only; the first write to a
               shared page copies it (handle_page_fault). *)
            Hashtbl.iter
              (fun vpage frame ->
                let va = Int64.shift_left vpage 12 in
                Kmem.work k.Kernel.kmem 40;
                Kernel.share_frame k frame;
                (match Sva.protect_page k.Kernel.sva proc.Proc.pt ~va ~perm:Kernel.user_ro with
                | Ok () | Error _ -> ());
                (match
                   Sva.map_page k.Kernel.sva child.Proc.pt ~va ~frame ~perm:Kernel.user_ro
                 with
                | Ok () ->
                    Hashtbl.replace child.Proc.user_frames vpage frame;
                    Hashtbl.replace proc.Proc.cow vpage ();
                    Hashtbl.replace child.Proc.cow vpage ()
                | Error _ -> raise Fork_out_of_memory))
              proc.Proc.user_frames;
            Machine.flush_tlb k.Kernel.machine;
            (* Descriptors are shared objects; reference counts track
               pipe endpoints. *)
            Hashtbl.iter
              (fun fd kind ->
                (match kind with
                | Proc.Pipe_read p -> Pipe_dev.add_reader p
                | Proc.Pipe_write p -> Pipe_dev.add_writer p
                | Proc.File _ | Proc.Sock_listen _ | Proc.Sock_conn _ | Proc.Console_out
                  -> ());
                Hashtbl.replace child.Proc.fds fd kind)
              proc.Proc.fds;
            child.Proc.next_fd <- proc.Proc.next_fd;
            Hashtbl.iter
              (fun s h -> Hashtbl.replace child.Proc.signal_handlers s h)
              proc.Proc.signal_handlers;
            Hashtbl.iter
              (fun a c -> Hashtbl.replace child.Proc.code_map a c)
              proc.Proc.code_map;
            child.Proc.image <- proc.Proc.image;
            child.Proc.mmap_cursor <- proc.Proc.mmap_cursor;
            (* The child shares the parent's flow graph but holds its
               own cursor, starting in the entry state — exactly what a
               recorded profile observed for forked workers. *)
            child.Proc.policy <-
              Option.map
                (fun pol ->
                  Syscall_policy.create (Syscall_policy.mode pol)
                    (Syscall_policy.graph pol))
                proc.Proc.policy;
            Kmem.work k.Kernel.kmem 400;
            Machine.charge ~tag:Obs.Tag.Kernel_work k.Kernel.machine 300;
            Ok child
          with Fork_out_of_memory -> Error Errno.ENOMEM))

let text_base = 0x0000_0000_0040_0000L

let execve k proc image =
  trap k proc ~name:"execve" ~encode:ret_unit (fun () ->
      guarded k proc Syscall_abi.sys_execve @@ fun () ->
      Kmem.fn_entry k.Kernel.kmem;
      Kmem.work k.Kernel.kmem 600;
      Machine.charge ~tag:Obs.Tag.Kernel_work k.Kernel.machine 600;
      (* Load the text segment into user memory. *)
      let payload = image.Appimage.payload in
      (match Kernel.ensure_user_range k proc text_base ~len:(Bytes.length payload) with
      | Ok () -> Kmem.write_bytes k.Kernel.kmem text_base payload
      | Error _ -> ());
      match
        Sva.reinit_icontext k.Kernel.sva ~tid:proc.Proc.tid ~pt:proc.Proc.pt ~image
          ~stack:0x7fff_f000L
      with
      | Error msg ->
          Console.write (Machine.console k.Kernel.machine) ("execve refused: " ^ msg);
          Error Errno.EACCES
      | Ok (_key, freed_ghost_frames) ->
          List.iter (Frame_alloc.free k.Kernel.frames) freed_ghost_frames;
          proc.Proc.ghost_regions <- [];
          Hashtbl.reset proc.Proc.signal_handlers;
          Hashtbl.reset proc.Proc.code_map;
          proc.Proc.image <- Some image;
          (* The fresh program gets the policy its signed image
             carries: the profile bytes were covered by the signature
             the VM just verified, so the OS could not have swapped in
             a permissive graph.  Unprofiled images clear any policy
             (a new program, a new contract). *)
          proc.Proc.policy <- Syscall_policy.of_profile image.Appimage.profile;
          Ok ())

let exit_ k proc status =
  (* exit never returns to the caller, so it does not run the normal
     result/return epilogue (its thread is gone by then). *)
  Kernel.switch_to k proc;
  k.Kernel.syscall_count <- k.Kernel.syscall_count + 1;
  Sva.enter_trap k.Kernel.sva ~tid:proc.Proc.tid;
  if Machine.tracing k.Kernel.machine then
    Machine.emit k.Kernel.machine
      (Obs.Event.Syscall { name = "exit"; pid = proc.Proc.pid });
  (fun () ->
      Kmem.fn_entry k.Kernel.kmem;
      Kmem.work k.Kernel.kmem 300;
      (* Close descriptors. *)
      Hashtbl.iter
        (fun _ kind ->
          match kind with
          | Proc.Pipe_read p -> Pipe_dev.drop_reader p
          | Proc.Pipe_write p -> Pipe_dev.drop_writer p
          | Proc.Sock_conn conn -> Netstack.close k.Kernel.net ~conn
          | Proc.File _ | Proc.Sock_listen _ | Proc.Console_out -> ())
        proc.Proc.fds;
      Hashtbl.reset proc.Proc.fds;
      (* Release ghost memory through the VM (swapped-out pages of the
         regions are invalidated rather than returned), then drop any
         blobs the process left in the swap store. *)
      List.iter
        (fun (va, pages) ->
          match Sva.freegm k.Kernel.sva ~pid:proc.Proc.pid ~pt:proc.Proc.pt ~va ~count:pages with
          | Ok frames -> List.iter (Frame_alloc.free k.Kernel.frames) frames
          | Error _ -> ())
        proc.Proc.ghost_regions;
      Ghost_swap.release_blobs k proc;
      proc.Proc.ghost_regions <- [];
      Kernel.free_user_pages k proc;
      Sva.release_address_space k.Kernel.sva proc.Proc.pt;
      Sva.free_thread k.Kernel.sva ~tid:proc.Proc.tid;
      proc.Proc.state <- Proc.Zombie status;
      (* Parents sleeping in wait observe the exit. *)
      Waitq.wake k.Kernel.child_wq)
    ()

let wait ?(block = false) k proc =
  trap k proc ~name:"wait" ~encode:(function Ok (pid, _) -> Int64.of_int pid | Error e -> Int64.of_int (-Errno.to_int e))
    (fun () -> guarded k proc Syscall_abi.sys_wait @@ fun () -> wait_body ~block k proc)

(* ------------------------------------------------------------------ *)
(* Signals (typed kill defers delivery to the return path)             *)

let kill k proc ~pid ~signum =
  (* Delivery is deferred to the return path so that, for a
     self-signal, the syscall result lands in the interrupted context
     rather than in the handler's fresh one. *)
  let pending = ref None in
  trap k proc ~name:"kill" ~encode:ret_unit
    ~after_result:(fun () ->
      match !pending with
      | Some target -> deliver_signal k target signum
      | None -> ())
    (fun () ->
      guarded k proc Syscall_abi.sys_kill @@ fun () ->
      match kill_find_target k ~pid with
      | Error _ as e -> e
      | Ok target ->
          pending := Some target;
          Ok ())

(* ------------------------------------------------------------------ *)
(* Pipes, select, poll                                                 *)

let pipe k proc =
  trap k proc ~name:"pipe" ~encode:(function Ok (r, _) -> Int64.of_int r | Error e -> Int64.of_int (-Errno.to_int e))
    (fun () ->
      guarded k proc Syscall_abi.sys_pipe @@ fun () ->
      Kmem.work k.Kernel.kmem 50;
      let p = Pipe_dev.create () in
      Pipe_dev.add_reader p;
      Pipe_dev.add_writer p;
      let r = Proc.add_fd proc (Proc.Pipe_read p) in
      let w = Proc.add_fd proc (Proc.Pipe_write p) in
      Ok (r, w))

let select k proc fds =
  trap k proc ~name:"select" ~encode:(fun r ->
      match r with Ok ready -> Int64.of_int (List.length ready) | Error e -> Int64.of_int (-Errno.to_int e))
    (fun () -> guarded k proc Syscall_abi.sys_select @@ fun () -> Ok (poll_scan k proc fds))

let poll k proc fds =
  trap k proc ~name:"poll" ~encode:(fun r ->
      match r with Ok ready -> Int64.of_int (List.length ready) | Error e -> Int64.of_int (-Errno.to_int e))
    (fun () -> guarded k proc Syscall_abi.sys_poll @@ fun () -> poll_body k proc fds)

(* ------------------------------------------------------------------ *)
(* Built-in kernel API for modules                                     *)

let register_builtin_externs (k : Kernel.t) =
  let reg name f = Hashtbl.replace k.Kernel.module_externs name f in
  reg "extern.genuine_read" (fun k proc args ->
      ret_int
        (genuine_read_unwrapped k proc ~fd:(Int64.to_int args.(0)) ~buf:args.(1)
           ~len:(Int64.to_int args.(2))));
  (* klog(ptr, len): print kernel-readable memory to the system log.
     This is an instrumented kernel helper: it reads through Kmem. *)
  reg "extern.klog" (fun k _proc args ->
      let len = min 256 (Int64.to_int args.(1)) in
      let data = Kmem.read_bytes k.Kernel.kmem args.(0) ~len in
      let printable =
        String.map (fun c -> if c >= ' ' && c <= '~' then c else '.') (Bytes.to_string data)
      in
      Console.write (Machine.console k.Kernel.machine) ("module: " ^ printable);
      0L);
  (* kmmap(pid, len): map anonymous memory in some process. *)
  reg "extern.kmmap" (fun k _proc args ->
      match Kernel.find_proc k (Int64.to_int args.(0)) with
      | None -> 0L
      | Some target ->
          let len = Int64.to_int args.(1) in
          let va = target.Proc.mmap_cursor in
          target.Proc.mmap_cursor <- Int64.add va (Int64.of_int (round_up_pages len + 4096));
          (match Kernel.ensure_user_range k target va ~len with
          | Ok () -> va
          | Error _ -> 0L));
  (* signal_install(pid, signum, handler): poke a handler straight into
     a victim's table, bypassing the registration wrappers. *)
  reg "extern.signal_install" (fun k _proc args ->
      match Kernel.find_proc k (Int64.to_int args.(0)) with
      | None -> -1L
      | Some target ->
          Hashtbl.replace target.Proc.signal_handlers (Int64.to_int args.(1)) args.(2);
          0L);
  (* kill(pid, signum): in-kernel signal delivery. *)
  reg "extern.kill" (fun k _proc args ->
      match Kernel.find_proc k (Int64.to_int args.(0)) with
      | None -> -1L
      | Some target ->
          deliver_signal k target (Int64.to_int args.(1));
          0L);
  (* open_exfil(pid): open /exfil for writing in a victim's fd table. *)
  reg "extern.genuine_mmap" (fun k proc args ->
      match genuine_mmap k proc ~len:(Int64.to_int args.(0)) with
      | Ok va -> va
      | Error _ -> 0L);
  reg "extern.open_exfil" (fun k _proc args ->
      match Kernel.find_proc k (Int64.to_int args.(0)) with
      | None -> -1L
      | Some target -> (
          let ino_result =
            match Diskfs.lookup k.Kernel.fs "/exfil" with
            | Ok ino -> Ok ino
            | Error Errno.ENOENT -> Diskfs.create k.Kernel.fs "/exfil"
            | Error _ as e -> e
          in
          match ino_result with
          | Error _ -> -1L
          | Ok ino -> Int64.of_int (Proc.add_fd target (Proc.File { ino; offset = 0 }))))

(* ------------------------------------------------------------------ *)
(* SFIP kill teardown                                                  *)

(* An out-of-policy process dies like [exit_ 137], with one deliberate
   difference: the SVA thread and address-space registration stay
   alive.  The kill happens mid-trap — the caller's epilogue still has
   to write the [ESFIP] result into the saved context and return from
   the trap — and any later syscall the doomed closure attempts must
   refuse cleanly ([killed] short-circuits in the gate) instead of
   faulting on a freed thread. *)
let policy_kill k (proc : Proc.t) =
  if not (Proc.is_zombie proc) then begin
    Kmem.work k.Kernel.kmem 300;
    Hashtbl.iter
      (fun _ kind ->
        match kind with
        | Proc.Pipe_read p -> Pipe_dev.drop_reader p
        | Proc.Pipe_write p -> Pipe_dev.drop_writer p
        | Proc.Sock_conn conn -> Netstack.close k.Kernel.net ~conn
        | Proc.File _ | Proc.Sock_listen _ | Proc.Console_out -> ())
      proc.Proc.fds;
    Hashtbl.reset proc.Proc.fds;
    List.iter
      (fun (va, pages) ->
        match
          Sva.freegm k.Kernel.sva ~pid:proc.Proc.pid ~pt:proc.Proc.pt ~va
            ~count:pages
        with
        | Ok frames -> List.iter (Frame_alloc.free k.Kernel.frames) frames
        | Error _ -> ())
      proc.Proc.ghost_regions;
    Ghost_swap.release_blobs k proc;
    proc.Proc.ghost_regions <- [];
    Kernel.free_user_pages k proc;
    proc.Proc.state <- Proc.Zombie 137;
    Waitq.wake k.Kernel.child_wq
  end

(* ------------------------------------------------------------------ *)
(* Entry registration                                                  *)

(* Every numbered entry point, as a first-class [Syscall_abi.Entry].
   Handlers mirror the bodies above; [None] handlers are the
   typed-only syscalls (paths, struct results, process handles) that
   cannot be addressed by number in this simulation — registering them
   anyway keeps the table total, so [Dispatch.entries] and the ABI
   bijection tests cover all of them. *)
let () =
  Dispatch.on_kill := policy_kill;
  let module A = Syscall_abi in
  let reg sysno h = Dispatch.register (A.Entry.make sysno h) in
  let arg (args : int64 array) n = if n < Array.length args then args.(n) else 0L in
  let iarg args n = Int64.to_int (arg args n) in
  let int_of r = Result.map Int64.of_int r in
  let unit_of r = Result.map (fun () -> 0L) r in
  (* read, write, send and recv take (fd, buf, len) and refuse a
     negative length before any copy or charge. *)
  let io body =
    Some
      (fun k proc a ->
        let len = iarg a 2 in
        if len < 0 then Error Errno.EINVAL
        else int_of (body k proc ~fd:(iarg a 0) ~buf:(arg a 1) ~len))
  in
  reg A.sys_read (io read_body);
  reg A.sys_write (io write_body);
  reg A.sys_open None;
  reg A.sys_close (Some (fun k proc a -> unit_of (close_body k proc (iarg a 0))));
  reg A.sys_lseek
    (Some (fun k proc a -> int_of (lseek_body k proc ~fd:(iarg a 0) ~pos:(iarg a 1))));
  reg A.sys_unlink None;
  reg A.sys_mkdir None;
  reg A.sys_stat None;
  reg A.sys_rename None;
  reg A.sys_fstat None;
  reg A.sys_dup2
    (Some
       (fun k proc a -> unit_of (dup2_body k proc ~src:(iarg a 0) ~dst:(iarg a 1))));
  reg A.sys_readdir None;
  reg A.sys_fsync (Some (fun k _proc _a -> unit_of (fsync_body k)));
  reg A.sys_getpid (Some (fun _k proc _a -> int_of (getpid_body proc)));
  reg A.sys_fork None;
  reg A.sys_execve None;
  reg A.sys_exit None;
  reg A.sys_wait
    (Some
       (fun k proc a ->
         int_of (Result.map fst (wait_body ~block:(iarg a 0 <> 0) k proc))));
  reg A.sys_mmap (Some (fun k proc a -> genuine_mmap k proc ~len:(iarg a 0)));
  reg A.sys_munmap
    (Some
       (fun k proc a ->
         unit_of (munmap_body k proc ~addr:(arg a 0) ~len:(iarg a 1))));
  reg A.sys_allocgm
    (Some
       (fun k proc a ->
         unit_of (allocgm_body k proc ~va:(arg a 0) ~pages:(iarg a 1))));
  reg A.sys_freegm
    (Some
       (fun k proc a ->
         unit_of (freegm_body k proc ~va:(arg a 0) ~pages:(iarg a 1))));
  reg A.sys_signal
    (Some
       (fun k proc a ->
         unit_of (signal_body k proc ~signum:(iarg a 0) ~handler:(arg a 1))));
  reg A.sys_kill
    (Some
       (fun k _proc a ->
         unit_of
           (Result.map
              (fun target ->
                (* In-ring delivery happens right after the handler:
                   the completion lands in the ring, not in the
                   interrupt context, so there is nothing to defer
                   around. *)
                deliver_signal k target (iarg a 1))
              (kill_find_target k ~pid:(iarg a 0)))));
  reg A.sys_sigreturn (Some (fun k proc _a -> unit_of (sigreturn_body k proc)));
  reg A.sys_pipe None;
  reg A.sys_listen (Some (fun k proc a -> int_of (listen_body k proc ~port:(iarg a 0))));
  reg A.sys_accept (Some (fun k proc a -> int_of (accept_body k proc ~fd:(iarg a 0))));
  reg A.sys_connect
    (Some (fun k proc a -> int_of (connect_body k proc (Netstack.addr_of_wire a.(0)))));
  reg A.sys_send (io send_body);
  reg A.sys_recv (io recv_body);
  reg A.sys_select None;
  reg A.sys_poll None;
  reg A.sys_set_blocking
    (Some
       (fun k proc a ->
         unit_of (set_blocking_body k proc ~fd:(iarg a 0) (iarg a 1 <> 0))));
  reg A.sys_ring_enter
    (Some
       (fun k proc a ->
         int_of
           (ring_enter_body k proc ~ring:(arg a 0) ~depth:(iarg a 1)
              ~to_submit:(iarg a 2))))
