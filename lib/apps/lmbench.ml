let measure ctx ~iterations f =
  let machine = ctx.Runtime.kernel.Kernel.machine in
  let start = Machine.cycles machine in
  for i = 0 to iterations - 1 do
    f i
  done;
  Cost.to_microseconds (Machine.cycles machine - start) /. float_of_int iterations

let per_second us = if us <= 0.0 then 0.0 else 1e6 /. us

let null_syscall ctx ~iterations =
  let k = ctx.Runtime.kernel and proc = ctx.Runtime.proc in
  measure ctx ~iterations (fun _ -> ignore (Syscalls.getpid k proc))

let open_close ctx ~iterations =
  let k = ctx.Runtime.kernel and proc = ctx.Runtime.proc in
  (match Syscalls.open_ k proc "/lmbench-target" Syscalls.creat_trunc with
  | Ok fd -> ignore (Syscalls.close k proc fd)
  | Error _ -> ());
  measure ctx ~iterations (fun _ ->
      match Syscalls.open_ k proc "/lmbench-target" Syscalls.rdonly with
      | Ok fd -> ignore (Syscalls.close k proc fd)
      | Error _ -> ())

let mmap_bench ctx ~iterations =
  let k = ctx.Runtime.kernel and proc = ctx.Runtime.proc in
  measure ctx ~iterations (fun _ ->
      match Syscalls.mmap k proc ~len:65536 with
      | Ok va ->
          Runtime.poke ctx va (Bytes.make 8 'x');
          ignore (Syscalls.munmap k proc ~addr:va ~len:65536)
      | Error _ -> ())

(* Each iteration touches a page the process has never mapped, the
   next one up from [fault_base], so the demand-paging path runs every
   time. *)
let fault_base = 0x0000_0000_2000_0000L

let page_fault ctx ~iterations =
  let k = ctx.Runtime.kernel and proc = ctx.Runtime.proc in
  let va = ref fault_base in
  let mapped va = Hashtbl.mem proc.Proc.user_frames (Int64.shift_right_logical va 12) in
  measure ctx ~iterations (fun _ ->
      while mapped !va do
        va := Int64.add !va 4096L
      done;
      match Kernel.handle_page_fault k proc !va with Ok () | Error _ -> ())

let signal_install ctx ~iterations =
  measure ctx ~iterations (fun i ->
      ignore (Runtime.sys_signal ctx ~signum:(30 + (i mod 2)) (fun _ _ -> ())))

let signal_delivery ctx ~iterations =
  let fired = ref 0 in
  (match Runtime.sys_signal ctx ~signum:10 (fun _ _ -> incr fired) with
  | Ok () -> ()
  | Error _ -> ());
  let self = ctx.Runtime.proc.Proc.pid in
  measure ctx ~iterations (fun _ ->
      ignore (Runtime.sys_kill ctx ~pid:self ~signum:10);
      Runtime.check_signals ctx)

let fork_exit ctx ~iterations =
  let k = ctx.Runtime.kernel and proc = ctx.Runtime.proc in
  measure ctx ~iterations (fun _ ->
      match Syscalls.fork k proc with
      | Ok child ->
          Syscalls.exit_ k child 0;
          ignore (Syscalls.wait k proc)
      | Error _ -> ())

let fork_exec ctx ~image ~iterations =
  let k = ctx.Runtime.kernel and proc = ctx.Runtime.proc in
  measure ctx ~iterations (fun _ ->
      match Syscalls.fork k proc with
      | Ok child ->
          ignore (Syscalls.execve k child image);
          Syscalls.exit_ k child 0;
          ignore (Syscalls.wait k proc)
      | Error _ -> ())

let select_10 ctx ~iterations =
  let k = ctx.Runtime.kernel and proc = ctx.Runtime.proc in
  let fds =
    List.concat_map
      (fun _ -> match Syscalls.pipe k proc with Ok (r, _) -> [ r ] | Error _ -> [])
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
  in
  measure ctx ~iterations (fun _ -> ignore (Syscalls.select k proc fds))

let pipe_latency ctx ~iterations =
  let k = ctx.Runtime.kernel and proc = ctx.Runtime.proc in
  match Syscalls.pipe k proc with
  | Error _ -> 0.0
  | Ok (r, w) ->
      let buf = Runtime.ualloc ctx 8 in
      Runtime.poke ctx buf (Bytes.make 1 '!');
      measure ctx ~iterations (fun _ ->
          ignore (Syscalls.write k proc ~fd:w ~buf ~len:1);
          ignore (Syscalls.read k proc ~fd:r ~buf ~len:1))

let pipe_bandwidth ctx ~iterations =
  let k = ctx.Runtime.kernel and proc = ctx.Runtime.proc in
  match Syscalls.pipe k proc with
  | Error _ -> 0.0
  | Ok (r, w) ->
      let chunk = 65536 in
      let buf = Runtime.ualloc ctx chunk in
      Runtime.poke ctx buf (Bytes.make chunk 'x');
      let machine = ctx.Runtime.kernel.Kernel.machine in
      let start = Machine.cycles machine in
      for _ = 1 to iterations do
        ignore (Syscalls.write k proc ~fd:w ~buf ~len:chunk);
        ignore (Syscalls.read k proc ~fd:r ~buf ~len:chunk)
      done;
      let seconds = Cost.to_seconds (Machine.cycles machine - start) in
      float_of_int (iterations * chunk) /. 1048576.0 /. seconds

let context_switch ctx ~iterations =
  let k = ctx.Runtime.kernel and proc = ctx.Runtime.proc in
  match Syscalls.fork k proc with
  | Error _ -> 0.0
  | Ok child ->
      let result =
        measure ctx ~iterations (fun i ->
            Kernel.switch_to k (if i mod 2 = 0 then child else proc))
      in
      Kernel.switch_to k proc;
      Syscalls.exit_ k child 0;
      ignore (Syscalls.wait k proc);
      result

let file_create ctx ~size ~iterations =
  let k = ctx.Runtime.kernel and proc = ctx.Runtime.proc in
  let buf = Runtime.galloc ctx (max 8 size) in
  measure ctx ~iterations (fun i ->
      let path = Printf.sprintf "/lm-c-%d-%d" size i in
      match Syscalls.open_ k proc path Syscalls.creat_trunc with
      | Ok fd ->
          if size > 0 then ignore (Syscalls.write k proc ~fd ~buf ~len:size);
          ignore (Syscalls.close k proc fd)
      | Error _ -> ())

let file_delete ctx ~size ~iterations =
  let k = ctx.Runtime.kernel and proc = ctx.Runtime.proc in
  let buf = Runtime.galloc ctx (max 8 size) in
  (* Pre-create the population outside the timed region. *)
  for i = 0 to iterations - 1 do
    let path = Printf.sprintf "/lm-d-%d-%d" size i in
    match Syscalls.open_ k proc path Syscalls.creat_trunc with
    | Ok fd ->
        if size > 0 then ignore (Syscalls.write k proc ~fd ~buf ~len:size);
        ignore (Syscalls.close k proc fd)
    | Error _ -> ()
  done;
  measure ctx ~iterations (fun i ->
      ignore (Syscalls.unlink k proc (Printf.sprintf "/lm-d-%d-%d" size i)))
