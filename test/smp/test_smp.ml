(* SMP tests: the multi-core machine (per-core clocks, timers, TLB
   shootdown IPIs), spinlocks, SVA-mediated context switching, the
   preemptive scheduler (including the preemption-transparency
   property against a cooperative baseline), the multi-worker httpd
   pool, and per-kernel module-loader state. *)

let boot ?(mode = Sva.Virtual_ghost) ?(cpus = 1) ?(seed = "smp") () =
  Node.kernel
    (Node.boot
       Node_config.(
         default |> with_cpus cpus |> with_phys_frames 16384
         |> with_disk_sectors 32768 |> with_seed seed |> with_mode mode))

(* A bare machine (no kernel) for the machine and spinlock tests. *)
let machine ~cpus ~seed =
  Node_config.(
    default |> with_cpus cpus |> with_phys_frames 4096
    |> with_disk_sectors 4096 |> with_seed seed |> create_machine)

let expect_ok msg = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" msg (Errno.to_string e)

(* ------------------------------------------------------------------ *)
(* Machine: cores, timers, shootdowns                                  *)

let test_core_clocks () =
  let m = machine ~cpus:4 ~seed:"m" in
  Alcotest.(check int) "cpus" 4 (Machine.cpus m);
  Machine.charge m 100;
  Machine.switch_core m 2;
  Machine.charge m 250;
  Alcotest.(check int) "core0" 100 (Machine.core_cycles m 0);
  Alcotest.(check int) "core2" 250 (Machine.core_cycles m 2);
  Alcotest.(check int) "core1 untouched" 0 (Machine.core_cycles m 1);
  Alcotest.(check int) "wall clock = max" 250 (Machine.max_cycles m);
  Alcotest.check_raises "bad core" (Invalid_argument "Machine.switch_core")
    (fun () -> Machine.switch_core m 9)

let test_timer () =
  let m = machine ~cpus:2 ~seed:"m" in
  Machine.arm_timer m ~period:1000;
  Alcotest.(check bool) "not pending yet" false (Machine.timer_pending m);
  Machine.charge m 1500;
  Alcotest.(check bool) "pending after period" true (Machine.timer_pending m);
  (* Other core's timer is independent. *)
  Machine.switch_core m 1;
  Alcotest.(check bool) "core1 idle, not pending" false (Machine.timer_pending m);
  Machine.switch_core m 0;
  Machine.ack_timer m;
  Alcotest.(check bool) "acked" false (Machine.timer_pending m);
  Machine.disarm_timer m;
  Machine.charge m 10_000;
  Alcotest.(check bool) "disarmed" false (Machine.timer_pending m)

let test_tlb_shootdown_ipis () =
  let m = machine ~cpus:4 ~seed:"m" in
  let before = Machine.core_cycles m 3 in
  Machine.tlb_shootdown m;
  Alcotest.(check int) "remote got one IPI" 1 (Machine.ipis_received m 3);
  Alcotest.(check int) "sender got none" 0 (Machine.ipis_received m 0);
  Alcotest.(check bool) "remote paid delivery" true
    (Machine.core_cycles m 3 > before);
  (* 1-CPU machines have nobody to shoot down. *)
  let m1 = machine ~cpus:1 ~seed:"m" in
  Machine.tlb_shootdown m1;
  Alcotest.(check int) "no self IPI" 0 (Machine.ipis_received m1 0)

(* ------------------------------------------------------------------ *)
(* Spinlocks                                                           *)

let test_spinlock_transfer_charges () =
  let m = machine ~cpus:2 ~seed:"m" in
  let l = Spinlock.create m ~name:"t" in
  Spinlock.with_lock l (fun () -> ());
  Spinlock.with_lock l (fun () -> ());
  Alcotest.(check int) "same-core reacquire free" 0 (Spinlock.transfers l);
  Alcotest.(check int) "no cycles charged" 0 (Machine.core_cycles m 0);
  Machine.switch_core m 1;
  Spinlock.with_lock l (fun () -> ());
  Alcotest.(check int) "cross-core acquisition pays" 1 (Spinlock.transfers l);
  Alcotest.(check int) "cache-line transfer cost" Cost.lock_transfer
    (Machine.core_cycles m 1)

let test_spinlock_ownership () =
  let m = machine ~cpus:2 ~seed:"m" in
  let l = Spinlock.create m ~name:"own" in
  Spinlock.acquire l;
  Machine.switch_core m 1;
  (* Releasing from the wrong core is a kernel bug and must raise. *)
  (try
     Spinlock.release l;
     Alcotest.fail "non-owner release must raise"
   with Spinlock.Error _ -> ());
  (try
     Spinlock.acquire l;
     Alcotest.fail "acquiring a held lock must raise"
   with Spinlock.Error _ -> ());
  Machine.switch_core m 0;
  Spinlock.release l;
  (try
     Spinlock.release l;
     Alcotest.fail "double release must raise"
   with Spinlock.Error _ -> ())

(* Property: under arbitrary interleavings of acquire/release attempts
   from random cores, a release only ever succeeds on the owning core,
   and the lock is free iff the bookkeeping says so. *)
let prop_spinlock_owner =
  QCheck2.Test.make ~name:"spinlock never released by a non-owner" ~count:200
    QCheck2.Gen.(list_size (int_range 1 60) (pair (int_range 0 3) bool))
    (fun ops ->
      let m = machine ~cpus:4 ~seed:"q" in
      let l = Spinlock.create m ~name:"prop" in
      List.for_all
        (fun (core, is_acquire) ->
          Machine.switch_core m core;
          if is_acquire then
            match Spinlock.holder l with
            | None ->
                Spinlock.acquire l;
                Spinlock.holder l = Some core
            | Some _ -> (
                (* must refuse: lock already held *)
                match Spinlock.acquire l with
                | () -> false
                | exception Spinlock.Error _ -> true)
          else
            match Spinlock.holder l with
            | Some o when o = core ->
                Spinlock.release l;
                Spinlock.holder l = None
            | _ -> (
                match Spinlock.release l with
                | () -> false
                | exception Spinlock.Error _ -> true))
        ops)

(* ------------------------------------------------------------------ *)
(* SVA-mediated context switching                                      *)

let test_swap_integer_refuses_live_thread () =
  let k = boot ~cpus:2 () in
  let init = Kernel.init_process k in
  (* init's thread is live on cpu0 (installed at boot); a hostile
     scheduler resuming it on cpu1 as well must be refused. *)
  Machine.switch_core k.Kernel.machine 1;
  (match Sva.swap_integer k.Kernel.sva ~tid:init.Proc.tid with
  | Ok () -> Alcotest.fail "double-resume must be refused"
  | Error msg ->
      Alcotest.(check bool) "names the thread" true
        (String.length msg > 0));
  Alcotest.(check (option int)) "cpu1 runs nothing"
    None (Sva.running_on k.Kernel.sva ~cpu:1);
  (match Sva.swap_integer k.Kernel.sva ~tid:999 with
  | Ok () -> Alcotest.fail "unknown tid must be refused"
  | Error _ -> ())

let test_switch_to_tracks_percpu () =
  let k = boot ~cpus:2 () in
  let init = Kernel.init_process k in
  let child = expect_ok "fork" (Kernel.create_process k ~parent:init) in
  Machine.switch_core k.Kernel.machine 1;
  Kernel.switch_to k child;
  Alcotest.(check (option int)) "child live on cpu1" (Some child.Proc.tid)
    (Sva.running_on k.Kernel.sva ~cpu:1);
  Alcotest.(check (option int)) "init still live on cpu0" (Some init.Proc.tid)
    (Sva.running_on k.Kernel.sva ~cpu:0);
  Alcotest.(check int) "cpu pids diverge" child.Proc.pid (Kernel.current_pid k);
  Machine.switch_core k.Kernel.machine 0;
  Alcotest.(check int) "cpu0 unchanged" init.Proc.pid (Kernel.current_pid k)

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)

let syscall_churn ctx ~tag ~iters =
  (* A little process that exercises fs syscalls and returns evidence
     of what it computed; every syscall is a preemption point. *)
  let k = ctx.Runtime.kernel and proc = ctx.Runtime.proc in
  let path = "/churn-" ^ tag in
  let fd = expect_ok "open" (Runtime.sys_open ctx path Syscalls.creat_trunc) in
  let acc = ref 0 in
  for i = 1 to iters do
    let line = Printf.sprintf "%s:%d\n" tag i in
    acc := !acc + expect_ok "write" (Runtime.write_string ctx ~fd line)
  done;
  ignore (Runtime.sys_close ctx fd);
  let st = expect_ok "stat" (Syscalls.stat k proc path) in
  (!acc, st.Diskfs.size)

let run_workload ?(cpus = 1) ~preemptive ~timer_period () =
  let k = boot ~cpus () in
  let tags = [ "a"; "b"; "c" ] in
  let results = Hashtbl.create 4 in
  if preemptive then begin
    let sched = Sched.create k in
    List.iter
      (fun tag ->
        ignore
          (Runtime.spawn_fiber k sched ~ghosting:false ~name:tag (fun ctx ->
               Hashtbl.replace results tag (syscall_churn ctx ~tag ~iters:25))))
      tags;
    Sched.run ~timer_period sched
  end
  else
    List.iter
      (fun tag ->
        Runtime.launch k ~ghosting:false (fun ctx ->
            Hashtbl.replace results tag (syscall_churn ctx ~tag ~iters:25)))
      tags;
  List.map (fun tag -> (tag, Hashtbl.find results tag)) tags

(* Preemption transparency: chopping processes up at arbitrary timer
   ticks (and migrating them across cores) must not change any
   process's own syscall results. *)
let prop_preemption_transparent =
  QCheck2.Test.make ~name:"preemption preserves per-process syscall results"
    ~count:12
    QCheck2.Gen.(pair (int_range 1 4) (int_range 2_000 200_000))
    (fun (cpus, timer_period) ->
      let baseline = run_workload ~preemptive:false ~timer_period:0 () in
      let preempted = run_workload ~cpus ~preemptive:true ~timer_period () in
      baseline = preempted)

let test_sched_preempts_and_steals () =
  let k = boot ~cpus:2 () in
  let sched = Sched.create k in
  for i = 0 to 3 do
    (* Pin everything to cpu0 so cpu1 can only get work by stealing. *)
    ignore
      (Runtime.spawn_fiber k sched ~cpu:0 ~ghosting:false
         ~name:(Printf.sprintf "w%d" i)
         (fun ctx -> ignore (syscall_churn ctx ~tag:(string_of_int i) ~iters:30)))
  done;
  Sched.run ~timer_period:5_000 sched;
  Alcotest.(check bool) "timer ticks preempted fibers" true
    (Sched.preemptions sched > 0);
  Alcotest.(check bool) "idle core stole work" true (Sched.steals sched > 0);
  Alcotest.(check bool) "both cores ran" true
    (Machine.core_cycles k.Kernel.machine 1 > 0)

let test_sched_events_observed () =
  let recorder = Obs_recorder.create () in
  let k = boot ~cpus:2 () in
  Obs.with_sink (Machine.obs k.Kernel.machine) (Obs_recorder.sink recorder) (fun () ->
      let sched = Sched.create k in
      for i = 0 to 1 do
        ignore
          (Runtime.spawn_fiber k sched ~cpu:0 ~ghosting:false
             ~name:(Printf.sprintf "w%d" i)
             (fun ctx ->
               ignore (syscall_churn ctx ~tag:(string_of_int i) ~iters:20)))
      done;
      Sched.run ~timer_period:5_000 sched);
  let kinds =
    List.map
      (fun e -> Obs.Event.kind e.Obs_recorder.event)
      (Obs_recorder.events recorder)
  in
  let has k = List.mem k kinds in
  Alcotest.(check bool) "sched-switch seen" true (has "sched-switch");
  Alcotest.(check bool) "timer-tick seen" true (has "timer-tick")

(* ------------------------------------------------------------------ *)
(* httpd pool                                                          *)

let make_fs_file k path size =
  let ino = expect_ok "create" (Diskfs.create k.Kernel.fs path) in
  let data = Bytes.init size (fun i -> Char.chr ((i * 131) land 0xff)) in
  ignore (expect_ok "write" (Diskfs.write k.Kernel.fs ~ino ~off:0 data))

let pool_stats ?(mode = Sva.Virtual_ghost) ~cpus ~requests () =
  let k = boot ~mode ~cpus () in
  make_fs_file k "/index.html" 8192;
  Httpd.Pool.run k ~workers:cpus ~requests ~port:80 ~path:"/index.html"

let test_pool_serves_all () =
  let s = pool_stats ~cpus:2 ~requests:8 () in
  Alcotest.(check int) "served" 8 s.Httpd.Pool.served;
  Alcotest.(check int) "all 200" 8 s.Httpd.Pool.ok;
  Alcotest.(check bool) "took time" true (s.Httpd.Pool.elapsed_cycles > 0)

let test_pool_deterministic () =
  let a = pool_stats ~cpus:4 ~requests:12 () in
  let b = pool_stats ~cpus:4 ~requests:12 () in
  Alcotest.(check int) "same cycles" a.Httpd.Pool.elapsed_cycles
    b.Httpd.Pool.elapsed_cycles;
  Alcotest.(check int) "same preemptions" a.Httpd.Pool.preemptions
    b.Httpd.Pool.preemptions;
  Alcotest.(check int) "same steals" a.Httpd.Pool.steals b.Httpd.Pool.steals

let test_pool_scales () =
  List.iter
    (fun mode ->
      let one = pool_stats ~mode ~cpus:1 ~requests:16 () in
      let four = pool_stats ~mode ~cpus:4 ~requests:16 () in
      Alcotest.(check int) "1-core all ok" 16 one.Httpd.Pool.ok;
      Alcotest.(check int) "4-core all ok" 16 four.Httpd.Pool.ok;
      let speedup =
        float_of_int one.Httpd.Pool.elapsed_cycles
        /. float_of_int four.Httpd.Pool.elapsed_cycles
      in
      if speedup < 2.5 then
        Alcotest.failf "4-core speedup %.2fx < 2.5x (1: %d cycles, 4: %d)"
          speedup one.Httpd.Pool.elapsed_cycles four.Httpd.Pool.elapsed_cycles)
    [ Sva.Native_build; Sva.Virtual_ghost ]

(* ------------------------------------------------------------------ *)
(* Event-loop httpd over the syscall ring                              *)

let event_loop_stats ?(mode = Sva.Virtual_ghost) ~cpus ~batch ~requests () =
  let k = boot ~mode ~cpus () in
  make_fs_file k "/index.html" 8192;
  Httpd.Event_loop.run k ~batch ~requests ~port:80 ~path:"/index.html"

let test_event_loop_serves_all () =
  let s = event_loop_stats ~cpus:2 ~batch:4 ~requests:8 () in
  Alcotest.(check int) "served" 8 s.Httpd.Event_loop.served;
  Alcotest.(check int) "all 200" 8 s.Httpd.Event_loop.ok;
  Alcotest.(check bool) "rode the ring" true (s.Httpd.Event_loop.ring_enters > 0);
  Alcotest.(check bool) "batched" true
    (s.Httpd.Event_loop.sqes > s.Httpd.Event_loop.ring_enters);
  Alcotest.(check bool) "polled" true (s.Httpd.Event_loop.polls > 0)

let test_event_loop_deterministic () =
  let a = event_loop_stats ~cpus:2 ~batch:8 ~requests:12 () in
  let b = event_loop_stats ~cpus:2 ~batch:8 ~requests:12 () in
  Alcotest.(check int) "same cycles" a.Httpd.Event_loop.elapsed_cycles
    b.Httpd.Event_loop.elapsed_cycles;
  Alcotest.(check int) "same enters" a.Httpd.Event_loop.ring_enters
    b.Httpd.Event_loop.ring_enters;
  Alcotest.(check int) "same sqes" a.Httpd.Event_loop.sqes b.Httpd.Event_loop.sqes

let test_event_loop_batching_cuts_traps () =
  (* Bigger batches, fewer ring_enter traps — with identical service. *)
  let one = event_loop_stats ~cpus:1 ~batch:1 ~requests:16 () in
  let big = event_loop_stats ~cpus:1 ~batch:32 ~requests:16 () in
  Alcotest.(check int) "batch-1 all ok" 16 one.Httpd.Event_loop.ok;
  Alcotest.(check int) "batch-32 all ok" 16 big.Httpd.Event_loop.ok;
  Alcotest.(check bool)
    (Printf.sprintf "enters shrank (%d -> %d)" one.Httpd.Event_loop.ring_enters
       big.Httpd.Event_loop.ring_enters)
    true
    (big.Httpd.Event_loop.ring_enters * 4 < one.Httpd.Event_loop.ring_enters)

(* ------------------------------------------------------------------ *)
(* Blocking syscalls across cores                                      *)

(* A poller sleeping in [poll] on one core must be woken by a write
   submitted through the syscall ring on another core. *)
let test_poll_wakes_across_cores () =
  let k = boot ~cpus:2 () in
  let sched = Sched.create k in
  let pipe = Pipe_dev.create ~capacity:64 () in
  Pipe_dev.add_reader pipe;
  Pipe_dev.add_writer pipe;
  let got = ref None in
  ignore
    (Runtime.spawn_fiber k sched ~cpu:0 ~ghosting:false ~name:"poller"
       (fun ctx ->
         let proc = ctx.Runtime.proc in
         let fd = Proc.add_fd proc (Proc.Pipe_read pipe) in
         let ready =
           expect_ok "poll" (Syscalls.poll ctx.Runtime.kernel proc [ fd ])
         in
         if ready = [ fd ] then begin
           let dst = Runtime.ualloc ctx 16 in
           let n =
             expect_ok "read"
               (Syscalls.read ctx.Runtime.kernel proc ~fd ~buf:dst ~len:16)
           in
           got := Some (Bytes.to_string (Runtime.peek ctx dst n))
         end));
  ignore
    (Runtime.spawn_fiber k sched ~cpu:1 ~ghosting:false ~name:"writer"
       (fun ctx ->
         let proc = ctx.Runtime.proc in
         let fd = Proc.add_fd proc (Proc.Pipe_write pipe) in
         let src = Runtime.ualloc ctx 16 in
         Runtime.poke ctx src (Bytes.of_string "ring!");
         let ring = Uring.create ctx ~depth:4 in
         ignore
           (Uring.submit ring ~sysno:Syscall_abi.sys_write
              ~args:[| Int64.of_int fd; src; 5L |]
              ~user_data:1L);
         ignore (expect_ok "ring_enter" (Uring.enter ring ~to_submit:1));
         match Uring.reap ring with
         | [ c ] ->
             Alcotest.(check int) "ring write result" 5
               (expect_ok "cqe" (Syscall_abi.decode_int c.Syscall_ring.result))
         | l -> Alcotest.failf "expected 1 completion, got %d" (List.length l)));
  Sched.run sched;
  Alcotest.(check (option string)) "poller woke with the ring's bytes"
    (Some "ring!") !got

(* wait ~block:true sleeps on the child waitqueue until another core
   reaps the exit. *)
let test_wait_blocks_until_child_exit () =
  let k = boot ~cpus:2 () in
  let sched = Sched.create k in
  let child = ref None in
  let reaped = ref None in
  ignore
    (Runtime.spawn_fiber k sched ~cpu:0 ~ghosting:false ~name:"parent"
       (fun ctx ->
         let proc = ctx.Runtime.proc in
         let c = expect_ok "fork" (Syscalls.fork ctx.Runtime.kernel proc) in
         child := Some c;
         reaped :=
           Some (expect_ok "wait" (Syscalls.wait ~block:true ctx.Runtime.kernel proc))));
  ignore
    (Runtime.spawn_fiber k sched ~cpu:1 ~ghosting:false ~name:"killer"
       (fun ctx ->
         let rec wait_for_child () =
           match !child with
           | Some c -> Syscalls.exit_ ctx.Runtime.kernel c 7
           | None ->
               Sched.yield sched;
               wait_for_child ()
         in
         wait_for_child ()));
  Sched.run sched;
  match (!reaped, !child) with
  | Some (pid, status), Some c ->
      Alcotest.(check int) "reaped the child" c.Proc.pid pid;
      Alcotest.(check int) "exit status" 7 status
  | None, _ -> Alcotest.fail "wait never returned"
  | _, None -> Alcotest.fail "fork never ran"

(* ------------------------------------------------------------------ *)
(* Ghost swap under SMP: two cores race the same swapped-out page      *)

(* The owner faults its evicted ghost page back in while a second core
   drives the kernel's prefetch path ([Ghost_swap.swap_in_page]) at
   the same page.  The in-flight table must serialise them: exactly
   one restore happens, the loser just finds the page resident.  (The
   same *process* cannot fault on two cores at once —
   [sva.swap.integer] refuses a live thread — so the second actor is a
   kernel-side fiber, as a real kernel's swap prefetcher would be.) *)
let test_concurrent_swap_in_restores_once () =
  let k = boot ~cpus:2 () in
  let sched = Sched.create k in
  let va = Int64.add Layout.ghost_start 0x300000L in
  let victim = ref None in
  let swapped = ref false in
  let raced = ref false in
  let prefetcher_done = ref false in
  ignore
    (Runtime.spawn_fiber k sched ~cpu:0 ~ghosting:true ~name:"owner"
       (fun ctx ->
         let proc = ctx.Runtime.proc in
         victim := Some proc;
         (match Syscalls.allocgm ctx.Runtime.kernel proc ~va ~pages:1 with
         | Ok () -> ()
         | Error e -> Alcotest.failf "allocgm: %s" (Errno.to_string e));
         Runtime.poke ctx va (Bytes.of_string "smp-swap-page");
         (match Ghost_swap.swap_out_page k proc ~va with
         | Ok () -> ()
         | Error m -> Alcotest.failf "swap out: %s" m);
         swapped := true;
         (* Touch the page: the fault sleeps on the swap device and
            yields, which is the prefetcher's window. *)
         Alcotest.(check string) "owner sees its data intact" "smp-swap-page"
           (Bytes.to_string (Runtime.peek ctx va 13));
         (* Stay alive until the prefetcher has observed the outcome —
            returning here would exit the process and tear the ghost
            region down under the racing core. *)
         let rec linger () =
           if not !prefetcher_done then begin
             Sched.yield sched;
             linger ()
           end
         in
         linger ()));
  ignore
    (Runtime.spawn_fiber k sched ~cpu:1 ~ghosting:false ~name:"prefetcher"
       (fun _ctx ->
         let rec wait_for_eviction () =
           if not !swapped then begin
             Sched.yield sched;
             wait_for_eviction ()
           end
         in
         wait_for_eviction ();
         (match !victim with
         | None -> Alcotest.fail "owner never registered"
         | Some proc ->
             if Ghost_swap.is_swapped_out k proc va then begin
               raced := true;
               match Ghost_swap.swap_in_page k proc va with
               | Ok () -> ()
               | Error e -> Alcotest.failf "prefetch: %s" (Errno.to_string e)
             end);
         prefetcher_done := true));
  Sched.run sched;
  Alcotest.(check bool) "the two cores actually raced" true !raced;
  let st = Ghost_swap.stats k in
  Alcotest.(check int) "exactly one restore" 1 st.Ghost_swap.swap_ins;
  Alcotest.(check int) "no refusals" 0 st.Ghost_swap.refusals;
  (match !victim with
  | Some proc ->
      Alcotest.(check bool) "blob consumed" false
        (Ghost_swap.is_swapped_out k proc va)
  | None -> Alcotest.fail "owner never ran")

(* ------------------------------------------------------------------ *)
(* Ring and module overrides share the numbered dispatch               *)

let const_read_program () =
  let b = Builder.create () in
  Builder.func b "sys_read" ~params:[ "fd"; "buf"; "len" ];
  Builder.ret b (Some (Imm 42L));
  Builder.program b

let test_ring_sees_module_override () =
  let k = boot () in
  Syscalls.register_builtin_externs k;
  (match Module_loader.load k ~name:"const_read" (const_read_program ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "load: %s" (Module_loader.describe_load_error e));
  Runtime.launch k ~ghosting:false (fun ctx ->
      let proc = ctx.Runtime.proc in
      let fd = expect_ok "open" (Runtime.sys_open ctx "/f" Syscalls.creat_trunc) in
      let dst = Runtime.ualloc ctx 64 in
      let ring = Uring.create ctx ~depth:4 in
      ignore
        (Uring.submit ring ~sysno:Syscall_abi.sys_read
           ~args:[| Int64.of_int fd; dst; 10L |]
           ~user_data:1L);
      ignore (expect_ok "ring_enter" (Uring.enter ring ~to_submit:1));
      (match Uring.reap ring with
      | [ c ] ->
          Alcotest.(check int) "ring read hit the override" 42
            (expect_ok "cqe" (Syscall_abi.decode_int c.Syscall_ring.result))
      | l -> Alcotest.failf "expected 1 completion, got %d" (List.length l));
      Module_loader.unload k ~name:"const_read";
      ignore
        (Uring.submit ring ~sysno:Syscall_abi.sys_read
           ~args:[| Int64.of_int fd; dst; 10L |]
           ~user_data:2L);
      ignore (expect_ok "ring_enter" (Uring.enter ring ~to_submit:1));
      match Uring.reap ring with
      | [ c ] ->
          Alcotest.(check int) "genuine read restored" 0
            (expect_ok "cqe" (Syscall_abi.decode_int c.Syscall_ring.result));
          ignore proc
      | l -> Alcotest.failf "expected 1 completion, got %d" (List.length l))

(* ------------------------------------------------------------------ *)
(* Module loader: per-kernel registry                                  *)

let module_program () =
  (* A sys_read override returning a constant — enough to observe
     registration. *)
  let b = Builder.create () in
  Builder.func b "sys_read" ~params:[ "fd"; "buf"; "len" ];
  Builder.ret b (Some (Imm 42L));
  Builder.program b

let test_module_registry_per_kernel () =
  let k1 = boot ~mode:Sva.Native_build () in
  let k2 = boot ~mode:Sva.Native_build () in
  (match Module_loader.load k1 ~name:"m1" (module_program ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "load: %s" (Module_loader.describe_load_error e));
  Alcotest.(check (list string)) "k1 sees its module" [ "m1" ]
    (Module_loader.loaded_modules k1);
  Alcotest.(check (list string)) "k2 unaffected" []
    (Module_loader.loaded_modules k2);
  (* Unloading in one kernel must not disturb the other. *)
  Module_loader.unload k2 ~name:"m1";
  Alcotest.(check (list string)) "still loaded in k1" [ "m1" ]
    (Module_loader.loaded_modules k1);
  Module_loader.unload k1 ~name:"m1";
  Alcotest.(check (list string)) "gone from k1" []
    (Module_loader.loaded_modules k1)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "vg_smp"
    [
      ( "machine",
        [
          Alcotest.test_case "per-core clocks" `Quick test_core_clocks;
          Alcotest.test_case "per-core timers" `Quick test_timer;
          Alcotest.test_case "tlb shootdown ipis" `Quick test_tlb_shootdown_ipis;
        ] );
      ( "spinlock",
        [
          Alcotest.test_case "transfer charges" `Quick test_spinlock_transfer_charges;
          Alcotest.test_case "ownership enforced" `Quick test_spinlock_ownership;
          QCheck_alcotest.to_alcotest prop_spinlock_owner;
        ] );
      ( "swap-integer",
        [
          Alcotest.test_case "refuses live thread" `Quick
            test_swap_integer_refuses_live_thread;
          Alcotest.test_case "switch_to tracks per-cpu" `Quick
            test_switch_to_tracks_percpu;
        ] );
      ( "sched",
        [
          QCheck_alcotest.to_alcotest prop_preemption_transparent;
          Alcotest.test_case "preempts and steals" `Quick
            test_sched_preempts_and_steals;
          Alcotest.test_case "events observed" `Quick test_sched_events_observed;
        ] );
      ( "httpd-pool",
        [
          Alcotest.test_case "serves all requests" `Quick test_pool_serves_all;
          Alcotest.test_case "deterministic" `Quick test_pool_deterministic;
          Alcotest.test_case "scales to 4 cores" `Slow test_pool_scales;
        ] );
      ( "httpd-event-loop",
        [
          Alcotest.test_case "serves all requests" `Quick test_event_loop_serves_all;
          Alcotest.test_case "deterministic" `Quick test_event_loop_deterministic;
          Alcotest.test_case "batching cuts traps" `Quick
            test_event_loop_batching_cuts_traps;
        ] );
      ( "ghost-swap",
        [
          Alcotest.test_case "concurrent swap-in restores once" `Quick
            test_concurrent_swap_in_restores_once;
        ] );
      ( "blocking",
        [
          Alcotest.test_case "poll wakes across cores" `Quick
            test_poll_wakes_across_cores;
          Alcotest.test_case "wait blocks until child exit" `Quick
            test_wait_blocks_until_child_exit;
        ] );
      ( "ring-dispatch",
        [
          Alcotest.test_case "module override via ring" `Quick
            test_ring_sees_module_override;
        ] );
      ( "module-loader",
        [
          Alcotest.test_case "registry is per-kernel" `Quick
            test_module_registry_per_kernel;
        ] );
    ]
