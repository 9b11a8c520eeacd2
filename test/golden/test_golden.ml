(* Golden simulated-cycle regression tests.

   The executor's slot-allocated register files and O(1) symbol/label
   resolution are host-time optimisations: every simulated cycle count
   in the paper's tables must be bit-identical to what the tree produced
   before that refactor.  These goldens pin the counts; if one of them
   moves, the cost model changed — that is a bug (or a deliberate model
   change that must be called out and these numbers re-baselined).

   Two fixtures cover the compiler cost model (a memory-bound loop and
   call-heavy recursion, in all four instrumentation modes), and the
   LMBench null-syscall pins the whole-kernel path in both build
   modes. *)

(* Runs the fixture and returns per-tag cycle totals: the grand total is
   the golden, and summing a tagged breakdown proves charge tagging is a
   pure relabelling (nothing double- or under-counted). *)
let run_tagged_cycles ?(compiled = false) ~cfi ~sandbox program entry arg =
  let program =
    if sandbox then Vg_compiler.Sandbox_pass.instrument_program program
    else program
  in
  let image = Vg_compiler.Linker.link (Vg_compiler.Codegen.compile ~cfi program) in
  let mem = Bytes.make 65536 '\000' in
  let by_tag = Array.make Obs.Tag.count 0 in
  let env =
    {
      Vg_compiler.Exec_env.null_env with
      load =
        (fun cell _ ->
          Vg_compiler.Exec_env.(
            set cell value
              (Bytes.get_int64_le mem (Int64.to_int (Int64.logand (get cell address) 0xfff8L)))));
      store =
        (fun cell _ ->
          Vg_compiler.Exec_env.(
            Bytes.set_int64_le mem
              (Int64.to_int (Int64.logand (get cell address) 0xfff8L))
              (get cell value)));
      charge =
        (fun tag n ->
          let i = Obs.Tag.index tag in
          by_tag.(i) <- by_tag.(i) + n);
    }
  in
  (if compiled then
     ignore
       (Vg_compiler.Exec_compile.run env
          (Vg_compiler.Exec_compile.compile image)
          entry [| arg |])
   else ignore (Executor.run env image entry [| arg |]));
  by_tag

let run_cycles ?compiled ~cfi ~sandbox program entry arg =
  Array.fold_left ( + ) 0 (run_tagged_cycles ?compiled ~cfi ~sandbox program entry arg)

(* Each mode is pinned on the closure-compiled engine the kernel runs
   and on the slot executor it is checked against. *)
let check_modes name program entry arg ~plain ~cfi ~sandbox ~full =
  List.iter
    (fun compiled ->
      let name = if compiled then name ^ "/compiled" else name ^ "/slots" in
      let check mode expected ~cfi ~sandbox =
        Alcotest.(check int)
          (name ^ ": " ^ mode) expected
          (run_cycles ~compiled ~cfi ~sandbox program entry arg)
      in
      check "plain" plain ~cfi:false ~sandbox:false;
      check "cfi" cfi ~cfi:true ~sandbox:false;
      check "sandbox" sandbox ~cfi:false ~sandbox:true;
      check "full" full ~cfi:true ~sandbox:true)
    [ true; false ]

let test_collatz_cycles () =
  check_modes "collatz(97)" (Fixtures.collatz_program ()) "collatz" 97L ~plain:1543
    ~cfi:1544 ~sandbox:4875 ~full:4876

let test_recsum_cycles () =
  check_modes "recsum(40)" (Fixtures.rec_sum_program ()) "sum" 40L ~plain:244 ~cfi:445
    ~sandbox:244 ~full:445

(* --- whole-kernel golden: LMBench null syscall -------------------- *)

(* The bench-profile node, built through the fleet config: every boot
   takes its defaults from [Node_config.default], and the golden numbers
   below pin them. *)
let golden_config ?(spec_depth = 0) mode =
  Node_config.(
    default |> with_phys_frames 65536 |> with_disk_sectors 131072
    |> with_seed "bench" |> with_mode mode |> with_spec_depth spec_depth)

let null_syscall_cycles config =
  let node = Node.boot config in
  let machine = Node.machine node and k = Node.kernel node in
  Runtime.launch k ~ghosting:false (fun ctx ->
      let proc = ctx.Runtime.proc in
      let start = Machine.cycles machine in
      for _ = 1 to 200 do
        ignore (Syscalls.getpid k proc)
      done;
      Machine.cycles machine - start)

let test_null_syscall_cycles () =
  Alcotest.(check int) "native build" 71600
    (null_syscall_cycles (golden_config Sva.Native_build));
  Alcotest.(check int) "virtual ghost" 261000
    (null_syscall_cycles (golden_config Sva.Virtual_ghost))

(* --- speculation model off: cycle identity ------------------------ *)
(* The speculation era must be pay-for-what-you-use: a machine built
   with [~spec_depth:0] and an unmitigated kernel must reproduce the
   pre-speculation goldens to the cycle — no cache model consulted, no
   windows, no surcharge.  The mitigated builds are pinned too, so the
   architectural price of each hardening (lfence cycles, the two extra
   branchless-mask instructions) cannot drift silently. *)

let null_syscall_cycles_spec ~spec_depth ~mitigation mode =
  null_syscall_cycles
    (golden_config ~spec_depth mode |> Node_config.with_spec_mitigation mitigation)

let test_spec_depth0_cycle_identity () =
  let off = Vg_compiler.Mitigation.Off in
  Alcotest.(check int) "native, spec plumbing off" 71600
    (null_syscall_cycles_spec ~spec_depth:0 ~mitigation:off Sva.Native_build);
  Alcotest.(check int) "virtual ghost, spec plumbing off" 261000
    (null_syscall_cycles_spec ~spec_depth:0 ~mitigation:off Sva.Virtual_ghost)

let test_spec_mitigation_goldens () =
  (* Architectural mitigation cost at depth 0: what fence / safe-mask
     add to the same 200 null syscalls.  Native builds carry no
     sandbox, hence nothing to harden — the golden must not move. *)
  let fence = Vg_compiler.Mitigation.Fence in
  let safe = Vg_compiler.Mitigation.Safe_mask in
  Alcotest.(check int) "native is mitigation-blind" 71600
    (null_syscall_cycles_spec ~spec_depth:0 ~mitigation:fence Sva.Native_build);
  Alcotest.(check int) "virtual ghost + fence" 357000
    (null_syscall_cycles_spec ~spec_depth:0 ~mitigation:fence Sva.Virtual_ghost);
  Alcotest.(check int) "virtual ghost + safe-mask" 277000
    (null_syscall_cycles_spec ~spec_depth:0 ~mitigation:safe Sva.Virtual_ghost)

(* --- boot-time image verification --------------------------------- *)
(* Under Virtual Ghost, boot re-proves the kernel's own translation and
   charges the verifier's pass to the Verify tag; the baseline verifies
   nothing.  Pinned so the verification cost model cannot drift
   silently (the null-syscall goldens above measure *after* boot and
   are unaffected by design). *)

let boot_verify_cycles mode =
  let stats = Obs_stats.create () in
  let obs = Obs.create () in
  Obs.with_sink obs (Obs_stats.sink stats) (fun () ->
      ignore (Node.boot (golden_config mode |> Node_config.with_obs obs)));
  Obs_stats.cycles stats Obs.Tag.Verify

let test_boot_verify_cycles () =
  Alcotest.(check int) "native build verifies nothing" 0
    (boot_verify_cycles Sva.Native_build);
  Alcotest.(check int) "virtual ghost kernel image" 288
    (boot_verify_cycles Sva.Virtual_ghost)

(* --- observability parity ----------------------------------------- *)
(* The zero-overhead-off guarantee, pinned: simulated cycle counts must
   be byte-identical whether sinks are attached or not. *)

let with_sinks mode =
  let stats = Obs_stats.create () in
  let recorder = Obs_recorder.create () in
  let obs = Obs.create () in
  let result =
    Obs.with_sink obs (Obs_stats.sink stats) (fun () ->
        Obs.with_sink obs (Obs_recorder.sink recorder) (fun () ->
            null_syscall_cycles (golden_config mode |> Node_config.with_obs obs)))
  in
  (result, stats, recorder)

let test_null_syscall_obs_parity () =
  let bare_native = null_syscall_cycles (golden_config Sva.Native_build) in
  let bare_vg = null_syscall_cycles (golden_config Sva.Virtual_ghost) in
  let observed_native, stats_native, _ = with_sinks Sva.Native_build in
  let observed_vg, stats_vg, recorder = with_sinks Sva.Virtual_ghost in
  Alcotest.(check int) "native: sinks do not change cycles" bare_native
    observed_native;
  Alcotest.(check int) "vg: sinks do not change cycles" bare_vg observed_vg;
  Alcotest.(check int) "native still the golden" 71600 observed_native;
  Alcotest.(check int) "vg still the golden" 261000 observed_vg;
  (* The sinks genuinely observed the run. *)
  Alcotest.(check bool) "native charges seen" true
    (Obs_stats.total_cycles stats_native > 0);
  Alcotest.(check bool) "vg syscall events seen" true
    (Obs_stats.event_count stats_vg "syscall" >= 200);
  Alcotest.(check bool) "recorder saw trap enters" true
    (Obs_recorder.count_matching recorder (function
       | Obs.Event.Trap_enter _ -> true
       | _ -> false)
    >= 200)

let test_executor_obs_parity () =
  (* Tagged totals must reproduce the goldens exactly — tagging is a
     relabelling of the same charges, not a new cost model. *)
  let total ~cfi ~sandbox program entry arg =
    Array.fold_left ( + ) 0 (run_tagged_cycles ~cfi ~sandbox program entry arg)
  in
  Alcotest.(check int) "collatz full (tagged)" 4876
    (total ~cfi:true ~sandbox:true (Fixtures.collatz_program ()) "collatz" 97L);
  Alcotest.(check int) "recsum full (tagged)" 445
    (total ~cfi:true ~sandbox:true (Fixtures.rec_sum_program ()) "sum" 40L);
  (* And the CFI component is separable: the 40 checked returns of
     recsum(40) each pay check_extra_cycles.  (The rest of the cfi-mode
     delta is the extra *instructions* the instrumentation executes,
     which stay under the Exec tag.) *)
  let by_tag = run_tagged_cycles ~cfi:true ~sandbox:true (Fixtures.rec_sum_program ()) "sum" 40L in
  let cfi_cycles = by_tag.(Obs.Tag.index Obs.Tag.Cfi) in
  Alcotest.(check int) "recsum cfi component"
    (40 * Vg_compiler.Cfi_pass.check_extra_cycles)
    cfi_cycles

let () =
  Alcotest.run "vg_golden"
    [
      ( "simulated-cycles",
        [
          Alcotest.test_case "collatz, four modes" `Quick test_collatz_cycles;
          Alcotest.test_case "recursive sum, four modes" `Quick
            test_recsum_cycles;
          Alcotest.test_case "LMBench null syscall" `Quick
            test_null_syscall_cycles;
          Alcotest.test_case "boot-time image verification" `Quick
            test_boot_verify_cycles;
          Alcotest.test_case "spec depth 0 is cycle-identical" `Quick
            test_spec_depth0_cycle_identity;
          Alcotest.test_case "mitigation cost goldens" `Quick
            test_spec_mitigation_goldens;
        ] );
      ( "observability-parity",
        [
          Alcotest.test_case "null syscall, sinks attached" `Quick
            test_null_syscall_obs_parity;
          Alcotest.test_case "executor tag totals" `Quick
            test_executor_obs_parity;
        ] );
    ]
