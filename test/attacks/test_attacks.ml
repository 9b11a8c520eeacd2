(* The paper's security evaluation (section 7) as a test suite: every
   attack must succeed against the baseline system and fail under
   Virtual Ghost — with the victim surviving. *)

let check msg expected actual = Alcotest.(check bool) msg expected actual

(* ------------------------------------------------------------------ *)
(* Rootkit attack 1: direct read of victim memory                      *)

let test_direct_read_native () =
  let o = Rootkit.run_experiment ~mode:Sva.Native_build ~attack:Rootkit.Direct_read () in
  check "secret printed to system log" true o.Rootkit.secret_leaked_to_console;
  check "victim survived" true o.Rootkit.victim_survived

let test_direct_read_vg () =
  let o = Rootkit.run_experiment ~mode:Sva.Virtual_ghost ~attack:Rootkit.Direct_read () in
  check "secret NOT in system log" false o.Rootkit.secret_leaked_to_console;
  (* The paper: "the kernel simply reads unknown data out of its own
     address space" — the module runs on, the victim is unaffected. *)
  check "victim survived" true o.Rootkit.victim_survived

(* ------------------------------------------------------------------ *)
(* Rootkit attack 2: signal-handler code injection                     *)

let test_signal_inject_native () =
  let o = Rootkit.run_experiment ~mode:Sva.Native_build ~attack:Rootkit.Signal_inject () in
  check "secret written to exfil file" true o.Rootkit.secret_in_exfil_file

let test_signal_inject_vg () =
  let o = Rootkit.run_experiment ~mode:Sva.Virtual_ghost ~attack:Rootkit.Signal_inject () in
  check "exfil file empty" false o.Rootkit.secret_in_exfil_file;
  check "VM refused the dispatch" true o.Rootkit.vm_refusal_logged;
  check "victim continues unaffected" true o.Rootkit.victim_survived

(* ------------------------------------------------------------------ *)
(* Other vectors                                                       *)

let test_mmu_remap () =
  check "native succeeds" true (Other_attacks.mmu_remap_attack ~mode:Sva.Native_build);
  check "vg blocked" false (Other_attacks.mmu_remap_attack ~mode:Sva.Virtual_ghost)

let test_dma () =
  check "native succeeds" true (Other_attacks.dma_attack ~mode:Sva.Native_build);
  check "vg blocked" false (Other_attacks.dma_attack ~mode:Sva.Virtual_ghost)

let test_icontext_tamper () =
  check "native succeeds" true
    (Other_attacks.icontext_tamper_attack ~mode:Sva.Native_build);
  check "vg blocked" false (Other_attacks.icontext_tamper_attack ~mode:Sva.Virtual_ghost)

let test_iago_mmap () =
  (* Unmasked application on either kernel: corruptible. *)
  check "unmasked app corrupted" true
    (Other_attacks.iago_mmap_attack ~mode:Sva.Virtual_ghost ~ghosting:false);
  (* Ghosting application (compiled with the masking pass): immune. *)
  check "masked app immune" false
    (Other_attacks.iago_mmap_attack ~mode:Sva.Virtual_ghost ~ghosting:true)

let test_file_replay () =
  check "baseline accepts stale config" true
    (Other_attacks.file_replay_attack ~mode:Sva.Native_build);
  check "sealed store detects replay" false
    (Other_attacks.file_replay_attack ~mode:Sva.Virtual_ghost)

let test_swap_tamper () =
  check "native page plainly readable" true
    (Other_attacks.swap_tamper_attack ~mode:Sva.Native_build);
  check "vg detects tampering" false
    (Other_attacks.swap_tamper_attack ~mode:Sva.Virtual_ghost)

(* ------------------------------------------------------------------ *)
(* Security-event observability: every blocked attack must announce
   itself on the event stream under Virtual Ghost, and the same attack
   against the baseline must stay silent (nothing was blocked). *)

let record f =
  let recorder = Obs_recorder.create () in
  let result = Obs.with_sink Obs.default (Obs_recorder.sink recorder) f in
  (result, recorder)

let has_security recorder subsystem =
  Obs_recorder.count_matching recorder (function
    | Obs.Event.Security { subsystem = s; _ } -> s = subsystem
    | _ -> false)
  > 0

let no_security_events msg recorder =
  check msg true (Obs_recorder.security_events recorder = [])

let test_events_direct_read () =
  let _, native =
    record (fun () ->
        Rootkit.run_experiment ~mode:Sva.Native_build ~attack:Rootkit.Direct_read ())
  in
  no_security_events "native: silent" native;
  let _, vg =
    record (fun () ->
        Rootkit.run_experiment ~mode:Sva.Virtual_ghost ~attack:Rootkit.Direct_read ())
  in
  check "vg: sandbox fault reported" true (has_security vg "sandbox")

let test_events_signal_inject () =
  let _, native =
    record (fun () ->
        Rootkit.run_experiment ~mode:Sva.Native_build ~attack:Rootkit.Signal_inject ())
  in
  no_security_events "native: silent" native;
  let _, vg =
    record (fun () ->
        Rootkit.run_experiment ~mode:Sva.Virtual_ghost ~attack:Rootkit.Signal_inject ())
  in
  check "vg: dispatch refusal reported" true (has_security vg "sva.ipush")

let test_events_mmu_remap () =
  let _, native =
    record (fun () -> Other_attacks.mmu_remap_attack ~mode:Sva.Native_build)
  in
  no_security_events "native: silent" native;
  let _, vg =
    record (fun () -> Other_attacks.mmu_remap_attack ~mode:Sva.Virtual_ghost)
  in
  check "vg: denied mapping reported" true
    (Obs_recorder.count_matching vg (function
       | Obs.Event.Mmu { verdict = Obs.Event.Denied _; _ } -> true
       | _ -> false)
    > 0)

let test_events_dma () =
  let _, native = record (fun () -> Other_attacks.dma_attack ~mode:Sva.Native_build) in
  no_security_events "native: silent" native;
  let _, vg = record (fun () -> Other_attacks.dma_attack ~mode:Sva.Virtual_ghost) in
  check "vg: blocked DMA reported" true (has_security vg "iommu")

let test_events_iago_mmap () =
  let _, unmasked =
    record (fun () ->
        Other_attacks.iago_mmap_attack ~mode:Sva.Virtual_ghost ~ghosting:false)
  in
  check "unmasked app: no mask event" false (has_security unmasked "iago-mask");
  let _, masked =
    record (fun () ->
        Other_attacks.iago_mmap_attack ~mode:Sva.Virtual_ghost ~ghosting:true)
  in
  check "masked app: defused pointer reported" true (has_security masked "iago-mask")

let test_smp_remap_race () =
  check "native succeeds" true
    (Other_attacks.smp_remap_race_attack ~mode:Sva.Native_build);
  check "vg blocked" false
    (Other_attacks.smp_remap_race_attack ~mode:Sva.Virtual_ghost)

let test_events_smp_remap_race () =
  let _, native =
    record (fun () -> Other_attacks.smp_remap_race_attack ~mode:Sva.Native_build)
  in
  no_security_events "native: silent" native;
  let _, vg =
    record (fun () -> Other_attacks.smp_remap_race_attack ~mode:Sva.Virtual_ghost)
  in
  check "vg: cross-core remap denial reported" true (has_security vg "sva.mmu")

(* A ghost buffer pointer smuggled through a syscall-ring submission:
   the batched path must defuse it exactly like a direct call would. *)
let test_ring_ghost_buffer () =
  check "native leaks through the ring" true
    (Other_attacks.ring_ghost_buffer_attack ~mode:Sva.Native_build);
  check "vg defuses the ring entry" false
    (Other_attacks.ring_ghost_buffer_attack ~mode:Sva.Virtual_ghost)

let test_events_ring_ghost_buffer () =
  let leaked_native, native =
    record (fun () -> Other_attacks.ring_ghost_buffer_attack ~mode:Sva.Native_build)
  in
  check "native: secret leaked" true leaked_native;
  no_security_events "native: silent" native;
  let leaked_vg, vg =
    record (fun () -> Other_attacks.ring_ghost_buffer_attack ~mode:Sva.Virtual_ghost)
  in
  check "vg: no leak" false leaked_vg;
  check "vg: sandbox fault reported" true (has_security vg "sandbox")

(* ------------------------------------------------------------------ *)
(* Hostile eviction: the kernel's own swap machinery turned against
   the application.  Every forged blob must fail closed with exactly
   one Security{swap} event under Virtual Ghost, while the baseline
   swaps plaintext and notices nothing. *)

let count_swap recorder =
  Obs_recorder.count_matching recorder (function
    | Obs.Event.Security { subsystem = "swap"; _ } -> true
    | _ -> false)

let test_swap_replay () =
  check "native accepts the stale page" true
    (Other_attacks.swap_replay_attack ~mode:Sva.Native_build);
  check "vg refuses the stale version" false
    (Other_attacks.swap_replay_attack ~mode:Sva.Virtual_ghost)

let test_swap_substitution () =
  check "native hands over the victim's page" true
    (Other_attacks.swap_substitution_attack ~mode:Sva.Native_build);
  check "vg refuses the foreign blob" false
    (Other_attacks.swap_substitution_attack ~mode:Sva.Virtual_ghost)

let test_swap_thrash () =
  check "native blobs leak the plaintext" true
    (Other_attacks.swap_thrash_attack ~mode:Sva.Native_build);
  check "vg blobs leak nothing" false
    (Other_attacks.swap_thrash_attack ~mode:Sva.Virtual_ghost)

let test_events_swap_tamper () =
  let _, native =
    record (fun () -> Other_attacks.swap_tamper_attack ~mode:Sva.Native_build)
  in
  no_security_events "native: silent" native;
  let _, vg =
    record (fun () -> Other_attacks.swap_tamper_attack ~mode:Sva.Virtual_ghost)
  in
  check "vg: exactly one swap refusal reported" true (count_swap vg = 1)

let test_events_swap_replay () =
  let _, native =
    record (fun () -> Other_attacks.swap_replay_attack ~mode:Sva.Native_build)
  in
  no_security_events "native: silent" native;
  let _, vg =
    record (fun () -> Other_attacks.swap_replay_attack ~mode:Sva.Virtual_ghost)
  in
  check "vg: exactly one swap refusal reported" true (count_swap vg = 1)

let test_events_swap_substitution () =
  let _, native =
    record (fun () ->
        Other_attacks.swap_substitution_attack ~mode:Sva.Native_build)
  in
  no_security_events "native: silent" native;
  let _, vg =
    record (fun () ->
        Other_attacks.swap_substitution_attack ~mode:Sva.Virtual_ghost)
  in
  check "vg: exactly one swap refusal reported" true (count_swap vg = 1)

let test_events_swap_thrash () =
  (* Thrashing is in-policy denial of service: every blob is genuine,
     so neither build reports anything — the defense here is that the
     blobs carry no signal, not that the VM refuses. *)
  let _, native =
    record (fun () -> Other_attacks.swap_thrash_attack ~mode:Sva.Native_build)
  in
  no_security_events "native: silent" native;
  let leaked, vg =
    record (fun () -> Other_attacks.swap_thrash_attack ~mode:Sva.Virtual_ghost)
  in
  check "vg: no leak" false leaked;
  check "vg: silent (nothing was refused)" true (count_swap vg = 0)

(* ------------------------------------------------------------------ *)
(* Syscall-flow integrity: out-of-policy sequences fail closed under
   Virtual Ghost (process killed, one Security{sfip} event), while the
   baseline — with no signed profiles — executes them. *)

let count_sfip recorder =
  Obs_recorder.count_matching recorder (function
    | Obs.Event.Security { subsystem = "sfip"; _ } -> true
    | _ -> false)

let test_sfip_sequence () =
  check "native exfiltrates" true
    (Other_attacks.sfip_sequence_attack ~mode:Sva.Native_build);
  check "vg kills the sequence" false
    (Other_attacks.sfip_sequence_attack ~mode:Sva.Virtual_ghost)

let test_sfip_ring_sequence () =
  check "native connects through the ring" true
    (Other_attacks.sfip_ring_sequence_attack ~mode:Sva.Native_build);
  check "vg refuses the whole batch" false
    (Other_attacks.sfip_ring_sequence_attack ~mode:Sva.Virtual_ghost)

let test_sfip_profile_swap () =
  check "baseline loads the forged profile" true
    (Other_attacks.sfip_profile_swap_attack ~mode:Sva.Native_build);
  check "vg refuses the tampered image" false
    (Other_attacks.sfip_profile_swap_attack ~mode:Sva.Virtual_ghost)

let test_events_sfip () =
  let _, native =
    record (fun () -> Other_attacks.sfip_sequence_attack ~mode:Sva.Native_build)
  in
  check "native: silent" true (count_sfip native = 0);
  let _, vg =
    record (fun () -> Other_attacks.sfip_sequence_attack ~mode:Sva.Virtual_ghost)
  in
  check "vg: exactly one sfip kill reported" true (count_sfip vg = 1)

let test_events_sfip_ring () =
  let _, vg =
    record (fun () ->
        Other_attacks.sfip_ring_sequence_attack ~mode:Sva.Virtual_ghost)
  in
  (* One violation, one event — the benign entries sharing the batch
     must not multiply the report. *)
  check "vg: exactly one sfip kill for the batch" true (count_sfip vg = 1)

(* ------------------------------------------------------------------ *)
(* Spectre-v1: the transient window leaks ghost memory past a sandbox
   that is architecturally sound; both mitigations close the channel. *)

let test_spectre_leaks_unmitigated () =
  let o = Spectre.run_experiment ~spec_depth:12 () in
  check "full secret recovered through the cache channel" true
    o.Spectre.success;
  check "transient loads happened" true (o.Spectre.transient_loads > 0)

let test_spectre_depth_threshold () =
  (* The transient stream from the mispredicted select to the probe
     access is exactly 8 macro-ops: one short of that, nothing. *)
  let at d = Spectre.run_experiment ~spec_depth:d () in
  check "depth 8 leaks" true (at 8).Spectre.success;
  check "depth 7 recovers nothing" true ((at 7).Spectre.bytes_recovered = 0)

let test_spectre_depth0_noop () =
  let o = Spectre.run_experiment ~spec_depth:0 () in
  check "no bytes recovered" true (o.Spectre.bytes_recovered = 0);
  check "no windows opened" true (o.Spectre.windows = 0);
  check "no transient loads" true (o.Spectre.transient_loads = 0)

let test_spectre_fence_mitigation () =
  let o =
    Spectre.run_experiment ~spec_depth:12
      ~mitigation:Vg_compiler.Mitigation.Fence ()
  in
  check "fence: nothing recovered" true (o.Spectre.bytes_recovered = 0);
  (* Windows still open at the selects; the lfence squashes each one
     before the secret load issues. *)
  check "fence: no transient load reaches memory" true
    (o.Spectre.transient_loads = 0)

let test_spectre_safe_mask_mitigation () =
  let o =
    Spectre.run_experiment ~spec_depth:12
      ~mitigation:Vg_compiler.Mitigation.Safe_mask ()
  in
  check "safe-mask: nothing recovered" true (o.Spectre.bytes_recovered = 0);
  (* The branchless mask has no select to mispredict: the gadget opens
     no window at all. *)
  check "safe-mask: no windows" true (o.Spectre.windows = 0)

(* ------------------------------------------------------------------ *)
(* Pinned attack trajectories.  Outcome, event count and a digest of
   the full event stream (cycle stamps included) for each kernel attack
   experiment: any change to the simulated time or the event sequence
   of the module path shows up here.  The values were recorded on the
   slot-executor kernel, before module code ran on the closure compiler,
   so they also pin that the two engines agree. *)

let digest recorder =
  Obs_recorder.events recorder
  |> List.map (fun (e : Obs_recorder.entry) ->
         Printf.sprintf "%d %s" e.cycles (Obs.Event.describe e.event))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let check_trajectory name recorder ~events ~hash =
  Alcotest.(check int) (name ^ ": event count") events
    (List.length (Obs_recorder.events recorder));
  Alcotest.(check string) (name ^ ": event digest") hash (digest recorder)

let test_pinned_rootkit () =
  List.iter
    (fun (name, attack, mode, (console, exfil, refusal), events, hash) ->
      let o, r = record (fun () -> Rootkit.run_experiment ~mode ~attack ()) in
      check (name ^ ": leaked to console") console o.Rootkit.secret_leaked_to_console;
      check (name ^ ": exfil file") exfil o.Rootkit.secret_in_exfil_file;
      check (name ^ ": refusal logged") refusal o.Rootkit.vm_refusal_logged;
      check (name ^ ": victim survived") true o.Rootkit.victim_survived;
      check_trajectory name r ~events ~hash)
    [
      ( "direct/native", Rootkit.Direct_read, Sva.Native_build, (true, false, false),
        55, "256b0d8c6d55fb438d26696152928109" );
      ( "direct/vg", Rootkit.Direct_read, Sva.Virtual_ghost, (false, false, false),
        68, "bb1fcb1829792d567b5e589f6165c74e" );
      ( "inject/native", Rootkit.Signal_inject, Sva.Native_build, (false, true, false),
        63, "bc00df4f14d90da75590bcc9f2d98b25" );
      ( "inject/vg", Rootkit.Signal_inject, Sva.Virtual_ghost, (false, false, true),
        68, "fff42514695b23fb60cbe4029832ffef" );
    ]

let test_pinned_iago () =
  List.iter
    (fun (ghosting, corrupted, events, hash) ->
      let name = Printf.sprintf "ghosting=%b" ghosting in
      let c, r =
        record (fun () ->
            Other_attacks.iago_mmap_attack ~mode:Sva.Virtual_ghost ~ghosting)
      in
      check (name ^ ": corrupted") corrupted c;
      check_trajectory name r ~events ~hash)
    [
      (false, true, 17, "ff0f3e3618c6cb646e857aaaf0f56c73");
      (true, false, 20, "a6238dbfd41c65015910c37f961f83e4");
    ]

let test_pinned_spectre () =
  let o = Spectre.run_experiment ~spec_depth:12 () in
  Alcotest.(check string) "leaked" "gh0st-SPECTRE-key!47" o.Spectre.leaked;
  Alcotest.(check int) "bytes recovered" 20 o.Spectre.bytes_recovered;
  check "success" true o.Spectre.success;
  Alcotest.(check int) "windows" 10320 o.Spectre.windows;
  Alcotest.(check int) "transient loads" 40 o.Spectre.transient_loads

let () =
  Alcotest.run "vg_attacks"
    [
      ( "rootkit-direct-read",
        [
          Alcotest.test_case "succeeds on native" `Slow test_direct_read_native;
          Alcotest.test_case "fails under virtual ghost" `Slow test_direct_read_vg;
        ] );
      ( "rootkit-signal-inject",
        [
          Alcotest.test_case "succeeds on native" `Slow test_signal_inject_native;
          Alcotest.test_case "fails under virtual ghost" `Slow test_signal_inject_vg;
        ] );
      ( "other-vectors",
        [
          Alcotest.test_case "mmu remap" `Quick test_mmu_remap;
          Alcotest.test_case "dma" `Quick test_dma;
          Alcotest.test_case "interrupt-context tamper" `Quick test_icontext_tamper;
          Alcotest.test_case "iago mmap" `Quick test_iago_mmap;
          Alcotest.test_case "swap tamper" `Quick test_swap_tamper;
          Alcotest.test_case "smp remap race" `Quick test_smp_remap_race;
          Alcotest.test_case "ring ghost buffer" `Quick test_ring_ghost_buffer;
          Alcotest.test_case "file replay" `Slow test_file_replay;
        ] );
      ( "security-events",
        [
          Alcotest.test_case "direct read" `Slow test_events_direct_read;
          Alcotest.test_case "signal inject" `Slow test_events_signal_inject;
          Alcotest.test_case "mmu remap" `Quick test_events_mmu_remap;
          Alcotest.test_case "dma" `Quick test_events_dma;
          Alcotest.test_case "smp remap race" `Quick test_events_smp_remap_race;
          Alcotest.test_case "iago mmap" `Quick test_events_iago_mmap;
          Alcotest.test_case "ring ghost buffer" `Quick
            test_events_ring_ghost_buffer;
        ] );
      ( "spectre",
        [
          Alcotest.test_case "leaks unmitigated" `Slow
            test_spectre_leaks_unmitigated;
          Alcotest.test_case "depth threshold at 8" `Slow
            test_spectre_depth_threshold;
          Alcotest.test_case "no-op at depth 0" `Slow test_spectre_depth0_noop;
          Alcotest.test_case "fence closes the channel" `Slow
            test_spectre_fence_mitigation;
          Alcotest.test_case "safe-mask closes the channel" `Slow
            test_spectre_safe_mask_mitigation;
        ] );
      ( "hostile-eviction",
        [
          Alcotest.test_case "sealed-blob replay" `Quick test_swap_replay;
          Alcotest.test_case "cross-process substitution" `Quick
            test_swap_substitution;
          Alcotest.test_case "thrash-bomb oracle" `Quick test_swap_thrash;
          Alcotest.test_case "tamper events" `Quick test_events_swap_tamper;
          Alcotest.test_case "replay events" `Quick test_events_swap_replay;
          Alcotest.test_case "substitution events" `Quick
            test_events_swap_substitution;
          Alcotest.test_case "thrash events" `Quick test_events_swap_thrash;
        ] );
      ( "sfip",
        [
          Alcotest.test_case "out-of-policy sequence" `Quick test_sfip_sequence;
          Alcotest.test_case "intra-batch sequence" `Quick
            test_sfip_ring_sequence;
          Alcotest.test_case "profile swap" `Quick test_sfip_profile_swap;
          Alcotest.test_case "sequence events" `Quick test_events_sfip;
          Alcotest.test_case "ring events" `Quick test_events_sfip_ring;
        ] );
      ( "pinned-trajectories",
        [
          Alcotest.test_case "rootkit" `Slow test_pinned_rootkit;
          Alcotest.test_case "iago mmap" `Quick test_pinned_iago;
          Alcotest.test_case "spectre unmitigated leak" `Slow test_pinned_spectre;
        ] );
    ]
