(* vgsim: command-line front end to the Virtual Ghost simulator.

     dune exec bin/vgsim.exe -- attack --attack inject --mode vg
     dune exec bin/vgsim.exe -- lmbench --op null --mode native
     dune exec bin/vgsim.exe -- postmark --transactions 5000 --mode vg
     dune exec bin/vgsim.exe -- info *)

open Cmdliner

let mode_conv =
  let parse = function
    | "native" -> Ok Sva.Native_build
    | "vg" | "virtual-ghost" -> Ok Sva.Virtual_ghost
    | s -> Error (`Msg (Printf.sprintf "unknown mode %s (native|vg)" s))
  in
  let print fmt = function
    | Sva.Native_build -> Format.pp_print_string fmt "native"
    | Sva.Virtual_ghost -> Format.pp_print_string fmt "vg"
  in
  Arg.conv (parse, print)

let mode_arg =
  Arg.(value & opt mode_conv Sva.Virtual_ghost & info [ "mode" ] ~doc:"Kernel build: native or vg.")

let cpus_arg =
  Arg.(
    value & opt int 1
    & info [ "cpus" ] ~docv:"N"
        ~doc:
          "Number of simulated cores (default 1).  A 1-CPU machine is \
           cycle-identical to the pre-SMP simulator; more cores enable the \
           preemptive scheduler, cross-core TLB shootdowns and spinlock \
           transfer costs.")

let mitigation_conv =
  let parse s =
    match Vg_compiler.Mitigation.of_string s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg (Printf.sprintf "unknown mitigation %s (off|fence|safe-mask)" s))
  in
  let print fmt m =
    Format.pp_print_string fmt (Vg_compiler.Mitigation.to_string m)
  in
  Arg.conv (parse, print)

let mitigation_arg =
  Arg.(
    value
    & opt mitigation_conv Vg_compiler.Mitigation.Off
    & info [ "mitigation" ] ~docv:"M"
        ~doc:
          "Spectre hardening of the kernel sandbox: off (classic predicated \
           masking), fence (lfence between every mask and its access) or \
           safe-mask (branchless masking — the mask becomes a data \
           dependency, nothing to mispredict).  The kernel and every module \
           are compiled under it and the translation cache refuses \
           instrumented images carrying any other setting.")

let spec_depth_arg =
  Arg.(
    value & opt int 0
    & info [ "spec-depth" ] ~docv:"N"
        ~doc:
          "Speculative-window budget in macro-ops (default 0).  At 0 the \
           machine has no transient execution and no cache side channel, \
           and cycle counts are identical to the pre-speculation cost \
           model; at 8 and beyond the spectre attack can leak ghost memory \
           past the unmitigated sandbox.")

let mem_frames_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "mem-frames" ] ~docv:"N"
        ~doc:
          "Cap the kernel's frame allocator at $(docv) frames to simulate a \
           memory-constrained machine.  Ghost working sets beyond the cap \
           swap through the sealed ghost-swap path (encrypted, integrity- \
           and freshness-checked by the VM); see the ghost_swap benchmark.")

(* The node the run commands boot, from their shared flags. *)
let config_term =
  let make mode cpus frame_limit spec_depth spec_mitigation =
    let config =
      Node_config.(
        default |> with_cpus cpus |> with_seed "vgsim" |> with_mode mode
        |> with_spec_depth spec_depth
        |> with_spec_mitigation spec_mitigation)
    in
    match frame_limit with
    | None -> config
    | Some l -> Node_config.with_frame_limit l config
  in
  Term.(const make $ mode_arg $ cpus_arg $ mem_frames_arg $ spec_depth_arg $ mitigation_arg)

(* -- observability flags (shared by the run commands) ---------------- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome-trace JSON of the run to $(docv) (open in \
           chrome://tracing or Perfetto).  Timestamps follow the simulated \
           clock.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"After the run, print per-subsystem cycle attribution and event counts.")

(* Run [f] on a fresh hub carrying the requested sinks; [f] boots the
   machine it runs on that hub.  Sinks never change simulated cycle
   counts. *)
let with_obs ~trace ~stats f =
  let obs = Obs.create () in
  let with_stats g =
    if not stats then g ()
    else begin
      let st = Obs_stats.create () in
      Fun.protect
        ~finally:(fun () -> Obs_stats.print st)
        (fun () -> Obs.with_sink obs (Obs_stats.sink st) g)
    end
  in
  let with_trace g =
    match trace with
    | None -> g ()
    | Some path ->
        let tr = Obs_trace.create ~cycles_per_us:(Cost.cpu_hz /. 1e6) () in
        Fun.protect
          ~finally:(fun () ->
            Obs_trace.write_file tr path;
            Printf.printf "trace written to %s\n" path)
          (fun () -> Obs.with_sink obs (Obs_trace.sink tr) g)
  in
  with_trace (fun () -> with_stats (fun () -> f obs))

(* -- info ----------------------------------------------------------- *)

let info_cmd =
  let run () =
    print_endline "Virtual Ghost (ASPLOS 2014) reproduction — simulator info";
    Printf.printf "  ghost partition : %s .. %s\n" (U64.to_hex Layout.ghost_start)
      (U64.to_hex Layout.ghost_end);
    Printf.printf "  escape bit      : %s (OR'd into kernel memory accesses)\n"
      (U64.to_hex Layout.ghost_escape_bit);
    Printf.printf "  SVA internal    : %s .. %s\n" (U64.to_hex Layout.sva_start)
      (U64.to_hex Layout.sva_end);
    Printf.printf "  CPU model       : %.1f GHz, trap=%d cycles, vg trap extra=%d\n"
      (Cost.cpu_hz /. 1e9) Cost.trap_entry Cost.vg_trap_extra;
    Printf.printf "  sandbox mask    : +%d cycles per kernel memory operand\n"
      Cost.sandbox_mask;
    print_endline "  see DESIGN.md for the full inventory and EXPERIMENTS.md for results"
  in
  Cmd.v (Cmd.info "info" ~doc:"Print simulator configuration.") Term.(const run $ const ())

(* -- verify --------------------------------------------------------- *)

(* Every virtual-ISA program the simulator ships that can end up as
   kernel-mode native code: the kernel's own image, the example
   modules, and the attack modules (which the threat model requires to
   go through the instrumenting compiler too). *)
let verify_catalogue () =
  let const_read () =
    let b = Vg_ir.Builder.create () in
    Vg_ir.Builder.func b "sys_read" ~params:[ "fd"; "buf"; "len" ];
    Vg_ir.Builder.ret b (Some (Vg_ir.Ir.Imm 42L));
    Vg_ir.Builder.program b
  in
  let rootkit attack =
    Vg_attacks.Rootkit.module_program ~attack ~victim_pid:2
      ~target_va:(Int64.add Layout.ghost_start 0x1000L)
      ~target_len:32 ~scratch_va:Layout.kernel_data_start
  in
  [
    ("kernel", Kernel_image.program ());
    ("const-read", const_read ());
    ("iago-mmap", Vg_attacks.Other_attacks.evil_mmap_program ());
    ("rootkit-direct", rootkit Vg_attacks.Rootkit.Direct_read);
    ("rootkit-inject", rootkit Vg_attacks.Rootkit.Signal_inject);
    ("spectre", Vg_attacks.Spectre.module_program ~probe_base:0xb00000L);
  ]

let verify_cmd =
  let kernel_arg =
    Arg.(
      value & flag
      & info [ "kernel" ]
          ~doc:
            "Verify only the kernel's own boot image, loaded back from the \
             signed translation cache of a freshly booted vg kernel.")
  in
  let module_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "module" ] ~docv:"NAME"
          ~doc:"Verify only the named catalogue module.")
  in
  let report_of name (image : Vg_compiler.Linker.image) =
    let r = Vg_compiler.Image_verify.report image in
    Printf.printf "%s (%d slots, %d simulated verify cycles):\n" name
      (Array.length image.Vg_compiler.Linker.lcode)
      (Vg_compiler.Image_verify.cost_cycles image);
    Format.printf "%a" Vg_compiler.Image_verify.pp_report r;
    r.Vg_compiler.Image_verify.image_ok
  in
  let verify_program (name, program) =
    let compiled =
      Vg_compiler.Pipeline.compile_kernel_code
        ~mode:Vg_compiler.Pipeline.Virtual_ghost ~optimize:true program
    in
    report_of name compiled.Vg_compiler.Pipeline.linked
  in
  (* The boot path: what the VM actually hands the executor, signature-
     checked and all, rather than a fresh translation. *)
  let verify_booted_kernel () =
    let k =
      Node.kernel (Node.boot Node_config.(default |> with_seed "vgsim"))
    in
    match
      Vg_compiler.Trans_cache.find
        (Sva.translation_cache k.Kernel.sva)
        ~name:Kernel_image.name
    with
    | Error e ->
        Printf.printf "kernel: translation cache refused the image: %s\n"
          (Vg_compiler.Trans_cache.describe_find_error e);
        false
    | Ok image -> report_of "kernel (booted, from signed cache)" image
  in
  let run kernel_only module_only =
    let ok =
      if kernel_only then verify_booted_kernel ()
      else
        match module_only with
        | Some name -> (
            match List.assoc_opt name (verify_catalogue ()) with
            | Some program -> verify_program (name, program)
            | None ->
                Printf.printf "unknown module %s (catalogue: %s)\n" name
                  (String.concat ", " (List.map fst (verify_catalogue ())));
                Stdlib.exit 2)
        | None ->
            List.for_all Fun.id
              (verify_booted_kernel ()
               :: List.map verify_program (verify_catalogue ()))
    in
    print_endline
      (if ok then "verify: all functions PROVEN"
       else "verify: UNPROVEN functions found");
    if not ok then Stdlib.exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Statically re-prove the sandbox and CFI invariants on translated \
          native images (per-function report; nonzero exit on any unproven \
          function).")
    Term.(const run $ kernel_arg $ module_arg)

(* -- attack --------------------------------------------------------- *)

let attack_cmd =
  let attack_conv =
    let parse = function
      | "direct" -> Ok Vg_attacks.Rootkit.Direct_read
      | "inject" -> Ok Vg_attacks.Rootkit.Signal_inject
      | s -> Error (`Msg (Printf.sprintf "unknown attack %s (direct|inject)" s))
    in
    let print fmt = function
      | Vg_attacks.Rootkit.Direct_read -> Format.pp_print_string fmt "direct"
      | Vg_attacks.Rootkit.Signal_inject -> Format.pp_print_string fmt "inject"
    in
    Arg.conv (parse, print)
  in
  let attack_arg =
    Arg.(value & opt attack_conv Vg_attacks.Rootkit.Direct_read
         & info [ "attack" ] ~doc:"Attack: direct (read victim memory) or inject (signal handler).")
  in
  let run mode cpus attack trace stats =
    with_obs ~trace ~stats (fun obs ->
        let o = Vg_attacks.Rootkit.run_experiment ~cpus ~obs ~mode ~attack () in
        Format.printf "%a@." Vg_attacks.Rootkit.pp_outcome o;
        let stolen =
          o.Vg_attacks.Rootkit.secret_leaked_to_console || o.secret_in_exfil_file
        in
        Format.printf "verdict: the secret was %s@."
          (if stolen then "STOLEN" else "NOT obtained"))
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Run a section-7 rootkit experiment.")
    Term.(const run $ mode_arg $ cpus_arg $ attack_arg $ trace_arg $ stats_arg)

(* -- spectre -------------------------------------------------------- *)

let spectre_cmd =
  let depth_arg =
    Arg.(
      value & opt int 12
      & info [ "spec-depth" ] ~docv:"N"
          ~doc:
            "Speculative-window budget in macro-ops (default 12; the leak \
             needs at least 8, and 0 disables speculation entirely).")
  in
  let run depth mitigation trace stats =
    with_obs ~trace ~stats (fun obs ->
        let o = Vg_attacks.Spectre.run_experiment ~spec_depth:depth ~mitigation ~obs () in
        Format.printf "%a@." Vg_attacks.Spectre.pp_outcome o;
        Format.printf "verdict: the secret was %s@."
          (if o.Vg_attacks.Spectre.success then "STOLEN transiently"
           else "NOT obtained"))
  in
  Cmd.v
    (Cmd.info "spectre"
       ~doc:
         "Run the Spectre-v1 flush+reload attack against ghost memory: a \
          hostile module leaks the ssh-agent key byte-by-byte through the \
          cache side channel of mispredicted sandbox masks.")
    Term.(const run $ depth_arg $ mitigation_arg $ trace_arg $ stats_arg)

(* -- sealed store demo ---------------------------------------------- *)

let sealed_cmd =
  let run () =
    let k =
      Node.kernel
        (Node.boot
           Node_config.(
             default |> with_phys_frames 16384 |> with_disk_sectors 16384
             |> with_seed "sealed"))
    in
    let _, _, image = Ssh_suite.install_images k ~app_key:(Bytes.make 16 's') in
    Runtime.launch k ~image ~ghosting:true (fun ctx ->
        let show = function
          | Ok data -> Printf.printf "loaded: %S\n" (Bytes.to_string data)
          | Error e -> Format.printf "load refused: %a@." Sealed_store.pp_error e
        in
        (match Sealed_store.save ctx ~path:"/cfg" (Bytes.of_string "version-1") with
        | Ok () -> print_endline "saved version-1 (sealed, replay-protected)"
        | Error e -> Format.printf "save: %a@." Sealed_store.pp_error e);
        (* Keep a copy of the file as the hostile OS would. *)
        let stale =
          match Diskfs.lookup k.Kernel.fs "/cfg" with
          | Ok ino -> (
              match Diskfs.stat k.Kernel.fs ~ino with
              | Ok st -> Diskfs.read k.Kernel.fs ~ino ~off:0 ~len:st.Diskfs.size
              | Error e -> Error e)
          | Error e -> Error e
        in
        (match Sealed_store.save ctx ~path:"/cfg" (Bytes.of_string "version-2") with
        | Ok () -> print_endline "saved version-2"
        | Error e -> Format.printf "save: %a@." Sealed_store.pp_error e);
        show (Sealed_store.load ctx ~path:"/cfg");
        (* OS restores the old file... *)
        (match (stale, Diskfs.lookup k.Kernel.fs "/cfg") with
        | Ok bytes, Ok ino ->
            ignore (Diskfs.truncate k.Kernel.fs ~ino ~len:0);
            ignore (Diskfs.write k.Kernel.fs ~ino ~off:0 bytes);
            print_endline "(hostile OS silently restored the version-1 file)"
        | _ -> ());
        show (Sealed_store.load ctx ~path:"/cfg"))
  in
  Cmd.v
    (Cmd.info "sealed" ~doc:"Demonstrate replay-protected sealed storage.")
    Term.(const run $ const ())

(* -- lmbench -------------------------------------------------------- *)

let lmbench_cmd =
  let ops =
    [
      ("null", Lmbench.null_syscall);
      ("open-close", Lmbench.open_close);
      ("mmap", Lmbench.mmap_bench);
      ("page-fault", Lmbench.page_fault);
      ("sig-install", Lmbench.signal_install);
      ("sig-deliver", Lmbench.signal_delivery);
      ("fork-exit", Lmbench.fork_exit);
      ("select", Lmbench.select_10);
    ]
  in
  let op_arg =
    Arg.(
      value
      & opt (enum (List.map (fun (name, _) -> (name, name)) ops)) "null"
      & info [ "op" ] ~doc:("Operation: " ^ doc_alts_enum ops ^ "."))
  in
  let iters_arg =
    Arg.(value & opt int 500 & info [ "iterations" ] ~doc:"Iterations.")
  in
  let run config op iterations trace stats =
    with_obs ~trace ~stats (fun obs ->
        let kernel = Node.kernel (Node.boot (Node_config.with_obs obs config)) in
        Runtime.launch kernel ~ghosting:false (fun ctx ->
            let f = List.assoc op ops in
            Printf.printf "%s: %.3f us per operation (simulated)\n" op
              (f ctx ~iterations)))
  in
  Cmd.v
    (Cmd.info "lmbench" ~doc:"Run one LMBench micro-operation.")
    Term.(const run $ config_term $ op_arg $ iters_arg $ trace_arg $ stats_arg)

(* -- httpd worker pool ---------------------------------------------- *)

let httpd_cmd =
  let requests_arg =
    Arg.(value & opt int 32 & info [ "requests" ] ~doc:"Client requests to serve.")
  in
  let event_loop_arg =
    Arg.(value & flag
         & info [ "event-loop" ]
             ~doc:"Serve with one event loop per core over the batched \
                   syscall ring instead of the worker pool.")
  in
  let batch_arg =
    Arg.(value & opt int 8
         & info [ "batch" ] ~doc:"Ring submissions per ring_enter trap \
                                  (event-loop mode only).")
  in
  let run config requests event_loop batch trace stats =
    with_obs ~trace ~stats (fun obs ->
        let node = Node.boot (Node_config.with_obs obs config) in
        let machine = Node.machine node and kernel = Node.kernel node in
        (match Diskfs.create kernel.Kernel.fs "/index.html" with
        | Error _ -> failwith "create /index.html"
        | Ok ino ->
            let body = Bytes.init 8192 (fun i -> Char.chr ((i * 131) land 0xff)) in
            ignore (Diskfs.write kernel.Kernel.fs ~ino ~off:0 body));
        if event_loop then begin
          let st =
            Httpd.Event_loop.run kernel ~batch ~requests ~port:80
              ~path:"/index.html"
          in
          let seconds = Cost.to_seconds st.Httpd.Event_loop.elapsed_cycles in
          Printf.printf
            "httpd: event loops on %d cores served %d/%d (ok=%d) in %d cycles \
             (%.1f req/s simulated; batch=%d ring_enters=%d sqes=%d polls=%d \
             preemptions=%d steals=%d)\n"
            st.Httpd.Event_loop.cores st.Httpd.Event_loop.served requests
            st.Httpd.Event_loop.ok st.Httpd.Event_loop.elapsed_cycles
            (if seconds > 0.0 then
               float_of_int st.Httpd.Event_loop.ok /. seconds
             else 0.0)
            st.Httpd.Event_loop.batch st.Httpd.Event_loop.ring_enters
            st.Httpd.Event_loop.sqes st.Httpd.Event_loop.polls
            st.Httpd.Event_loop.preemptions st.Httpd.Event_loop.steals
        end
        else begin
          let st =
            Httpd.Pool.run kernel ~workers:(Machine.cpus machine) ~requests ~port:80
              ~path:"/index.html"
          in
          let seconds = Cost.to_seconds st.Httpd.Pool.elapsed_cycles in
          Printf.printf
            "httpd: %d workers on %d cores served %d/%d (ok=%d) in %d cycles \
             (%.1f req/s simulated; preemptions=%d steals=%d)\n"
            st.Httpd.Pool.workers (Machine.cpus machine) st.Httpd.Pool.served
            requests st.Httpd.Pool.ok st.Httpd.Pool.elapsed_cycles
            (if seconds > 0.0 then float_of_int st.Httpd.Pool.ok /. seconds
             else 0.0)
            st.Httpd.Pool.preemptions st.Httpd.Pool.steals
        end)
  in
  Cmd.v
    (Cmd.info "httpd"
       ~doc:
         "Serve an 8KB document under the preemptive scheduler: a worker \
          pool per core, or (with --event-loop) a per-core event loop \
          batching syscalls through the submission ring.")
    Term.(const run $ config_term $ requests_arg $ event_loop_arg $ batch_arg
          $ trace_arg $ stats_arg)

(* -- postmark ------------------------------------------------------- *)

let postmark_cmd =
  let tx_arg =
    Arg.(value & opt int 5000 & info [ "transactions" ] ~doc:"Transaction count.")
  in
  let files_arg =
    Arg.(value & opt int 100 & info [ "files" ] ~doc:"Base file count.")
  in
  let run config transactions base_files trace stats =
    with_obs ~trace ~stats (fun obs ->
        let node = Node.boot (Node_config.with_obs obs config) in
        let machine = Node.machine node and kernel = Node.kernel node in
        Runtime.launch kernel ~ghosting:false (fun ctx ->
            let config = { Postmark.paper_config with transactions; base_files } in
            let start = Machine.cycles machine in
            match Postmark.run ctx config with
            | Error e -> Format.printf "postmark failed: %a@." Errno.pp e
            | Ok st ->
                let seconds = Cost.to_seconds (Machine.cycles machine - start) in
                Printf.printf
                  "postmark: %.3f simulated seconds (created=%d deleted=%d reads=%d appends=%d)\n"
                  seconds st.Postmark.created st.Postmark.deleted st.Postmark.reads
                  st.Postmark.appends))
  in
  Cmd.v
    (Cmd.info "postmark" ~doc:"Run the Postmark file-system benchmark.")
    Term.(const run $ config_term $ tx_arg $ files_arg $ trace_arg $ stats_arg)

(* -- fleet ---------------------------------------------------------- *)

let fleet_cmd =
  let nodes_arg =
    Arg.(
      value & opt int 3
      & info [ "nodes" ] ~docv:"N" ~doc:"Backends in the fleet (default 3).")
  in
  let requests_arg =
    Arg.(
      value & opt int 24
      & info [ "requests" ] ~doc:"Client requests for the serving wave.")
  in
  let policy_conv =
    let parse s =
      match Lb.policy_of_string s with
      | Some p -> Ok p
      | None -> Error (`Msg (Printf.sprintf "unknown policy %s (rr|lc)" s))
    in
    let print fmt p = Format.pp_print_string fmt (Lb.policy_to_string p) in
    Arg.conv (parse, print)
  in
  let policy_arg =
    Arg.(
      value
      & opt policy_conv Lb.Round_robin
      & info [ "policy" ]
          ~doc:
            "Balancing policy: rr (round-robin) or lc (least-connections).")
  in
  let mixed_arg =
    Arg.(
      value & flag
      & info [ "mixed" ]
          ~doc:
            "Run the background mixed load (ghosting Postmark plus the ssh \
             key chain) on every serving node alongside the HTTP wave.")
  in
  let run mode cpus nodes requests policy mixed trace stats =
    (* Fleet nodes report to the fleet's private hubs: --trace and
       --stats see none of them. *)
    with_obs ~trace ~stats (fun _ ->
        let config = Node_config.(default |> with_cpus cpus |> with_mode mode |> with_seed "fleet") in
        let fleet = Fleet.create ~policy ~nodes config in
        Fleet.listen_all fleet ~port:80;
        Fleet.setup_www fleet ~path:"/index.html"
          (Bytes.init 8192 (fun i -> Char.chr ((i * 131) land 0xff)));
        Printf.printf "fleet: %d nodes (%s), %s balancing\n" nodes
          (Node_config.describe config)
          (Lb.policy_to_string policy);
        let wave =
          Fleet.serve_wave ~mixed fleet ~port:80 ~path:"/index.html" ~requests
        in
        Array.iter
          (fun (r : Fleet.node_report) ->
            Printf.printf
              "  node %d: assigned=%d ok=%d %.1f req/s (%d cycles)%s\n"
              r.Fleet.node_id r.Fleet.assigned r.Fleet.ok (Fleet.report_rps r)
              r.Fleet.elapsed_cycles
              (match Fleet.last_mixed fleet r.Fleet.node_id with
              | Some m when mixed ->
                  Printf.sprintf " [postmark tx=%d ssh=%s]" m.Fleet.postmark_tx
                    (if m.Fleet.ssh_ok then "ok" else "FAILED")
              | _ -> ""))
          wave.Fleet.per_node;
        Printf.printf
          "  aggregate: %d/%d ok, %d dropped, %.1f req/s over %d cycles\n"
          wave.Fleet.ok wave.Fleet.requests wave.Fleet.dropped
          (Fleet.wave_rps wave) wave.Fleet.elapsed_cycles)
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Boot an N-node fleet wired NIC-to-NIC, balance a wave of HTTP \
          requests across the event-loop backends and print per-node and \
          aggregate throughput.")
    Term.(const run $ mode_arg $ cpus_arg $ nodes_arg $ requests_arg
          $ policy_arg $ mixed_arg $ trace_arg $ stats_arg)

(* -- policy --------------------------------------------------------- *)

let policy_cmd =
  let app_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"APP"
          ~doc:
            "What to profile.  $(b,httpd), $(b,postmark) or $(b,ssh) record \
             a syscall-flow profile by running the app's workload once under \
             a Record-mode policy; a catalogue module name ($(b,kernel), \
             $(b,const-read), $(b,iago-mmap), $(b,rootkit-direct), \
             $(b,rootkit-inject)) extracts one statically from the linked \
             image at translation time.")
  in
  let print_policy ~how name pol =
    let wire = Syscall_policy.to_profile pol in
    Printf.printf "%s: syscall-flow profile (%s, %d bytes signed into the image)\n"
      name how (Bytes.length wire);
    Format.printf "%a@." Syscall_policy.pp pol
  in
  let record workload =
    let recorder = Syscall_policy.record () in
    workload recorder;
    recorder
  in
  let run app cpus =
    let recorded_app k = function
      | "httpd" ->
          Some
            (record (fun sfip ->
                 (match Diskfs.create k.Kernel.fs "/index.html" with
                 | Error _ -> failwith "create /index.html"
                 | Ok ino ->
                     ignore
                       (Diskfs.write k.Kernel.fs ~ino ~off:0 (Bytes.make 8192 'x')));
                 ignore
                   (Httpd.Event_loop.run k ~batch:8 ~sfip ~requests:8 ~port:80
                      ~path:"/index.html")))
      | "postmark" ->
          Some
            (record (fun sfip ->
                 Runtime.launch k ~sfip ~ghosting:false (fun ctx ->
                     let config =
                       { Postmark.paper_config with transactions = 200; base_files = 20 }
                     in
                     match Postmark.run ctx config with
                     | Ok _ -> ()
                     | Error e -> failwith ("postmark: " ^ Errno.to_string e))))
      | "ssh" ->
          Some
            (record (fun sfip ->
                 let ssh_img, keygen_img, _ =
                   Ssh_suite.install_images k ~app_key:(Bytes.make 16 'p')
                 in
                 Runtime.launch k ~image:keygen_img ~sfip ~ghosting:true
                   (fun ctx -> ignore (Ssh_suite.keygen ctx ~path:"/id"));
                 Runtime.launch k ~image:ssh_img ~sfip ~ghosting:true (fun ctx ->
                     ignore (Ssh_suite.load_private_key ctx ~path:"/id"))))
      | _ -> None
    in
    let k = Node.kernel (Node.boot Node_config.(default |> with_cpus cpus |> with_seed "vgsim")) in
    match recorded_app k app with
    | Some pol -> print_policy ~how:"recorded from the workload" app pol
    | None -> (
        match List.assoc_opt app (verify_catalogue ()) with
        | Some program ->
            let compiled =
              Vg_compiler.Pipeline.compile_kernel_code
                ~mode:Vg_compiler.Pipeline.Virtual_ghost program
            in
            let graph =
              Syscall_policy.extract compiled.Vg_compiler.Pipeline.linked
            in
            print_policy ~how:"extracted at link time" app
              (Syscall_policy.enforce graph)
        | None ->
            Printf.printf "unknown app %s (apps: httpd, postmark, ssh; catalogue: %s)\n"
              app
              (String.concat ", " (List.map fst (verify_catalogue ())));
            Stdlib.exit 2)
  in
  Cmd.v
    (Cmd.info "policy"
       ~doc:
         "Print an application's syscall-flow-integrity profile — the \
          transition graph the kernel enforces at dispatch — recorded from \
          a workload run or extracted statically from a linked image.")
    Term.(const run $ app_arg $ cpus_arg)

let () =
  let doc = "Virtual Ghost (ASPLOS 2014) reproduction simulator" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "vgsim" ~doc)
          [
            info_cmd; verify_cmd; attack_cmd; spectre_cmd; lmbench_cmd;
            postmark_cmd; sealed_cmd; httpd_cmd; fleet_cmd; policy_cmd;
          ]))
