(* Benchmark harness regenerating every table and figure of the
   paper's evaluation (section 8), plus the security experiments
   (section 7) and the ablations called out in DESIGN.md.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- table2       -- one experiment
     dune exec bench/main.exe -- --list
     dune exec bench/main.exe -- --bechamel   -- host-time microbenches

   All latencies and bandwidths are *simulated* quantities read off the
   machine's cycle clock at the paper's 3.4 GHz; the goal is the shape
   of the paper's results (who wins, by what factor), not the absolute
   numbers of the authors' testbed. *)

let section title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n"

(* Every bench kernel boots through the fleet Node_config: the bench
   profile is a big machine (256 MiB, 64 MiB disk). *)
let bench_config ?(seed = "bench") ?(cpus = 1) ?(spec_depth = 0) mode =
  Node_config.(
    default |> with_cpus cpus |> with_phys_frames 65536
    |> with_disk_sectors 131072 |> with_seed seed |> with_mode mode
    |> with_spec_depth spec_depth)

let boot_fresh ?seed mode = Node.kernel (Node.boot (bench_config ?seed mode))

let with_ctx mode ~ghosting f =
  let k = boot_fresh mode in
  Runtime.launch k ~ghosting (fun ctx -> f k ctx)

(* ------------------------------------------------------------------ *)
(* Table 2: LMBench latencies                                          *)

type lm_row = {
  name : string;
  run : Runtime.ctx -> iterations:int -> float;
  iterations : int;
  paper_native_us : float;
  paper_vg_us : float;
  paper_inktag_x : float option;
}

let lmbench_rows k =
  (* fork+exec needs a signed image; reuse one per kernel. *)
  let image, _, _ = Ssh_suite.install_images k ~app_key:(Bytes.make 16 'b') in
  [
    { name = "null syscall"; run = Lmbench.null_syscall; iterations = 1000;
      paper_native_us = 0.091; paper_vg_us = 0.355; paper_inktag_x = Some 55.8 };
    { name = "open/close"; run = Lmbench.open_close; iterations = 1000;
      paper_native_us = 2.01; paper_vg_us = 9.70; paper_inktag_x = Some 7.95 };
    { name = "mmap"; run = Lmbench.mmap_bench; iterations = 500;
      paper_native_us = 7.06; paper_vg_us = 33.2; paper_inktag_x = Some 9.94 };
    { name = "page fault"; run = Lmbench.page_fault; iterations = 1000;
      paper_native_us = 31.8; paper_vg_us = 36.7; paper_inktag_x = Some 7.50 };
    { name = "signal install"; run = Lmbench.signal_install; iterations = 1000;
      paper_native_us = 0.168; paper_vg_us = 0.545; paper_inktag_x = None };
    { name = "signal delivery"; run = Lmbench.signal_delivery; iterations = 1000;
      paper_native_us = 1.27; paper_vg_us = 2.05; paper_inktag_x = None };
    { name = "fork + exit"; run = Lmbench.fork_exit; iterations = 300;
      paper_native_us = 63.7; paper_vg_us = 283.0; paper_inktag_x = None };
    { name = "fork + exec";
      run = (fun ctx ~iterations -> Lmbench.fork_exec ctx ~image ~iterations);
      iterations = 200;
      paper_native_us = 101.0; paper_vg_us = 422.0; paper_inktag_x = None };
    { name = "select (10 fds)"; run = Lmbench.select_10; iterations = 1000;
      paper_native_us = 3.05; paper_vg_us = 10.3; paper_inktag_x = None };
  ]

let run_lm_row mode (row : lm_row) =
  with_ctx mode ~ghosting:false (fun _k ctx -> row.run ctx ~iterations:row.iterations)

(* Overhead attribution: the per-tag cycle deltas between the VG and
   native legs decompose a Table 2 row into the paper's cost sources —
   trap entry, interrupt-context save + register zeroing, sandbox
   masking, CFI checks, MMU vetting, ghost crypto. *)
let attribution_tags =
  [
    (Obs.Tag.Trap, "trap");
    (Obs.Tag.Trap_save, "ic-save+zero");
    (Obs.Tag.Trap_return, "trap-return");
    (Obs.Tag.Mask, "mask");
    (Obs.Tag.Cfi, "cfi");
    (Obs.Tag.Mmu_check, "mmu-check");
    (Obs.Tag.Crypto, "crypto");
    (Obs.Tag.Zero, "zero");
    (Obs.Tag.Swap, "swap");
    (Obs.Tag.Spec, "spec");
  ]

let attribution ~native ~vg =
  let parts =
    List.filter_map
      (fun (tag, label) ->
        let d = Obs_stats.cycles vg tag - Obs_stats.cycles native tag in
        if d <= 0 then None else Some (label, d))
      attribution_tags
  in
  let delta_total = Obs_stats.total_cycles vg - Obs_stats.total_cycles native in
  let attributed = List.fold_left (fun acc (_, d) -> acc + d) 0 parts in
  let other = delta_total - attributed in
  let parts = if other > 0 then parts @ [ ("other", other) ] else parts in
  (parts, max delta_total 1)

let print_attribution r parts total =
  Bench_report.linef r "    overhead attribution:";
  List.iter
    (fun (label, d) ->
      Bench_report.linef r " %s %.1f%%" label
        (100.0 *. float_of_int d /. float_of_int total))
    parts;
  Bench_report.linef r "\n"

let table2 () =
  let r =
    Bench_report.create ~name:"table2"
      ~title:"Table 2: LMBench latencies (microseconds; paper in parens)"
  in
  Bench_report.linef r "%-18s %12s %12s %9s %9s %9s\n" "test" "native(us)" "vg(us)"
    "ovh(x)" "paper(x)" "inktag(x)";
  let k = boot_fresh Sva.Virtual_ghost in
  List.iter
    (fun row ->
      let native, st_native =
        Bench_report.with_stats (fun () -> run_lm_row Sva.Native_build row)
      in
      let vg, st_vg =
        Bench_report.with_stats (fun () -> run_lm_row Sva.Virtual_ghost row)
      in
      let paper_x = row.paper_vg_us /. row.paper_native_us in
      Bench_report.linef r "%-18s %8.3f(%.3f) %8.3f(%.3f) %8.2fx %8.2fx %s\n" row.name
        native row.paper_native_us vg row.paper_vg_us (vg /. native) paper_x
        (match row.paper_inktag_x with
        | Some x -> Printf.sprintf "%8.2fx" x
        | None -> "      - ");
      let parts, delta_total = attribution ~native:st_native ~vg:st_vg in
      print_attribution r parts delta_total;
      Bench_report.row r ~label:row.name
        [
          ("native_us", Bench_report.num native);
          ("vg_us", Bench_report.num vg);
          ("overhead_x", Bench_report.num (vg /. native));
          ("paper_native_us", Bench_report.num row.paper_native_us);
          ("paper_vg_us", Bench_report.num row.paper_vg_us);
          ("paper_overhead_x", Bench_report.num paper_x);
          ( "attribution_cycles",
            Obs_json.Obj (List.map (fun (l, d) -> (l, Bench_report.int d)) parts) );
          ("overhead_cycles_total", Bench_report.int delta_total);
        ])
    (lmbench_rows k);
  Bench_report.finish r

(* ------------------------------------------------------------------ *)
(* Tables 3 and 4: file delete / create per second                     *)

let table34 () =
  let r =
    Bench_report.create ~name:"table34"
      ~title:"Tables 3 & 4: LMBench file create/delete per second (paper in parens)"
  in
  let sizes = [ (0, 166846., 36164., 156276., 33777.);
                (1024, 116668., 25817., 97839., 18796.);
                (4096, 116657., 25806., 97102., 18725.);
                (10240, 110842., 25042., 85319., 18095.) ] in
  Bench_report.linef r "%-8s | %28s | %28s\n" "size" "deletions/sec nat vs vg"
    "creations/sec nat vs vg";
  List.iter
    (fun (size, pdn, pdv, pcn, pcv) ->
      let del mode =
        with_ctx mode ~ghosting:false (fun _ ctx ->
            Lmbench.per_second (Lmbench.file_delete ctx ~size ~iterations:300))
      in
      let cre mode =
        with_ctx mode ~ghosting:false (fun _ ctx ->
            Lmbench.per_second (Lmbench.file_create ctx ~size ~iterations:300))
      in
      let dn = del Sva.Native_build and dv = del Sva.Virtual_ghost in
      let cn = cre Sva.Native_build and cv = cre Sva.Virtual_ghost in
      Bench_report.linef r
        "%-8d | %9.0f %9.0f %5.2fx (%4.2fx) | %9.0f %9.0f %5.2fx (%4.2fx)\n" size dn dv
        (dn /. dv) (pdn /. pdv) cn cv (cn /. cv) (pcn /. pcv);
      Bench_report.row r ~label:(Printf.sprintf "%d-bytes" size)
        [
          ("file_size_bytes", Bench_report.int size);
          ("delete_native_per_sec", Bench_report.num dn);
          ("delete_vg_per_sec", Bench_report.num dv);
          ("delete_slowdown_x", Bench_report.num (dn /. dv));
          ("paper_delete_slowdown_x", Bench_report.num (pdn /. pdv));
          ("create_native_per_sec", Bench_report.num cn);
          ("create_vg_per_sec", Bench_report.num cv);
          ("create_slowdown_x", Bench_report.num (cn /. cv));
          ("paper_create_slowdown_x", Bench_report.num (pcn /. pcv));
        ])
    sizes;
  Bench_report.finish r

(* ------------------------------------------------------------------ *)
(* Figure 2: thttpd bandwidth                                          *)

let kb = 1024

let figure_sizes = [ 1 * kb; 4 * kb; 16 * kb; 64 * kb; 256 * kb; 1024 * kb ]

let make_fs_file k path size =
  match Diskfs.create k.Kernel.fs path with
  | Error _ -> failwith ("create " ^ path)
  | Ok ino -> (
      (* Random-ish data, as the paper generates from /dev/random. *)
      let data = Bytes.init size (fun i -> Char.chr ((i * 131) land 0xff)) in
      match Diskfs.write k.Kernel.fs ~ino ~off:0 data with
      | Ok _ -> ()
      | Error _ -> failwith ("write " ^ path))

let thttpd_bandwidth mode size ~requests =
  let k = boot_fresh mode in
  make_fs_file k "/doc" size;
  Runtime.launch k ~ghosting:false (fun ctx ->
      match Httpd.start ctx ~port:80 with
      | Error _ -> 0.0
      | Ok listen_fd ->
          let machine = k.Kernel.machine in
          (* warm the page cache with one untimed request *)
          ignore
            (Httpd.Client.get machine ~port:80 ~path:"/doc" (fun () ->
                 ignore (Httpd.serve_requests ctx ~listen_fd ~max:1)));
          let start = Machine.cycles machine in
          let ok = ref 0 in
          for _ = 1 to requests do
            match
              Httpd.Client.get machine ~port:80 ~path:"/doc" (fun () ->
                  ignore (Httpd.serve_requests ctx ~listen_fd ~max:1))
            with
            | Some body when Bytes.length body = size -> incr ok
            | Some _ | None -> ()
          done;
          let seconds = Cost.to_seconds (Machine.cycles machine - start) in
          if !ok = 0 then 0.0
          else float_of_int (!ok * size) /. 1024.0 /. seconds)

let figure2 () =
  let r =
    Bench_report.create ~name:"figure2"
      ~title:"Figure 2: thttpd average bandwidth (KB/s; higher is better)"
  in
  Bench_report.linef r "%-10s %14s %14s %10s\n" "file size" "native KB/s" "vg KB/s"
    "ratio";
  List.iter
    (fun size ->
      let requests = if size >= 256 * kb then 5 else 20 in
      let native = thttpd_bandwidth Sva.Native_build size ~requests in
      let vg = thttpd_bandwidth Sva.Virtual_ghost size ~requests in
      Bench_report.linef r "%7dKB %14.0f %14.0f %9.2fx\n" (size / kb) native vg
        (native /. vg);
      Bench_report.row r ~label:(Printf.sprintf "%dKB" (size / kb))
        [
          ("file_size_bytes", Bench_report.int size);
          ("native_kb_per_sec", Bench_report.num native);
          ("vg_kb_per_sec", Bench_report.num vg);
          ("ratio_x", Bench_report.num (native /. vg));
        ])
    figure_sizes;
  Bench_report.note r "(paper: negligible impact at all sizes)";
  Bench_report.finish r

(* ------------------------------------------------------------------ *)
(* Figure 3: sshd download bandwidth                                   *)

let session_key = Bytes.of_string "fedcba9876543210"

let sshd_bandwidth mode size =
  let k = boot_fresh mode in
  make_fs_file k "/file" size;
  Runtime.launch k ~ghosting:false (fun ctx ->
      match Syscalls.listen k (Kernel.current_proc k) ~port:22 with
      | Error _ -> 0.0
      | Ok listen_fd ->
          let machine = k.Kernel.machine in
          let run () =
            let ep = Netstack.Remote.connect (Machine.remote_nic machine) ~port:22 in
            (match Ssh_suite.sshd_serve_file ctx ~listen_fd ~path:"/file" ~session_key with
            | Ok _ -> ()
            | Error msg -> failwith msg);
            ignore (Netstack.Remote.recv_all_available ep);
            Netstack.Remote.close ep
          in
          run () (* warm the cache *);
          let iterations = if size >= 256 * kb then 3 else 10 in
          let start = Machine.cycles machine in
          for _ = 1 to iterations do
            run ()
          done;
          let seconds = Cost.to_seconds (Machine.cycles machine - start) in
          float_of_int (iterations * size) /. 1024.0 /. seconds)

let figure3 () =
  let r =
    Bench_report.create ~name:"figure3"
      ~title:"Figure 3: sshd (non-ghosting) download bandwidth (KB/s)"
  in
  Bench_report.linef r "%-10s %14s %14s %10s\n" "file size" "native KB/s" "vg KB/s"
    "reduction";
  List.iter
    (fun size ->
      let native = sshd_bandwidth Sva.Native_build size in
      let vg = sshd_bandwidth Sva.Virtual_ghost size in
      let reduction = (native -. vg) /. native *. 100.0 in
      Bench_report.linef r "%7dKB %14.0f %14.0f %9.1f%%\n" (size / kb) native vg
        reduction;
      Bench_report.row r ~label:(Printf.sprintf "%dKB" (size / kb))
        [
          ("file_size_bytes", Bench_report.int size);
          ("native_kb_per_sec", Bench_report.num native);
          ("vg_kb_per_sec", Bench_report.num vg);
          ("reduction_pct", Bench_report.num reduction);
        ])
    figure_sizes;
  Bench_report.note r
    "(paper: 23% reduction on average, 45% worst case, ~0 for large files)";
  Bench_report.finish r

(* ------------------------------------------------------------------ *)
(* Figure 4: ghosting vs original ssh client (both on the VG kernel)   *)

let ssh_client_bandwidth ~ghosting size =
  let k = boot_fresh Sva.Virtual_ghost in
  Runtime.launch k ~ghosting (fun ctx ->
      let machine = k.Kernel.machine in
      let run () =
        match Ssh_suite.fetch_begin ctx ~port:2022 with
        | Error _ -> failwith "connect"
        | Ok fd ->
            if not (Ssh_suite.remote_file_server machine ~session_key ~len:size ~chunk:1400)
            then failwith "no SYN";
            (match Ssh_suite.fetch_complete ctx ~fd ~len:size ~session_key with
            | Ok _ -> ()
            | Error msg -> failwith msg);
            ignore (Runtime.sys_close ctx fd)
      in
      run () (* warm *);
      let iterations = if size >= 256 * kb then 3 else 10 in
      let start = Machine.cycles machine in
      for _ = 1 to iterations do
        run ()
      done;
      let seconds = Cost.to_seconds (Machine.cycles machine - start) in
      float_of_int (iterations * size) /. 1024.0 /. seconds)

let figure4 () =
  let r =
    Bench_report.create ~name:"figure4"
      ~title:"Figure 4: ssh client transfer rate, original vs ghosting (VG kernel)"
  in
  Bench_report.linef r "%-10s %14s %14s %10s\n" "file size" "orig KB/s"
    "ghosting KB/s" "reduction";
  List.iter
    (fun size ->
      let original = ssh_client_bandwidth ~ghosting:false size in
      let ghosting = ssh_client_bandwidth ~ghosting:true size in
      let reduction = (original -. ghosting) /. original *. 100.0 in
      Bench_report.linef r "%7dKB %14.0f %14.0f %9.1f%%\n" (size / kb) original
        ghosting reduction;
      Bench_report.row r ~label:(Printf.sprintf "%dKB" (size / kb))
        [
          ("file_size_bytes", Bench_report.int size);
          ("original_kb_per_sec", Bench_report.num original);
          ("ghosting_kb_per_sec", Bench_report.num ghosting);
          ("reduction_pct", Bench_report.num reduction);
        ])
    figure_sizes;
  Bench_report.note r "(paper: at most 5% reduction from using ghost memory)";
  Bench_report.finish r

(* ------------------------------------------------------------------ *)
(* Table 5: Postmark                                                   *)

let postmark_time mode ~transactions =
  let k = boot_fresh mode in
  Runtime.launch k ~ghosting:false (fun ctx ->
      let machine = k.Kernel.machine in
      let config =
        { Postmark.paper_config with base_files = 100; transactions; seed = 42 }
      in
      let start = Machine.cycles machine in
      (match Postmark.run ctx config with
      | Ok _ -> ()
      | Error e -> failwith ("postmark: " ^ Errno.to_string e));
      Cost.to_seconds (Machine.cycles machine - start))

let table5 () =
  let r =
    Bench_report.create ~name:"table5"
      ~title:"Table 5: Postmark (simulated seconds; scaled to 20k transactions)"
  in
  let transactions = 20_000 in
  let native, st_native =
    Bench_report.with_stats (fun () -> postmark_time Sva.Native_build ~transactions)
  in
  let vg, st_vg =
    Bench_report.with_stats (fun () -> postmark_time Sva.Virtual_ghost ~transactions)
  in
  let paper_x = 67.50 /. 14.30 in
  Bench_report.linef r "%-14s %10s %10s %8s %10s\n" "benchmark" "native(s)" "vg(s)"
    "ovh" "paper";
  Bench_report.linef r "%-14s %10.3f %10.3f %7.2fx %9.2fx\n" "postmark" native vg
    (vg /. native) paper_x;
  let parts, delta_total = attribution ~native:st_native ~vg:st_vg in
  print_attribution r parts delta_total;
  Bench_report.row r ~label:"postmark"
    [
      ("transactions", Bench_report.int transactions);
      ("native_seconds", Bench_report.num native);
      ("vg_seconds", Bench_report.num vg);
      ("overhead_x", Bench_report.num (vg /. native));
      ("paper_overhead_x", Bench_report.num paper_x);
      ( "attribution_cycles",
        Obs_json.Obj (List.map (fun (l, d) -> (l, Bench_report.int d)) parts) );
    ];
  Bench_report.finish r

(* ------------------------------------------------------------------ *)
(* Additional LMBench-style microbenchmarks (beyond Table 2)           *)

let extra_micro () =
  let r =
    Bench_report.create ~name:"extra_micro"
      ~title:"Additional microbenchmarks (beyond the paper's Table 2)"
  in
  let rows =
    [
      ("pipe latency (us)", fun ctx -> Lmbench.pipe_latency ctx ~iterations:500);
      ("context switch (us)", fun ctx -> Lmbench.context_switch ctx ~iterations:500);
    ]
  in
  Bench_report.linef r "%-22s %12s %12s %9s\n" "test" "native" "vg" "ovh(x)";
  List.iter
    (fun (name, run) ->
      let go mode = with_ctx mode ~ghosting:false (fun _ ctx -> run ctx) in
      let native = go Sva.Native_build and vg = go Sva.Virtual_ghost in
      Bench_report.linef r "%-22s %12.3f %12.3f %8.2fx\n" name native vg (vg /. native);
      Bench_report.row r ~label:name
        [
          ("native_us", Bench_report.num native);
          ("vg_us", Bench_report.num vg);
          ("overhead_x", Bench_report.num (vg /. native));
        ])
    rows;
  let bw mode = with_ctx mode ~ghosting:false (fun _ ctx -> Lmbench.pipe_bandwidth ctx ~iterations:100) in
  let native = bw Sva.Native_build and vg = bw Sva.Virtual_ghost in
  Bench_report.linef r "%-22s %10.1fMB %10.1fMB %8.2fx (native/vg)\n" "pipe bandwidth"
    native vg (native /. vg);
  Bench_report.row r ~label:"pipe bandwidth"
    [
      ("native_mb_per_sec", Bench_report.num native);
      ("vg_mb_per_sec", Bench_report.num vg);
      ("ratio_x", Bench_report.num (native /. vg));
    ];
  Bench_report.finish r

(* ------------------------------------------------------------------ *)
(* Section 7: security experiments                                     *)

let security () =
  let r =
    Bench_report.create ~name:"security"
      ~title:"Section 7: security experiments (rootkit + other vectors)"
  in
  (* Each leg runs under a stats sink: under VG a blocked attack must
     also announce itself on the event stream, and the count makes the
     JSON row auditable. *)
  let observed f =
    let result, st = Bench_report.with_stats f in
    (result, Obs_stats.security_events st)
  in
  List.iter
    (fun (mode, attack) ->
      let o, sec =
        observed (fun () -> Vg_attacks.Rootkit.run_experiment ~mode ~attack ())
      in
      Bench_report.line r
        (Format.asprintf "  %a@." Vg_attacks.Rootkit.pp_outcome o);
      Bench_report.row r
        ~label:
          (Format.asprintf "rootkit %s on %s"
             (match attack with
             | Vg_attacks.Rootkit.Direct_read -> "direct-read"
             | Vg_attacks.Rootkit.Signal_inject -> "signal-inject")
             (match mode with
             | Sva.Native_build -> "native"
             | Sva.Virtual_ghost -> "vg"))
        [
          ( "secret_stolen",
            Bench_report.bool
              (o.Vg_attacks.Rootkit.secret_leaked_to_console
              || o.Vg_attacks.Rootkit.secret_in_exfil_file) );
          ("victim_survived", Bench_report.bool o.Vg_attacks.Rootkit.victim_survived);
          ("security_events", Bench_report.int sec);
        ])
    [
      (Sva.Native_build, Vg_attacks.Rootkit.Direct_read);
      (Sva.Virtual_ghost, Vg_attacks.Rootkit.Direct_read);
      (Sva.Native_build, Vg_attacks.Rootkit.Signal_inject);
      (Sva.Virtual_ghost, Vg_attacks.Rootkit.Signal_inject);
    ];
  let vector name f =
    let native, native_sec = observed (fun () -> f ~mode:Sva.Native_build) in
    let vg, vg_sec = observed (fun () -> f ~mode:Sva.Virtual_ghost) in
    Bench_report.linef r "  %-28s native:%-9s vg:%s\n" name
      (if native then "STOLEN" else "blocked")
      (if vg then "STOLEN" else "blocked");
    Bench_report.row r ~label:name
      [
        ("native_stolen", Bench_report.bool native);
        ("vg_stolen", Bench_report.bool vg);
        ("native_security_events", Bench_report.int native_sec);
        ("vg_security_events", Bench_report.int vg_sec);
      ]
  in
  vector "mmu remap" Vg_attacks.Other_attacks.mmu_remap_attack;
  vector "dma" Vg_attacks.Other_attacks.dma_attack;
  vector "interrupt-context tamper" Vg_attacks.Other_attacks.icontext_tamper_attack;
  vector "swap tamper" Vg_attacks.Other_attacks.swap_tamper_attack;
  vector "file replay" Vg_attacks.Other_attacks.file_replay_attack;
  let unmasked, unmasked_sec =
    observed (fun () ->
        Vg_attacks.Other_attacks.iago_mmap_attack ~mode:Sva.Virtual_ghost
          ~ghosting:false)
  in
  let masked, masked_sec =
    observed (fun () ->
        Vg_attacks.Other_attacks.iago_mmap_attack ~mode:Sva.Virtual_ghost
          ~ghosting:true)
  in
  Bench_report.linef r "  %-28s unmasked:%-7s masked:%s\n" "iago mmap (on vg kernel)"
    (if unmasked then "CORRUPT" else "safe")
    (if masked then "CORRUPT" else "safe");
  Bench_report.row r ~label:"iago mmap (on vg kernel)"
    [
      ("unmasked_corrupted", Bench_report.bool unmasked);
      ("masked_corrupted", Bench_report.bool masked);
      ("unmasked_security_events", Bench_report.int unmasked_sec);
      ("masked_security_events", Bench_report.int masked_sec);
    ];
  Bench_report.finish r

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

(* Simulated cycles of one run of [entry] on the engine the kernel runs
   module code on. *)
let run_cycles ?(arg = 97L) ~entry artifact =
  let mem = Bytes.make 65536 '\000' in
  let cycles = ref 0 in
  let env =
    {
      Vg_compiler.Exec_env.null_env with
      load =
        (fun addr _ -> Bytes.get_int64_le mem (Int64.to_int (Int64.logand addr 0xfff8L)));
      store =
        (fun addr _ v ->
          Bytes.set_int64_le mem (Int64.to_int (Int64.logand addr 0xfff8L)) v);
      charge = (fun _ n -> cycles := !cycles + n);
    }
  in
  ignore (Vg_compiler.Exec_compile.run env artifact entry [| arg |]);
  !cycles

let compile_linked ~cfi program =
  Vg_compiler.Linker.link (Vg_compiler.Codegen.compile ~cfi program)

let compile_artifact ~cfi program =
  Vg_compiler.Exec_compile.compile (compile_linked ~cfi program)

let pass_cost_table r ~key ~entry title program =
  let sandboxed = Vg_compiler.Sandbox_pass.instrument_program program in
  let cycles ~cfi program = run_cycles ~entry (compile_artifact ~cfi program) in
  let base = cycles ~cfi:false program in
  Bench_report.linef r "  pass cost on %s (executor cycles):\n" title;
  Bench_report.linef r "    %-22s %8d (1.00x)\n" "no instrumentation" base;
  List.iter
    (fun (name, c) ->
      Bench_report.linef r "    %-22s %8d (%.2fx)\n" name c
        (float_of_int c /. float_of_int base);
      Bench_report.row r
        ~label:(Printf.sprintf "pass-cost %s: %s" key name)
        [
          ("fixture", Bench_report.str key);
          ("config", Bench_report.str name);
          ("cycles", Bench_report.int c);
          ("base_cycles", Bench_report.int base);
          ("slowdown_x", Bench_report.num (float_of_int c /. float_of_int base));
        ])
    [
      ("cfi only", cycles ~cfi:true program);
      ("sandboxing only", cycles ~cfi:false sandboxed);
      ("sandbox + cfi", cycles ~cfi:true sandboxed);
    ]

let ablations () =
  let r = Bench_report.create ~name:"ablations" ~title:"Ablations (DESIGN.md section 5)" in
  (* (a) Instruction-level cost of the passes, measured on real
     compiled code in the executor: a memory-bound loop shows the
     sandboxing cost, a call-heavy recursion shows the CFI cost. *)
  pass_cost_table r ~key:"collatz" ~entry:"collatz"
    "a memory-bound kernel loop (collatz)"
    (Vg_oracle.Fixtures.collatz_program ());
  pass_cost_table r ~key:"recsum" ~entry:"sum"
    "call-heavy kernel code (recursive sum)"
    (Vg_oracle.Fixtures.rec_sum_program ());
  (* (b) Ghosting versus the shadowing (Overshadow/InkTag) design: the
     shadowing model must encrypt+hash each application page the kernel
     touches on the syscall path; Virtual Ghost just masks. *)
  let null_vg =
    with_ctx Sva.Virtual_ghost ~ghosting:false (fun _ ctx ->
        Lmbench.null_syscall ctx ~iterations:500)
  in
  let crypt_page_us =
    Cost.to_microseconds (4096 * (Cost.aes_per_byte + Cost.sha_per_byte))
  in
  Bench_report.linef r
    "  shadowing-model estimate: null syscall touching 1 app page would add\n";
  Bench_report.linef r
    "    +%.3f us of encrypt+hash per page versus %.3f us total under ghosting\n"
    crypt_page_us null_vg;
  Bench_report.row r ~label:"shadowing-model estimate"
    [
      ("crypt_page_us", Bench_report.num crypt_page_us);
      ("ghosting_null_syscall_us", Bench_report.num null_vg);
    ];
  (* (c) Register zeroing / IC save share of the trap cost. *)
  Bench_report.linef r
    "  trap-entry composition (cycles): base=%d, vg extra (IC save+zeroing)=%d\n"
    Cost.trap_entry Cost.vg_trap_extra;
  Bench_report.row r ~label:"trap-entry composition"
    [
      ("base_cycles", Bench_report.int Cost.trap_entry);
      ("vg_extra_cycles", Bench_report.int Cost.vg_trap_extra);
    ];
  (* (d) Syscall-argument copying policy: the shadowing systems copy
     every buffer through a bounce region; Virtual Ghost copies only
     ghost-resident data.  Measure a non-ghost bulk write both ways. *)
  let copy_policy selective =
    with_ctx Sva.Virtual_ghost ~ghosting:true (fun k ctx ->
        let fd =
          match Runtime.sys_open ctx "/copy-policy" Syscalls.creat_trunc with
          | Ok fd -> fd
          | Error _ -> failwith "open"
        in
        (* A traditional (non-sensitive) buffer, as in the common case
           the paper calls out. *)
        let len = 65536 in
        let src = Runtime.ualloc ctx len in
        Runtime.poke ctx src (Bytes.make len 'd');
        let machine = k.Kernel.machine in
        let start = Machine.cycles machine in
        for _ = 1 to 20 do
          if selective then
            (* VG policy: non-ghost buffer goes straight through. *)
            ignore (Runtime.sys_write ctx ~fd ~src ~len)
          else begin
            (* copy-always policy: bounce unconditionally. *)
            Runtime.user_memcpy ctx ~dst:ctx.Runtime.bounce ~src ~len:Runtime.bounce_bytes;
            ignore (Runtime.sys_write ctx ~fd ~src:ctx.Runtime.bounce ~len)
          end;
          ignore (Syscalls.lseek k ctx.Runtime.proc ~fd ~pos:0)
        done;
        Cost.to_microseconds (Machine.cycles machine - start) /. 20.0)
  in
  let selective = copy_policy true and always = copy_policy false in
  Bench_report.linef r "  syscall-argument copy policy (64 KiB non-ghost write):\n";
  Bench_report.linef r "    copy-only-ghost (VG)   %10.2f us\n" selective;
  Bench_report.linef r "    copy-always (shadowing)%10.2f us (+%.0f%%)\n" always
    ((always -. selective) /. selective *. 100.0);
  Bench_report.row r ~label:"syscall-argument copy policy"
    [
      ("copy_only_ghost_us", Bench_report.num selective);
      ("copy_always_us", Bench_report.num always);
      ( "copy_always_penalty_pct",
        Bench_report.num ((always -. selective) /. selective *. 100.0) );
    ];
  (* (e) What the optimiser buys on kernel code. *)
  let program = Vg_oracle.Fixtures.collatz_program () in
  let before = Vg_ir.Ir.instr_count (Vg_compiler.Sandbox_pass.instrument_program program) in
  let after =
    Vg_ir.Ir.instr_count
      (Vg_compiler.Opt_pass.optimize_program
         (Vg_compiler.Sandbox_pass.instrument_program program))
  in
  Bench_report.linef r "  optimizer on instrumented collatz: %d -> %d IR instructions\n"
    before after;
  Bench_report.row r ~label:"optimizer on instrumented collatz"
    [
      ("ir_instructions_before", Bench_report.int before);
      ("ir_instructions_after", Bench_report.int after);
    ];
  Bench_report.finish r

(* ------------------------------------------------------------------ *)
(* Bechamel host-time microbenchmarks (simulator hot paths)            *)

let bechamel () =
  let open Bechamel in
  let open Toolkit in
  section "Bechamel: host-time microbenchmarks of the simulator itself";
  let key = Vg_crypto.Aes128.expand (Bytes.make 16 'k') in
  let block = Bytes.make 16 'p' in
  (* one swap blob's payload: 24-byte header || 4 KiB page *)
  let swap_key = Bytes.make 16 's' and swap_nonce = Bytes.make 8 'n' in
  let swap_payload = Bytes.make 4120 'g' in
  (* images are linked and closure-compiled once, outside the staged
     thunks: that is a translation-time cost, amortised across every
     execution *)
  let ghosted program =
    compile_artifact ~cfi:true (Vg_compiler.Sandbox_pass.instrument_program program)
  in
  let collatz = ghosted (Vg_oracle.Fixtures.collatz_program ()) in
  let recsum = ghosted (Vg_oracle.Fixtures.rec_sum_program ()) in
  let tests =
    Test.make_grouped ~name:"vg" ~fmt:"%s %s"
      [
        Test.make ~name:"sandbox-mask"
          (Staged.stage (fun () ->
               ignore (Vg_compiler.Sandbox_pass.masked_address 0xffffff0012345678L)));
        Test.make ~name:"aes128-block"
          (Staged.stage (fun () -> ignore (Vg_crypto.Aes128.encrypt_block key block)));
        Test.make ~name:"sha256-block"
          (Staged.stage (fun () -> ignore (Vg_crypto.Sha256.digest block)));
        Test.make ~name:"ctr-seal-page"
          (Staged.stage (fun () ->
               ignore (Vg_crypto.Ctr.seal ~key:swap_key ~nonce:swap_nonce swap_payload)));
        Test.make ~name:"executor-collatz"
          (Staged.stage (fun () -> ignore (run_cycles ~entry:"collatz" collatz)));
        Test.make ~name:"executor-recsum"
          (Staged.stage (fun () -> ignore (run_cycles ~arg:40L ~entry:"sum" recsum)));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw_results = Benchmark.all cfg instances tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw_results) instances in
  let results = Analyze.merge ols instances results in
  Bechamel_notty.Unit.add Instance.monotonic_clock (Measure.unit Instance.monotonic_clock);
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  let img =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window ~predictor:Measure.run
      results
  in
  Notty_unix.eol img |> Notty_unix.output_image

(* ------------------------------------------------------------------ *)
(* Machine-readable executor benchmark (BENCH_executor.json)           *)

(* Host ns/instr and simulated cycles per executor-bound workload and
   per execution engine (reference interpreter, slot executor,
   closure-compiled), so the host-performance trajectory of the
   simulator is tracked across PRs.  Simulated cycles must be
   bit-stable run to run (and byte-identical between the slot executor
   and the compiled engine — asserted here, on every run); host timings
   are whatever the hardware gives.

   Methodology: short fixtures (collatz, recsum) are kept for
   continuity, but the headline speedup numbers come from the long
   workloads (>= 1e5 instructions: the iterative-fibonacci and memcpy
   loops of [Vg_oracle.Fixtures]), where dispatch dominates and a
   per-run timing is not noise-bound.  Timings amortise a warm start:
   images are linked and closure-compiled once, outside the timed
   region, exactly as a kernel with a warm translation cache would run
   them. *)

(* Per-engine single-run counters.  The executor engines tag their
   charges; instructions = Exec-tagged charge count.  The memcpy is a
   no-op on purpose: the simulated Copy surcharge is length-based either
   way, and the host cost under measurement is the engine dispatch, not
   Bytes.blit.

   The memory closures use the unchecked byte primitives: the address
   mask confines every access to [0, 0xfff8] inside a 64 KiB buffer,
   and the same closures serve all three engines, so none of them is
   billed for bounds checks that measure the harness rather than the
   engine. *)
external bytes_get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bytes_set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let engine_env () =
  let mem = Bytes.make 65536 '\000' in
  let by_tag = Array.make Vg_obs.Obs.Tag.count 0 in
  let instrs = ref 0 in
  let env =
    {
      Vg_compiler.Exec_env.null_env with
      load =
        (fun addr _ ->
          bytes_get64u mem (Int64.to_int (Int64.logand addr 0xfff8L)));
      store =
        (fun addr _ v ->
          bytes_set64u mem (Int64.to_int (Int64.logand addr 0xfff8L)) v);
      memcpy = (fun ~dst:_ ~src:_ ~len:_ -> ());
      charge =
        (* hot path for every engine under measurement: tally per-tag
           cycles with no branches beyond the tag decode itself *)
        (fun tag n ->
          let i = Vg_obs.Obs.Tag.index tag in
          Array.unsafe_set by_tag i (Array.unsafe_get by_tag i + n);
          match tag with
          | Vg_obs.Obs.Tag.Exec -> instrs := !instrs + n
          | _ -> ());
    }
  in
  (env, by_tag, instrs)

let interp_counts program entry arg =
  let mem = Bytes.make 65536 '\000' in
  let cycles = ref 0 and instrs = ref 0 in
  let env : Vg_oracle.Interp.env =
    {
      load =
        (fun addr _ ->
          bytes_get64u mem (Int64.to_int (Int64.logand addr 0xfff8L)));
      store =
        (fun addr _ v ->
          bytes_set64u mem (Int64.to_int (Int64.logand addr 0xfff8L)) v);
      memcpy = (fun ~dst:_ ~src:_ ~len:_ -> ());
      io_read = (fun port -> Int64.add port 7L);
      io_write = (fun _ _ -> ());
      extern = (fun name _ -> failwith ("bench extern: " ^ name));
      resolve_sym = (fun s -> failwith ("bench sym: " ^ s));
      func_of_addr = (fun _ -> None);
      charge =
        (fun n ->
          cycles := !cycles + n;
          incr instrs);
      fence = (fun () -> cycles := !cycles + Vg_compiler.Fence_pass.fence_cycles);
    }
  in
  ignore (Vg_oracle.Interp.run env program entry [| arg |]);
  (!cycles, !instrs)

let slots_counts image entry arg =
  let env, by_tag, instrs = engine_env () in
  ignore (Vg_oracle.Executor.run env image entry [| arg |]);
  (by_tag, !instrs)

let compiled_counts artifact entry arg =
  let env, by_tag, instrs = engine_env () in
  ignore (Vg_compiler.Exec_compile.run env artifact entry [| arg |]);
  (by_tag, !instrs)

(* Adaptive host timing: one warm-up run, then enough runs to fill
   ~0.2 s (between 10 and 2000), so short and long fixtures both get
   stable per-run numbers without the long ones taking minutes. *)
let time_ns_per_run f =
  f ();
  let t0 = Unix.gettimeofday () in
  f ();
  let t1 = Unix.gettimeofday () in
  let est = max (t1 -. t0) 1e-7 in
  let runs = max 10 (min 2000 (int_of_float (0.2 /. est))) in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to runs do
    f ()
  done;
  let t1 = Unix.gettimeofday () in
  (t1 -. t0) /. float_of_int runs *. 1e9

let total = Array.fold_left ( + ) 0

(* Warm-translation-cache measurement: host cost of obtaining the
   compiled artifact the first time (verify + closure-compile) versus a
   warm hit (HMAC check + memo lookup).  verifier_runs pins that the
   warm path really is memoized. *)
let trans_cache_measure image =
  let tc = Vg_compiler.Trans_cache.create ~key:(Bytes.make 16 'm') in
  Vg_compiler.Trans_cache.add tc ~name:"bench" ~instrumented:true image;
  let t0 = Unix.gettimeofday () in
  (match Vg_compiler.Trans_cache.find_compiled tc ~name:"bench" with
  | Ok _ -> ()
  | Error e -> failwith (Vg_compiler.Trans_cache.describe_find_error e));
  let t1 = Unix.gettimeofday () in
  let cold_ns = (t1 -. t0) *. 1e9 in
  let warm_runs = 200 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to warm_runs do
    match Vg_compiler.Trans_cache.find_compiled tc ~name:"bench" with
    | Ok _ -> ()
    | Error e -> failwith (Vg_compiler.Trans_cache.describe_find_error e)
  done;
  let t1 = Unix.gettimeofday () in
  let warm_ns = (t1 -. t0) /. float_of_int warm_runs *. 1e9 in
  (cold_ns, warm_ns, Vg_compiler.Trans_cache.verifier_runs tc)

type engine_row = { e_cycles : int; e_instrs : int; e_ns_per_run : float }

let bench_json () =
  let fixtures =
    let open Vg_oracle.Fixtures in
    let collatz = collatz_program ()
    and recsum = rec_sum_program ()
    and iterfib = iterfib_program ()
    and memloop = memcpy_loop_program () in
    let both name program entry arg ~long =
      [
        (name ^ "-plain", program, false, entry, arg, long);
        (name ^ "-full", program, true, entry, arg, long);
      ]
    in
    both "collatz" collatz "collatz" 97L ~long:false
    @ both "recsum" recsum "sum" 40L ~long:false
    @ both "iterfib-long" iterfib "main" 20_000L ~long:true
    @ both "memcpy-loop" memloop "main" 20_000L ~long:true
  in
  let rows =
    List.map
      (fun (name, program, full, entry, arg, long) ->
        let runnable =
          if full then Vg_compiler.Sandbox_pass.instrument_program program
          else program
        in
        let image = compile_linked ~cfi:full runnable in
        let artifact = Vg_compiler.Exec_compile.compile image in
        (* one counted run per engine *)
        let i_cycles, i_instrs = interp_counts runnable entry arg in
        let s_tags, s_instrs = slots_counts image entry arg in
        let c_tags, c_instrs = compiled_counts artifact entry arg in
        (* The contract this whole PR hangs on: byte-identical simulated
           cycles, per tag, between the slot executor and the compiled
           engine. *)
        if s_tags <> c_tags || s_instrs <> c_instrs then
          failwith
            (Printf.sprintf "%s: slots/compiled cycle divergence (%d vs %d)"
               name (total s_tags) (total c_tags));
        (* The interpreter charges what the uninstrumented lowered code
           would: totals must agree with the executors wherever no CFI
           surcharges exist (the -plain configurations). *)
        if (not full) && i_cycles <> total s_tags then
          failwith
            (Printf.sprintf "%s: interp/executor cycle divergence (%d vs %d)"
               name i_cycles (total s_tags));
        let interp =
          {
            e_cycles = i_cycles;
            e_instrs = i_instrs;
            e_ns_per_run =
              time_ns_per_run (fun () -> ignore (interp_counts runnable entry arg));
          }
        in
        let slots =
          {
            e_cycles = total s_tags;
            e_instrs = s_instrs;
            e_ns_per_run =
              time_ns_per_run (fun () -> ignore (slots_counts image entry arg));
          }
        in
        let compiled =
          {
            e_cycles = total c_tags;
            e_instrs = c_instrs;
            e_ns_per_run =
              time_ns_per_run (fun () -> ignore (compiled_counts artifact entry arg));
          }
        in
        (name, long, full, interp, slots, compiled))
      fixtures
  in
  let cold_ns, warm_ns, verifier_runs =
    trans_cache_measure
      (compile_linked ~cfi:true
         (Vg_compiler.Sandbox_pass.instrument_program
            (Vg_oracle.Fixtures.iterfib_program ())))
  in
  (* The gated series is the ghost-instrumented (cfi+sandbox) long
     workloads: that is the deployment configuration this engine exists
     for, and the one where translation has the most work to elide.  The
     plain rows are reported for transparency but carry a structurally
     compressed ratio (shared environment cost dominates sooner when the
     per-instruction work is tiny). *)
  let speedups_where pred =
    List.filter_map
      (fun (_, long, full, interp, _, compiled) ->
        if pred long full then
          Some (interp.e_ns_per_run /. compiled.e_ns_per_run)
        else None)
      rows
  in
  let min_of = List.fold_left min infinity in
  let min_long_ghosted =
    min_of (speedups_where (fun long full -> long && full))
  in
  let min_long_plain =
    min_of (speedups_where (fun long full -> long && not full))
  in
  let oc = open_out "BENCH_executor.json" in
  Printf.fprintf oc "{\n  \"schema\": \"vg-executor-bench/v3\",\n";
  Printf.fprintf oc "  \"long_workload_min_instrs\": 100000,\n";
  output_string oc "  \"benchmarks\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i (name, long, full, interp, slots, compiled) ->
      let engine label (r : engine_row) =
        Printf.sprintf
          "\"%s\": {\"simulated_cycles\": %d, \"instructions\": %d, \
           \"host_ns_per_run\": %.1f, \"host_ns_per_instr\": %.2f}"
          label r.e_cycles r.e_instrs r.e_ns_per_run
          (r.e_ns_per_run /. float_of_int r.e_instrs)
      in
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"long\": %b, \"ghosted\": %b, \
         \"simulated_cycles\": %d, \"instructions\": %d, \
         \"cycles_identical_slots_compiled\": true,\n\
        \     \"engines\": {%s, %s, %s},\n\
        \     \"speedup_compiled_vs_interp\": %.2f, \
         \"speedup_compiled_vs_slots\": %.2f}%s\n"
        name long full slots.e_cycles slots.e_instrs (engine "interp" interp)
        (engine "slots" slots)
        (engine "compiled" compiled)
        (interp.e_ns_per_run /. compiled.e_ns_per_run)
        (slots.e_ns_per_run /. compiled.e_ns_per_run)
        (if i < n - 1 then "," else ""))
    rows;
  output_string oc "  ],\n";
  Printf.fprintf oc
    "  \"summary\": {\"min_speedup_compiled_vs_interp_long_ghosted\": %.2f, \
     \"min_speedup_compiled_vs_interp_long_plain\": %.2f, \
     \"cycles_identical\": true},\n"
    min_long_ghosted min_long_plain;
  Printf.fprintf oc
    "  \"trans_cache\": {\"cold_find_compiled_ns\": %.0f, \
     \"warm_find_compiled_ns\": %.0f, \"verifier_runs_after_warm_loads\": %d}\n"
    cold_ns warm_ns verifier_runs;
  output_string oc "}\n";
  close_out oc;
  Printf.printf "%-20s %5s %10s %8s %12s %12s %12s %9s\n" "fixture" "long"
    "cycles" "instrs" "interp-ns/i" "slots-ns/i" "compiled-ns/i" "speedup";
  List.iter
    (fun (name, long, _, interp, slots, compiled) ->
      let per (r : engine_row) = r.e_ns_per_run /. float_of_int r.e_instrs in
      Printf.printf "%-20s %5b %10d %8d %12.2f %12.2f %12.2f %8.1fx\n" name long
        slots.e_cycles slots.e_instrs (per interp) (per slots) (per compiled)
        (interp.e_ns_per_run /. compiled.e_ns_per_run))
    rows;
  Printf.printf
    "trans-cache: cold find_compiled %.0f ns, warm %.0f ns, verifier ran %dx\n"
    cold_ns warm_ns verifier_runs;
  Printf.printf
    "min long-workload speedup, ghosted (compiled vs interp): %.1fx\n"
    min_long_ghosted;
  Printf.printf
    "min long-workload speedup, plain   (compiled vs interp): %.1fx\n"
    min_long_plain;
  print_endline "wrote BENCH_executor.json"

let executor = bench_json

(* ------------------------------------------------------------------ *)
(* SMP: httpd worker-pool scaling across cores                         *)

let smp_cpu_counts = [ 1; 2; 4; 8 ]

let smp_pool_throughput mode ~cpus ~requests =
  let k = Node.kernel (Node.boot (bench_config ~seed:"bench-smp" ~cpus mode)) in
  make_fs_file k "/index.html" (8 * kb);
  let stats =
    Httpd.Pool.run k ~workers:cpus ~requests ~port:80 ~path:"/index.html"
  in
  let seconds = Cost.to_seconds stats.Httpd.Pool.elapsed_cycles in
  let rps = if seconds > 0.0 then float_of_int stats.Httpd.Pool.ok /. seconds else 0.0 in
  (stats, rps)

let smp () =
  let r =
    Bench_report.create ~name:"smp"
      ~title:
        "SMP: httpd worker-pool throughput scaling (requests/s; one worker \
         per core, 8KB document)"
  in
  let requests = 32 in
  Bench_report.linef r "%-6s %16s %10s %16s %10s\n" "cores" "native req/s"
    "speedup" "vg req/s" "speedup";
  let base = Hashtbl.create 4 in
  List.iter
    (fun cpus ->
      let n_stats, n_rps =
        smp_pool_throughput Sva.Native_build ~cpus ~requests
      in
      let v_stats, v_rps =
        smp_pool_throughput Sva.Virtual_ghost ~cpus ~requests
      in
      if cpus = 1 then begin
        Hashtbl.replace base `N n_rps;
        Hashtbl.replace base `V v_rps
      end;
      let n_speedup = n_rps /. Hashtbl.find base `N in
      let v_speedup = v_rps /. Hashtbl.find base `V in
      Bench_report.linef r "%6d %16.0f %9.2fx %16.0f %9.2fx\n" cpus n_rps
        n_speedup v_rps v_speedup;
      Bench_report.row r ~label:(Printf.sprintf "%d-core" cpus)
        [
          ("cpus", Bench_report.int cpus);
          ("requests", Bench_report.int requests);
          ("native_req_per_sec", Bench_report.num n_rps);
          ("native_speedup_x", Bench_report.num n_speedup);
          ("native_ok", Bench_report.int n_stats.Httpd.Pool.ok);
          ("native_preemptions", Bench_report.int n_stats.Httpd.Pool.preemptions);
          ("native_steals", Bench_report.int n_stats.Httpd.Pool.steals);
          ("vg_req_per_sec", Bench_report.num v_rps);
          ("vg_speedup_x", Bench_report.num v_speedup);
          ("vg_ok", Bench_report.int v_stats.Httpd.Pool.ok);
          ("vg_preemptions", Bench_report.int v_stats.Httpd.Pool.preemptions);
          ("vg_steals", Bench_report.int v_stats.Httpd.Pool.steals);
        ])
    smp_cpu_counts;
  Bench_report.note r
    "(acceptance: 4-core throughput at least 2.5x the 1-core run on both \
     builds; the kernel pays cross-core costs for IPIs, spinlock transfers \
     and SVA swap checks)";
  Bench_report.finish r

(* ------------------------------------------------------------------ *)
(* Syscall ring: trap-protocol amortisation across batch sizes         *)

let ring_batches = [ 1; 8; 32 ]

(* Cycles spent in the trap protocol itself — entry, interrupt-context
   save + register zeroing (the VG-only part), return-to-user.  This
   is what one ring_enter amortises across a whole batch. *)
let trap_protocol_cycles st =
  Obs_stats.cycles st Obs.Tag.Trap
  + Obs_stats.cycles st Obs.Tag.Trap_save
  + Obs_stats.cycles st Obs.Tag.Trap_return

let ring_serve ?sfip mode ~batch ~requests =
  let k = Node.kernel (Node.boot (bench_config ~seed:"bench-ring" mode)) in
  make_fs_file k "/index.html" (8 * kb);
  Httpd.Event_loop.run k ~batch ?sfip ~requests ~port:80 ~path:"/index.html"

(* The server's own SFIP profile, recorded by running the identical
   (deterministic) workload once in Record mode — the profiling run an
   administrator performs before signing the image. *)
let ring_profile mode ~batch ~requests =
  let recorder = Syscall_policy.record () in
  ignore (ring_serve ~sfip:recorder mode ~batch ~requests);
  Syscall_policy.enforce (Syscall_policy.graph recorder)

let ring () =
  let r =
    Bench_report.create ~name:"syscall_ring"
      ~title:
        "Syscall ring: trap-protocol cycles per request vs batch size \
         (event-loop httpd, 8KB document, 1 core)"
  in
  let requests = 32 in
  Bench_report.linef r "%-6s %18s %10s %18s %10s %8s %6s %14s %9s\n" "batch"
    "native trap cy/req" "reduction" "vg trap cy/req" "reduction" "enters"
    "sqes" "sfip cy/req" "overhead";
  let base = Hashtbl.create 4 in
  List.iter
    (fun batch ->
      let n_stats, st_n =
        Bench_report.with_stats (fun () ->
            ring_serve Sva.Native_build ~batch ~requests)
      in
      let v_stats, st_v =
        Bench_report.with_stats (fun () ->
            ring_serve Sva.Virtual_ghost ~batch ~requests)
      in
      (* Third configuration: the same vg serve under its own recorded
         SFIP profile (enforced).  The profiling run happens outside
         the stats window. *)
      let sfip = ring_profile Sva.Virtual_ghost ~batch ~requests in
      let s_stats, st_s =
        Bench_report.with_stats (fun () ->
            ring_serve ~sfip Sva.Virtual_ghost ~batch ~requests)
      in
      let per_req st (stats : Httpd.Event_loop.stats) =
        float_of_int (trap_protocol_cycles st)
        /. float_of_int (max 1 stats.Httpd.Event_loop.served)
      in
      let n_cy = per_req st_n n_stats and v_cy = per_req st_v v_stats in
      let sfip_cy =
        float_of_int (Obs_stats.cycles st_s Obs.Tag.Sfip)
        /. float_of_int (max 1 s_stats.Httpd.Event_loop.served)
      in
      (* SFIP checking cost relative to the trap protocol it rides on,
         measured on the sfip-on run itself. *)
      let sfip_overhead =
        float_of_int (Obs_stats.cycles st_s Obs.Tag.Sfip)
        /. float_of_int (max 1 (trap_protocol_cycles st_s))
      in
      if batch = 1 then begin
        Hashtbl.replace base `N n_cy;
        Hashtbl.replace base `V v_cy
      end;
      let n_red = Hashtbl.find base `N /. n_cy in
      let v_red = Hashtbl.find base `V /. v_cy in
      Bench_report.linef r "%6d %18.0f %9.2fx %18.0f %9.2fx %8d %6d %14.0f %8.1f%%\n"
        batch n_cy n_red v_cy v_red
        v_stats.Httpd.Event_loop.ring_enters v_stats.Httpd.Event_loop.sqes
        sfip_cy (100.0 *. sfip_overhead);
      Bench_report.row r ~label:(Printf.sprintf "batch-%d" batch)
        [
          ("batch", Bench_report.int batch);
          ("requests", Bench_report.int requests);
          ("native_trap_cycles_per_req", Bench_report.num n_cy);
          ("native_reduction_x", Bench_report.num n_red);
          ("native_ok", Bench_report.int n_stats.Httpd.Event_loop.ok);
          ("vg_trap_cycles_per_req", Bench_report.num v_cy);
          ("vg_reduction_x", Bench_report.num v_red);
          ("vg_ok", Bench_report.int v_stats.Httpd.Event_loop.ok);
          ("vg_ring_enters", Bench_report.int v_stats.Httpd.Event_loop.ring_enters);
          ("vg_sqes", Bench_report.int v_stats.Httpd.Event_loop.sqes);
          ("vg_polls", Bench_report.int v_stats.Httpd.Event_loop.polls);
          ( "vg_ring_dispatch_cycles",
            Bench_report.int (Obs_stats.cycles st_v Obs.Tag.Ring) );
          ("vg_sfip_cycles_per_req", Bench_report.num sfip_cy);
          ("vg_sfip_overhead_frac", Bench_report.num sfip_overhead);
          ("vg_sfip_ok", Bench_report.int s_stats.Httpd.Event_loop.ok);
        ])
    ring_batches;
  Bench_report.note r
    "(acceptance: vg trap-protocol cycles per request at batch 32 at most \
     half the batch-1 figure; path syscalls — open, stat — stay direct \
     traps and bound the amortisation.  sfip enforcement — every entry \
     checked against the recorded profile, whole batches prechecked — \
     serves every request and costs at most 10% of the trap protocol at \
     batch 32)";
  Bench_report.finish r

(* ------------------------------------------------------------------ *)
(* Ghost swap: sealed swapping under memory overcommit                 *)

let swap_frame_limit = 192
let swap_ratios = [ 1; 2; 3; 4 ]
let swap_marker_len = 16
let swap_marker i = Printf.sprintf "ghost-%09d!" i

(* A ghost working-set walker: allocate [ratio] x the resident ghost
   capacity chunk by chunk (so the pressure engine evicts as the set
   grows), then walk the whole set [rounds] times verifying every
   page's marker.  Beyond ratio 1 every walk is a fault storm: unseal
   on the way in, seal the evicted page on the way out.  The swapd
   daemon fiber shares the scheduler and keeps availability above the
   low watermark. *)
let swap_walker mode ~ratio =
  let k =
    Node.kernel
      (Node.boot
         (bench_config ~seed:"bench-swap" ~cpus:2 mode
         |> Node_config.with_phys_frames 8192
         |> Node_config.with_frame_limit swap_frame_limit))
  in
  let machine = k.Kernel.machine in
  let sched = Sched.create k in
  Ghost_swap.spawn_swapd k sched;
  let out = ref None in
  ignore
    (Runtime.spawn_fiber k sched ~cpu:0 ~ghosting:true ~name:"walker"
       (fun ctx ->
         let proc = ctx.Runtime.proc in
         let base = Int64.add Layout.ghost_start 0x100000L in
         let page i = Int64.add base (Int64.of_int (i * 4096)) in
         (* Resident capacity: what fits right now, minus slack for
            page tables and the daemon's watermark gap. *)
         let capacity = Ghost_swap.available k - 48 in
         let pages = capacity * ratio in
         let chunk = 8 in
         let i = ref 0 in
         while !i < pages do
           let n = min chunk (pages - !i) in
           (match Syscalls.allocgm k proc ~va:(page !i) ~pages:n with
           | Ok () -> ()
           | Error e -> failwith ("walker allocgm: " ^ Errno.to_string e));
           for j = !i to !i + n - 1 do
             Runtime.poke ctx (page j) (Bytes.of_string (swap_marker j))
           done;
           i := !i + n
         done;
         let rounds = 2 in
         let start = Machine.cycles machine in
         for _round = 1 to rounds do
           for j = 0 to pages - 1 do
             let got = Bytes.to_string (Runtime.peek ctx (page j) swap_marker_len) in
             if got <> swap_marker j then
               failwith
                 (Printf.sprintf "walker: page %d came back wrong (%S)" j got)
           done
         done;
         let elapsed = Machine.cycles machine - start in
         out := Some (capacity, pages, rounds, elapsed);
         Ghost_swap.stop_swapd k));
  Sched.run sched;
  let capacity, pages, rounds, elapsed = Option.get !out in
  let st = Ghost_swap.stats k in
  let seconds = Cost.to_seconds elapsed in
  let tput =
    if seconds > 0.0 then float_of_int (pages * rounds) /. seconds else 0.0
  in
  (tput, capacity, pages, st)

(* Applications under ghost pressure: a hog process pins nearly every
   frame in ghost pages, then an httpd worker pool (ghosting workers)
   and a Postmark run compete for memory — their allocations push the
   hog out through the sealed path.  The hog's final walk proves every
   secret survived the round trip through the untrusted swap store. *)
let swap_apps mode =
  let k =
    Node.kernel
      (Node.boot
         (bench_config ~seed:"bench-swap-apps" ~cpus:2 mode
         |> Node_config.with_phys_frames 8192
         |> Node_config.with_frame_limit swap_frame_limit))
  in
  let machine = k.Kernel.machine in
  make_fs_file k "/index.html" (8 * kb);
  Runtime.launch k ~ghosting:true (fun hog ->
      let proc = hog.Runtime.proc in
      let base = Int64.add Layout.ghost_start 0x100000L in
      let page i = Int64.add base (Int64.of_int (i * 4096)) in
      let hog_pages = Ghost_swap.available k - 48 in
      let chunk = 8 in
      let i = ref 0 in
      while !i < hog_pages do
        let n = min chunk (hog_pages - !i) in
        (match Syscalls.allocgm k proc ~va:(page !i) ~pages:n with
        | Ok () -> ()
        | Error e -> failwith ("hog allocgm: " ^ Errno.to_string e));
        for j = !i to !i + n - 1 do
          Runtime.poke hog (page j) (Bytes.of_string (swap_marker j))
        done;
        i := !i + n
      done;
      let hstats =
        Httpd.Pool.run ~ghosting:true k ~workers:2 ~requests:16 ~port:80
          ~path:"/index.html"
      in
      let pm_config =
        { Postmark.paper_config with base_files = 20; transactions = 200; seed = 7 }
      in
      let pm_start = Machine.cycles machine in
      Runtime.launch k ~ghosting:true (fun ctx ->
          match Postmark.run ctx pm_config with
          | Ok _ -> ()
          | Error e -> failwith ("postmark: " ^ Errno.to_string e));
      let pm_seconds = Cost.to_seconds (Machine.cycles machine - pm_start) in
      let intact = ref 0 in
      for j = 0 to hog_pages - 1 do
        if Bytes.to_string (Runtime.peek hog (page j) swap_marker_len)
           = swap_marker j
        then incr intact
      done;
      (hog_pages, !intact, hstats, pm_seconds, Ghost_swap.stats k))

let ghost_swap () =
  let r =
    Bench_report.create ~name:"ghost_swap"
      ~title:
        (Printf.sprintf
           "Ghost swap: sealed swapping under memory overcommit (%d-frame \
            kernel, working set = ratio x resident capacity)"
           swap_frame_limit)
  in
  Bench_report.linef r "%-6s %6s %14s %14s %9s %12s %12s %9s\n" "ratio" "pages"
    "native tch/s" "vg tch/s" "overhead" "vg swapouts" "vg swapins" "refused";
  List.iter
    (fun ratio ->
      let (n_tput, _, _, n_st), st_n =
        Bench_report.with_stats (fun () -> swap_walker Sva.Native_build ~ratio)
      in
      let (v_tput, capacity, pages, v_st), st_v =
        Bench_report.with_stats (fun () -> swap_walker Sva.Virtual_ghost ~ratio)
      in
      let overhead = if v_tput > 0.0 then n_tput /. v_tput else 0.0 in
      Bench_report.linef r "%6d %6d %14.0f %14.0f %8.2fx %12d %12d %9d\n" ratio
        pages n_tput v_tput overhead v_st.Ghost_swap.swap_outs
        v_st.Ghost_swap.swap_ins v_st.Ghost_swap.refusals;
      let parts, delta_total = attribution ~native:st_n ~vg:st_v in
      if ratio > 1 then print_attribution r parts delta_total;
      Bench_report.row r ~label:(Printf.sprintf "ratio-%d" ratio)
        [
          ("overcommit_ratio", Bench_report.int ratio);
          ("capacity_pages", Bench_report.int capacity);
          ("working_set_pages", Bench_report.int pages);
          ("native_touches_per_sec", Bench_report.num n_tput);
          ("vg_touches_per_sec", Bench_report.num v_tput);
          ("overhead_x", Bench_report.num overhead);
          ("native_swap_outs", Bench_report.int n_st.Ghost_swap.swap_outs);
          ("native_swap_ins", Bench_report.int n_st.Ghost_swap.swap_ins);
          ("vg_swap_outs", Bench_report.int v_st.Ghost_swap.swap_outs);
          ("vg_swap_ins", Bench_report.int v_st.Ghost_swap.swap_ins);
          ("vg_refusals", Bench_report.int v_st.Ghost_swap.refusals);
          ("vg_reclaims", Bench_report.int v_st.Ghost_swap.reclaims);
          ("vg_daemon_wakeups", Bench_report.int v_st.Ghost_swap.daemon_wakeups);
          ( "vg_crypto_cycles",
            Bench_report.int (Obs_stats.cycles st_v Obs.Tag.Crypto) );
          ( "vg_swap_cycles",
            Bench_report.int (Obs_stats.cycles st_v Obs.Tag.Swap) );
          ( "attribution_cycles",
            Obs_json.Obj (List.map (fun (l, d) -> (l, Bench_report.int d)) parts)
          );
        ])
    swap_ratios;
  (* Applications under pressure. *)
  List.iter
    (fun (label, mode) ->
      let (hog_pages, intact, hstats, pm_seconds, st), _ =
        Bench_report.with_stats (fun () -> swap_apps mode)
      in
      let rps =
        let s = Cost.to_seconds hstats.Httpd.Pool.elapsed_cycles in
        if s > 0.0 then float_of_int hstats.Httpd.Pool.ok /. s else 0.0
      in
      Bench_report.linef r
        "%s: httpd %d/16 ok (%.0f req/s), postmark %.3fs, hog %d/%d pages \
         intact, %d swapouts %d swapins\n"
        label hstats.Httpd.Pool.ok rps pm_seconds intact hog_pages
        st.Ghost_swap.swap_outs st.Ghost_swap.swap_ins;
      if intact <> hog_pages then
        failwith (label ^ ": hog lost pages through the swap store");
      Bench_report.row r ~label:("apps-" ^ label)
        [
          ("hog_pages", Bench_report.int hog_pages);
          ("hog_pages_intact", Bench_report.int intact);
          ("httpd_ok", Bench_report.int hstats.Httpd.Pool.ok);
          ("httpd_req_per_sec", Bench_report.num rps);
          ("postmark_seconds", Bench_report.num pm_seconds);
          ("swap_outs", Bench_report.int st.Ghost_swap.swap_outs);
          ("swap_ins", Bench_report.int st.Ghost_swap.swap_ins);
          ("refusals", Bench_report.int st.Ghost_swap.refusals);
        ])
    [ ("native", Sva.Native_build); ("vg", Sva.Virtual_ghost) ];
  Bench_report.note r
    "(acceptance: every walk verifies every marker — a wrong byte fails the \
     run; ratio 1 swaps nothing and ratios 2-4 show swap traffic scaling \
     with the overcommit; the vg legs attribute their extra cycles to \
     crypto (sealing) and swap (daemon); the hog's pages all survive \
     eviction by hostile-grade httpd+postmark memory pressure)";
  Bench_report.finish r

(* ------------------------------------------------------------------ *)
(* Spectre matrix: attack outcome and protection/overhead across the
   speculation-era configurations.  no-spec is today's machine (depth
   0, classic masking) and must stay cycle-identical to the other
   experiments' vg legs; the three depth-12 configurations add the
   cache model and, for fence/safe-mask, the mitigation surcharge. *)

let spectre_depth = 12

let spectre_configs =
  [
    ("no-spec", 0, Vg_compiler.Mitigation.Off);
    ("spec", spectre_depth, Vg_compiler.Mitigation.Off);
    ("fence", spectre_depth, Vg_compiler.Mitigation.Fence);
    ("safe-mask", spectre_depth, Vg_compiler.Mitigation.Safe_mask);
  ]

let boot_spec ?seed ?cpus ~spec_depth ~mitigation mode =
  Node.kernel
    (Node.boot
       (bench_config ?seed ?cpus ~spec_depth mode
       |> Node_config.with_spec_mitigation mitigation))

let spectre_lm_leg ~spec_depth ~mitigation (row : lm_row) =
  let k = boot_spec ~spec_depth ~mitigation Sva.Virtual_ghost in
  Runtime.launch k ~ghosting:false (fun ctx ->
      row.run ctx ~iterations:row.iterations)

let spectre_httpd_pool ~spec_depth ~mitigation ~requests =
  let k =
    boot_spec ~seed:"bench-smp" ~cpus:2 ~spec_depth ~mitigation Sva.Virtual_ghost
  in
  make_fs_file k "/index.html" (8 * kb);
  Httpd.Pool.run k ~workers:2 ~requests ~port:80 ~path:"/index.html"

let spectre_httpd_ring ~spec_depth ~mitigation ~requests =
  let k =
    boot_spec ~seed:"bench-ring" ~spec_depth ~mitigation Sva.Virtual_ghost
  in
  make_fs_file k "/index.html" (8 * kb);
  Httpd.Event_loop.run k ~batch:8 ~requests ~port:80 ~path:"/index.html"

let spectre_bench () =
  let r =
    Bench_report.create ~name:"spectre"
      ~title:
        "Spectre matrix: transient leak of ghost memory vs mitigation, and \
         what each mitigation costs (vg build)"
  in
  (* 1. The attack itself, per configuration. *)
  Bench_report.linef r "%-10s %6s %11s %11s %9s %9s\n" "config" "depth"
    "mitigation" "leaked" "windows" "t-loads";
  List.iter
    (fun (label, spec_depth, mitigation) ->
      let o =
        Vg_attacks.Spectre.run_experiment ~spec_depth ~mitigation ()
      in
      Bench_report.linef r "%-10s %6d %11s %5d/%d %9d %9d\n" label spec_depth
        (Vg_compiler.Mitigation.to_string mitigation)
        o.Vg_attacks.Spectre.bytes_recovered
        (String.length o.Vg_attacks.Spectre.secret)
        o.Vg_attacks.Spectre.windows o.Vg_attacks.Spectre.transient_loads;
      Bench_report.row r ~label:("attack:" ^ label)
        [
          ("config", Bench_report.str label);
          ("spec_depth", Bench_report.int spec_depth);
          ("mitigation", Bench_report.str (Vg_compiler.Mitigation.to_string mitigation));
          ("leak_success", Bench_report.bool o.Vg_attacks.Spectre.success);
          ("bytes_recovered", Bench_report.int o.Vg_attacks.Spectre.bytes_recovered);
          ( "secret_bytes",
            Bench_report.int (String.length o.Vg_attacks.Spectre.secret) );
          ("windows", Bench_report.int o.Vg_attacks.Spectre.windows);
          ( "transient_loads",
            Bench_report.int o.Vg_attacks.Spectre.transient_loads );
        ])
    spectre_configs;
  (* 2. Table 2 microbenchmarks under each configuration. *)
  Bench_report.linef r "\n%-18s %12s %12s %12s %12s\n" "test" "no-spec(us)"
    "spec(us)" "fence(us)" "safe-mask(us)";
  let k = boot_fresh Sva.Virtual_ghost in
  List.iter
    (fun row ->
      let legs =
        List.map
          (fun (label, spec_depth, mitigation) ->
            let us, st =
              Bench_report.with_stats (fun () ->
                  spectre_lm_leg ~spec_depth ~mitigation row)
            in
            (label, spec_depth, mitigation, us, st))
          spectre_configs
      in
      let base_us =
        match legs with (_, _, _, us, _) :: _ -> us | [] -> assert false
      in
      (match legs with
      | [ _, _, _, a, _; _, _, _, b, _; _, _, _, c, _; _, _, _, d, _ ] ->
          Bench_report.linef r "%-18s %12.3f %12.3f %12.3f %12.3f\n" row.name a
            b c d
      | _ -> ());
      List.iter
        (fun (label, spec_depth, mitigation, us, st) ->
          Bench_report.row r
            ~label:(Printf.sprintf "lm:%s:%s" row.name label)
            [
              ("test", Bench_report.str row.name);
              ("config", Bench_report.str label);
              ("spec_depth", Bench_report.int spec_depth);
              ( "mitigation",
                Bench_report.str (Vg_compiler.Mitigation.to_string mitigation) );
              ("vg_us", Bench_report.num us);
              ("overhead_vs_no_spec_x", Bench_report.num (us /. base_us));
              ("spec_cycles", Bench_report.int (Obs_stats.cycles st Obs.Tag.Spec));
              ("mask_cycles", Bench_report.int (Obs_stats.cycles st Obs.Tag.Mask));
            ])
        legs)
    (lmbench_rows k);
  (* 3. httpd under each configuration: worker pool and syscall-ring
     event loop. *)
  let requests = 32 in
  Bench_report.linef r "\n%-10s %16s %16s\n" "config" "pool req/s" "ring req/s";
  let base = Hashtbl.create 2 in
  List.iter
    (fun (label, spec_depth, mitigation) ->
      let p_stats, st_p =
        Bench_report.with_stats (fun () ->
            spectre_httpd_pool ~spec_depth ~mitigation ~requests)
      in
      let e_stats, st_e =
        Bench_report.with_stats (fun () ->
            spectre_httpd_ring ~spec_depth ~mitigation ~requests)
      in
      let rps cycles ok =
        let s = Cost.to_seconds cycles in
        if s > 0.0 then float_of_int ok /. s else 0.0
      in
      let p_rps = rps p_stats.Httpd.Pool.elapsed_cycles p_stats.Httpd.Pool.ok in
      let e_rps =
        rps e_stats.Httpd.Event_loop.elapsed_cycles e_stats.Httpd.Event_loop.ok
      in
      if label = "no-spec" then begin
        Hashtbl.replace base `P p_rps;
        Hashtbl.replace base `E e_rps
      end;
      Bench_report.linef r "%-10s %16.0f %16.0f\n" label p_rps e_rps;
      Bench_report.row r ~label:("httpd:" ^ label)
        [
          ("config", Bench_report.str label);
          ("spec_depth", Bench_report.int spec_depth);
          ("mitigation", Bench_report.str (Vg_compiler.Mitigation.to_string mitigation));
          ("requests", Bench_report.int requests);
          ("pool_ok", Bench_report.int p_stats.Httpd.Pool.ok);
          ("pool_req_per_sec", Bench_report.num p_rps);
          ( "pool_slowdown_vs_no_spec_x",
            Bench_report.num (Hashtbl.find base `P /. max p_rps 1e-9) );
          ("pool_spec_cycles", Bench_report.int (Obs_stats.cycles st_p Obs.Tag.Spec));
          ("ring_ok", Bench_report.int e_stats.Httpd.Event_loop.ok);
          ("ring_req_per_sec", Bench_report.num e_rps);
          ( "ring_slowdown_vs_no_spec_x",
            Bench_report.num (Hashtbl.find base `E /. max e_rps 1e-9) );
          ("ring_spec_cycles", Bench_report.int (Obs_stats.cycles st_e Obs.Tag.Spec));
        ])
    spectre_configs;
  Bench_report.note r
    "(acceptance: the attack recovers the full secret only in the \
     unmitigated depth-12 configuration — never at depth 0 and never under \
     fence or safe-mask; the no-spec legs are cycle-identical to the other \
     experiments' vg runs; fence costs more than safe-mask on every \
     workload since it taxes every access by an lfence rather than two \
     mask instructions)";
  Bench_report.finish r

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

(* ------------------------------------------------------------------ *)
(* Fleet: load-balanced multi-node serving                             *)

let fleet_doc = Bytes.init (8 * kb) (fun i -> Char.chr ((i * 131) land 0xff))

let make_fleet ?policy ?(seed = "bench-fleet") ~nodes () =
  let f = Fleet.create ?policy ~nodes (bench_config ~seed Sva.Virtual_ghost) in
  Fleet.listen_all f ~port:80;
  Fleet.setup_www f ~path:"/index.html" fleet_doc;
  f

let fleet () =
  let r =
    Bench_report.create ~name:"fleet"
      ~title:
        "Fleet: N virtual-ghost nodes wired NIC-to-NIC, round-robin balanced \
         event-loop httpd backends (scaling, mixed load, rolling restart, \
         hostile backend, key distribution)"
  in
  (* -- scaling: same request volume over 1..4 nodes ---------------- *)
  let requests = 24 in
  let base_rps = ref 0.0 in
  List.iter
    (fun nodes ->
      let f = make_fleet ~nodes () in
      let wave = Fleet.serve_wave f ~port:80 ~path:"/index.html" ~requests in
      let rps = Fleet.wave_rps wave in
      if nodes = 1 then base_rps := rps;
      let speedup = if !base_rps > 0.0 then rps /. !base_rps else 0.0 in
      Bench_report.linef r
        "  %d node%s: ok=%d/%d dropped=%d  %8.0f req/s  (%.2fx vs 1 node)\n"
        nodes
        (if nodes = 1 then " " else "s")
        wave.Fleet.ok requests wave.Fleet.dropped rps speedup;
      Bench_report.row r ~label:(Printf.sprintf "scale-%d" nodes)
        [
          ("nodes", Bench_report.int nodes);
          ("requests", Bench_report.int requests);
          ("ok", Bench_report.int wave.Fleet.ok);
          ("dropped", Bench_report.int wave.Fleet.dropped);
          ("rps", Bench_report.num rps);
          ("speedup_vs_1", Bench_report.num speedup);
          ( "per_node_rps",
            Obs_json.List
              (Array.to_list
                 (Array.map
                    (fun (nr : Fleet.node_report) ->
                      Bench_report.num (Fleet.report_rps nr))
                    wave.Fleet.per_node)) );
        ])
    [ 1; 2; 3; 4 ];
  (* -- mixed load: HTTP wave + ghosting Postmark + ssh key chain --- *)
  let f = make_fleet ~seed:"bench-fleet-mixed" ~nodes:2 () in
  let wave =
    Fleet.serve_wave ~mixed:true f ~port:80 ~path:"/index.html" ~requests:12
  in
  let postmark_tx = ref 0 and ssh_ok = ref true in
  for i = 0 to Fleet.size f - 1 do
    match Fleet.last_mixed f i with
    | Some m ->
        postmark_tx := !postmark_tx + m.Fleet.postmark_tx;
        ssh_ok := !ssh_ok && m.Fleet.ssh_ok
    | None -> ssh_ok := false
  done;
  Bench_report.linef r
    "  mixed load on 2 nodes: http ok=%d/12, postmark tx=%d, ssh chain %s\n"
    wave.Fleet.ok !postmark_tx
    (if !ssh_ok then "ok" else "FAILED");
  Bench_report.row r ~label:"mixed-load"
    [
      ("nodes", Bench_report.int 2);
      ("http_ok", Bench_report.int wave.Fleet.ok);
      ("http_requests", Bench_report.int 12);
      ("postmark_tx", Bench_report.int !postmark_tx);
      ("ssh_chain_ok", Bench_report.bool !ssh_ok);
    ];
  (* -- rolling restart: re-image every node, drop nothing ---------- *)
  let f = make_fleet ~seed:"bench-fleet-roll" ~nodes:3 () in
  let report =
    Fleet.rolling_restart f ~port:80 ~path:"/index.html" ~requests_per_wave:12
  in
  let max_drain =
    Array.fold_left max 0 report.Fleet.drain_latency_cycles
  in
  Bench_report.linef r
    "  rolling restart over 3 nodes: %d/%d ok, %d dropped, max drain %d \
     cycles\n"
    report.Fleet.total_ok report.Fleet.total_requests report.Fleet.total_dropped
    max_drain;
  Bench_report.row r ~label:"rolling-restart"
    [
      ("nodes", Bench_report.int 3);
      ("total_requests", Bench_report.int report.Fleet.total_requests);
      ("total_ok", Bench_report.int report.Fleet.total_ok);
      ("dropped", Bench_report.int report.Fleet.total_dropped);
      ( "drain_latency_cycles",
        Obs_json.List
          (Array.to_list
             (Array.map Bench_report.int report.Fleet.drain_latency_cycles)) );
    ];
  (* -- hostile backend: rootkit module on node 2 fails closed ------ *)
  let f = make_fleet ~seed:"bench-fleet-sec" ~nodes:3 () in
  let healthy = Fleet.serve_wave f ~port:80 ~path:"/index.html" ~requests:12 in
  let outcome =
    Vg_attacks.Rootkit.infect
      (Node.kernel (Fleet.node f 2))
      ~attack:Vg_attacks.Rootkit.Signal_inject
  in
  let stolen =
    outcome.Vg_attacks.Rootkit.secret_leaked_to_console
    || outcome.Vg_attacks.Rootkit.secret_in_exfil_file
  in
  let quarantined = Fleet.check_health f in
  let degraded = Fleet.serve_wave f ~port:80 ~path:"/index.html" ~requests:12 in
  let degraded_ratio =
    let h = Fleet.wave_rps healthy in
    if h > 0.0 then Fleet.wave_rps degraded /. h else 0.0
  in
  Bench_report.linef r
    "  rootkit on node 2: secret %s, %d security events, quarantined=%s, \
     remaining nodes served %d/12 at %.2fx healthy throughput\n"
    (if stolen then "STOLEN" else "not obtained")
    (List.length (Fleet.security_events f 2))
    (String.concat ","
       (List.map (fun (i, _) -> string_of_int i) quarantined))
    degraded.Fleet.ok degraded_ratio;
  Bench_report.row r ~label:"rootkit-backend"
    [
      ("nodes", Bench_report.int 3);
      ("attack", Bench_report.str "signal-inject");
      ("secret_stolen", Bench_report.bool stolen);
      ( "failed_closed",
        Bench_report.bool outcome.Vg_attacks.Rootkit.vm_refusal_logged );
      ( "security_events",
        Bench_report.int (List.length (Fleet.security_events f 2)) );
      ( "quarantined",
        Obs_json.List
          (List.map (fun (i, _) -> Bench_report.int i) quarantined) );
      ("degraded_ok", Bench_report.int degraded.Fleet.ok);
      ("degraded_requests", Bench_report.int 12);
      ("degraded_throughput_ratio", Bench_report.num degraded_ratio);
    ];
  (* -- cross-node key distribution --------------------------------- *)
  let f = Fleet.create ~nodes:2 (bench_config ~seed:"bench-fleet-key" Sva.Virtual_ghost) in
  let kt = Fleet.distribute_key f ~src:0 ~dst:1 in
  Bench_report.linef r
    "  key distribution 0->1: delivered=%b (%d bytes), plaintext on \
     wire=%b, sealed at rest=%b, reload ok=%b\n"
    kt.Fleet.delivered kt.Fleet.key_len kt.Fleet.plaintext_on_wire
    kt.Fleet.sealed_at_rest kt.Fleet.reload_ok;
  Bench_report.row r ~label:"key-distribution"
    [
      ("delivered", Bench_report.bool kt.Fleet.delivered);
      ("key_len", Bench_report.int kt.Fleet.key_len);
      ("plaintext_on_wire", Bench_report.bool kt.Fleet.plaintext_on_wire);
      ("sealed_at_rest", Bench_report.bool kt.Fleet.sealed_at_rest);
      ("reload_ok", Bench_report.bool kt.Fleet.reload_ok);
    ];
  Bench_report.finish r

let experiments =
  [
    ("table2", table2);
    ("table34", table34);
    ("figure2", figure2);
    ("figure3", figure3);
    ("figure4", figure4);
    ("table5", table5);
    ("extra-micro", extra_micro);
    ("smp", smp);
    ("ring", ring);
    ("ghost_swap", ghost_swap);
    ("security", security);
    ("spectre", spectre_bench);
    ("ablations", ablations);
    ("fleet", fleet);
    ("executor", executor);
  ]

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--list" ] ->
      List.iter (fun (name, _) -> print_endline name) experiments;
      print_endline "bechamel";
      print_endline "json"
  | [ "--bechamel" ] -> bechamel ()
  | [ "--json" ] -> bench_json ()
  | [] ->
      Printf.printf "Virtual Ghost reproduction — full benchmark run\n";
      List.iter (fun (_, f) -> f ()) experiments
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> f ()
          | None -> Printf.eprintf "unknown experiment %s (try --list)\n" name)
        names
