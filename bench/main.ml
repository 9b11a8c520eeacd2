(* Benchmark harness regenerating every table and figure of the
   paper's evaluation (section 8), plus the security experiments
   (section 7) and the ablations called out in DESIGN.md.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- table2       -- one experiment
     dune exec bench/main.exe -- --list
     dune exec bench/main.exe -- --bechamel   -- host-time microbenches

   An experiment is one entry of [experiments] at the end of this file:
   a report name, a title and a function that runs the legs, prints
   the table, records the JSON rows and checks the experiment's
   acceptance where it computes each value.  The run exits 1 when any
   check failed (after writing every report) and 2 on an unknown
   experiment name.

   All latencies and bandwidths are *simulated* quantities read off the
   machine's cycle clock at the paper's 3.4 GHz; the goal is the shape
   of the paper's results (who wins, by what factor), not the absolute
   numbers of the authors' testbed. *)

module R = Bench_report

let kb = 1024

(* Every bench kernel boots through Node_config: a big machine
   (256 MiB, 64 MiB disk).  [tune] adjusts the profile; [obs] is the
   hub to report to (default: the machine's own). *)
let config ?(seed = "bench") mode =
  Node_config.(
    default |> with_phys_frames 65536 |> with_disk_sectors 131072 |> with_seed seed
    |> with_mode mode)

let boot ?seed ?(tune = Fun.id) ?obs mode =
  let c = config ?seed mode |> tune in
  Node.kernel (Node.boot (match obs with Some o -> Node_config.with_obs o c | None -> c))

(* Two legs of one comparison, [f obs a] then [f obs b], each on a
   fresh hub carrying a stats sink: [((a_result, a_stats), (b_result,
   b_stats))].  [legs] is the native/VG pair. *)
let pair f a b =
  let leg x = R.with_stats (fun obs -> f obs x) in
  let first = leg a in
  (first, leg b)

let legs f = pair f Sva.Native_build Sva.Virtual_ghost

(* The "vs the first row" columns: [base x] returns the first value
   this baseline was ever given. *)
let baseline () =
  let first = ref None in
  fun x ->
    match !first with
    | Some b -> b
    | None ->
        first := Some x;
        x

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

let run_lm k (lm : lm_row) =
  Runtime.launch k ~ghosting:false (fun ctx -> lm.run ctx ~iterations:lm.iterations)

(* Overhead attribution: the per-tag cycle deltas between the VG and
   native legs decompose a row into the paper's cost sources — trap
   entry, interrupt-context save + register zeroing, sandbox masking,
   CFI checks, MMU vetting, ghost crypto. *)
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
  R.linef r "    overhead attribution:";
  List.iter
    (fun (label, d) ->
      R.linef r " %s %.1f%%" label (100.0 *. float_of_int d /. float_of_int total))
    parts;
  R.linef r "\n"

let attribution_json parts = R.obj (List.map (fun (l, d) -> (l, R.int d)) parts)

let table2 r =
  R.linef r "%-18s %12s %12s %9s %9s %9s\n" "test" "native(us)" "vg(us)" "ovh(x)"
    "paper(x)" "inktag(x)";
  let rows = lmbench_rows (boot Sva.Virtual_ghost) in
  R.check r ~row:"-" ~what:"9 Table 2 rows" (List.length rows = 9);
  List.iter
    (fun lm ->
      let (native, st_native), (vg, st_vg) =
        legs (fun obs mode -> run_lm (boot ~obs mode) lm)
      in
      let paper_x = lm.paper_vg_us /. lm.paper_native_us in
      R.linef r "%-18s %8.3f(%.3f) %8.3f(%.3f) %8.2fx %8.2fx %s\n" lm.name native
        lm.paper_native_us vg lm.paper_vg_us (vg /. native) paper_x
        (match lm.paper_inktag_x with
        | Some x -> Printf.sprintf "%8.2fx" x
        | None -> "      - ");
      let parts, delta_total = attribution ~native:st_native ~vg:st_vg in
      print_attribution r parts delta_total;
      R.check r ~row:lm.name ~what:"VG overhead attributed" (parts <> []);
      R.row r ~label:lm.name
        [
          ("native_us", R.num native);
          ("vg_us", R.num vg);
          ("overhead_x", R.num (vg /. native));
          ("paper_native_us", R.num lm.paper_native_us);
          ("paper_vg_us", R.num lm.paper_vg_us);
          ("paper_overhead_x", R.num paper_x);
          ("attribution_cycles", attribution_json parts);
          ("overhead_cycles_total", R.int delta_total);
        ])
    rows

(* ------------------------------------------------------------------ *)
(* Tables 3 and 4: file delete / create per second                     *)

let table34 r =
  let sizes = [ (0, 166846., 36164., 156276., 33777.);
                (1024, 116668., 25817., 97839., 18796.);
                (4096, 116657., 25806., 97102., 18725.);
                (10240, 110842., 25042., 85319., 18095.) ] in
  R.linef r "%-8s | %28s | %28s\n" "size" "deletions/sec nat vs vg"
    "creations/sec nat vs vg";
  List.iter
    (fun (size, pdn, pdv, pcn, pcv) ->
      let per_sec bench =
        let (native, _), (vg, _) =
          legs (fun obs mode ->
              Runtime.launch (boot ~obs mode) ~ghosting:false (fun ctx ->
                  Lmbench.per_second (bench ctx ~size ~iterations:300)))
        in
        (native, vg)
      in
      let dn, dv = per_sec Lmbench.file_delete in
      let cn, cv = per_sec Lmbench.file_create in
      R.linef r "%-8d | %9.0f %9.0f %5.2fx (%4.2fx) | %9.0f %9.0f %5.2fx (%4.2fx)\n"
        size dn dv (dn /. dv) (pdn /. pdv) cn cv (cn /. cv) (pcn /. pcv);
      R.row r ~label:(Printf.sprintf "%d-bytes" size)
        [
          ("file_size_bytes", R.int size);
          ("delete_native_per_sec", R.num dn);
          ("delete_vg_per_sec", R.num dv);
          ("delete_slowdown_x", R.num (dn /. dv));
          ("paper_delete_slowdown_x", R.num (pdn /. pdv));
          ("create_native_per_sec", R.num cn);
          ("create_vg_per_sec", R.num cv);
          ("create_slowdown_x", R.num (cn /. cv));
          ("paper_create_slowdown_x", R.num (pcn /. pcv));
        ])
    sizes


(* ------------------------------------------------------------------ *)
(* Figures 2-4: bandwidth against file size                            *)

let figure_sizes = [ 1 * kb; 4 * kb; 16 * kb; 64 * kb; 256 * kb; 1024 * kb ]

(* KB/s over [iterations] runs of [run], after one untimed warm-up
   run. *)
let kb_per_sec machine ~size ~iterations run =
  run ();
  let start = Machine.cycles machine in
  for _ = 1 to iterations do
    run ()
  done;
  let seconds = Cost.to_seconds (Machine.cycles machine - start) in
  float_of_int (iterations * size) /. 1024.0 /. seconds

let thttpd_bandwidth k size ~requests =
  Httpd.install_doc k ~path:"/doc" ~size;
  Runtime.launch k ~ghosting:false (fun ctx ->
      match Httpd.start ctx ~port:80 with
      | Error _ -> 0.0
      | Ok listen_fd ->
          let machine = k.Kernel.machine in
          let get () =
            Httpd.Client.get machine ~port:80 ~path:"/doc" (fun () ->
                ignore (Httpd.serve_requests ctx ~listen_fd ~max:1))
          in
          (* warm the page cache with one untimed request *)
          ignore (get ());
          let start = Machine.cycles machine in
          let ok = ref 0 in
          for _ = 1 to requests do
            match get () with
            | Some body when Bytes.length body = size -> incr ok
            | Some _ | None -> ()
          done;
          let seconds = Cost.to_seconds (Machine.cycles machine - start) in
          if !ok = 0 then 0.0 else float_of_int (!ok * size) /. 1024.0 /. seconds)

let figure2 r =
  R.linef r "%-10s %14s %14s %10s\n" "file size" "native KB/s" "vg KB/s" "ratio";
  List.iter
    (fun size ->
      let requests = if size >= 256 * kb then 5 else 20 in
      let (native, _), (vg, _) =
        legs (fun obs mode -> thttpd_bandwidth (boot ~obs mode) size ~requests)
      in
      R.linef r "%7dKB %14.0f %14.0f %9.2fx\n" (size / kb) native vg (native /. vg);
      R.row r ~label:(Printf.sprintf "%dKB" (size / kb))
        [
          ("file_size_bytes", R.int size);
          ("native_kb_per_sec", R.num native);
          ("vg_kb_per_sec", R.num vg);
          ("ratio_x", R.num (native /. vg));
        ])
    figure_sizes;
  R.note r "(paper: negligible impact at all sizes)"

let session_key = Bytes.of_string "fedcba9876543210"
let figure_iterations size = if size >= 256 * kb then 3 else 10

let sshd_bandwidth k size =
  Httpd.install_doc k ~path:"/file" ~size;
  Runtime.launch k ~ghosting:false (fun ctx ->
      match Syscalls.listen k (Kernel.current_proc k) ~port:22 with
      | Error _ -> 0.0
      | Ok listen_fd ->
          let machine = k.Kernel.machine in
          kb_per_sec machine ~size ~iterations:(figure_iterations size) (fun () ->
              let ep = Netstack.Remote.connect machine ~port:22 in
              (match Ssh_suite.sshd_serve_file ctx ~listen_fd ~path:"/file" ~session_key with
              | Ok _ -> ()
              | Error msg -> failwith msg);
              ignore (Netstack.Remote.recv_all_available ep);
              Netstack.Remote.close ep))

let figure3 r =
  R.linef r "%-10s %14s %14s %10s\n" "file size" "native KB/s" "vg KB/s" "reduction";
  List.iter
    (fun size ->
      let (native, _), (vg, _) =
        legs (fun obs mode -> sshd_bandwidth (boot ~obs mode) size)
      in
      let reduction = (native -. vg) /. native *. 100.0 in
      R.linef r "%7dKB %14.0f %14.0f %9.1f%%\n" (size / kb) native vg reduction;
      R.row r ~label:(Printf.sprintf "%dKB" (size / kb))
        [
          ("file_size_bytes", R.int size);
          ("native_kb_per_sec", R.num native);
          ("vg_kb_per_sec", R.num vg);
          ("reduction_pct", R.num reduction);
        ])
    figure_sizes;
  R.note r "(paper: 23% reduction on average, 45% worst case, ~0 for large files)"

(* Figure 4: ghosting vs original ssh client, both on the VG kernel. *)
let ssh_client_bandwidth k ~ghosting size =
  Runtime.launch k ~ghosting (fun ctx ->
      let machine = k.Kernel.machine in
      kb_per_sec machine ~size ~iterations:(figure_iterations size) (fun () ->
          match Ssh_suite.fetch_begin ctx ~port:2022 with
          | Error _ -> failwith "connect"
          | Ok fd ->
              if not (Ssh_suite.remote_file_server machine ~session_key ~len:size ~chunk:1400)
              then failwith "no SYN";
              (match Ssh_suite.fetch_complete ctx ~fd ~len:size ~session_key with
              | Ok _ -> ()
              | Error msg -> failwith msg);
              ignore (Runtime.sys_close ctx fd)))

let figure4 r =
  R.linef r "%-10s %14s %14s %10s\n" "file size" "orig KB/s" "ghosting KB/s" "reduction";
  List.iter
    (fun size ->
      let (original, _), (ghosting, _) =
        pair
          (fun obs ghosting ->
            ssh_client_bandwidth (boot ~obs Sva.Virtual_ghost) ~ghosting size)
          false true
      in
      let reduction = (original -. ghosting) /. original *. 100.0 in
      R.linef r "%7dKB %14.0f %14.0f %9.1f%%\n" (size / kb) original ghosting reduction;
      R.row r ~label:(Printf.sprintf "%dKB" (size / kb))
        [
          ("file_size_bytes", R.int size);
          ("original_kb_per_sec", R.num original);
          ("ghosting_kb_per_sec", R.num ghosting);
          ("reduction_pct", R.num reduction);
        ])
    figure_sizes;
  R.note r "(paper: at most 5% reduction from using ghost memory)"

(* ------------------------------------------------------------------ *)
(* Table 5: Postmark                                                   *)

let postmark_seconds k ~transactions =
  Runtime.launch k ~ghosting:false (fun ctx ->
      let machine = k.Kernel.machine in
      let config = { Postmark.paper_config with base_files = 100; transactions; seed = 42 } in
      let start = Machine.cycles machine in
      (match Postmark.run ctx config with
      | Ok _ -> ()
      | Error e -> failwith ("postmark: " ^ Errno.to_string e));
      Cost.to_seconds (Machine.cycles machine - start))

let table5 r =
  let transactions = 20_000 in
  let (native, st_native), (vg, st_vg) =
    legs (fun obs mode -> postmark_seconds (boot ~obs mode) ~transactions)
  in
  let paper_x = 67.50 /. 14.30 in
  R.linef r "%-14s %10s %10s %8s %10s\n" "benchmark" "native(s)" "vg(s)" "ovh" "paper";
  R.linef r "%-14s %10.3f %10.3f %7.2fx %9.2fx\n" "postmark" native vg (vg /. native)
    paper_x;
  let parts, delta_total = attribution ~native:st_native ~vg:st_vg in
  print_attribution r parts delta_total;
  R.row r ~label:"postmark"
    [
      ("transactions", R.int transactions);
      ("native_seconds", R.num native);
      ("vg_seconds", R.num vg);
      ("overhead_x", R.num (vg /. native));
      ("paper_overhead_x", R.num paper_x);
      ("attribution_cycles", attribution_json parts);
    ]

(* ------------------------------------------------------------------ *)
(* Additional LMBench-style microbenchmarks (beyond Table 2)           *)

let extra_micro r =
  let pair_of bench =
    let (native, _), (vg, _) =
      legs (fun obs mode -> Runtime.launch (boot ~obs mode) ~ghosting:false bench)
    in
    (native, vg)
  in
  R.linef r "%-22s %12s %12s %9s\n" "test" "native" "vg" "ovh(x)";
  List.iter
    (fun (name, bench) ->
      let native, vg = pair_of bench in
      R.linef r "%-22s %12.3f %12.3f %8.2fx\n" name native vg (vg /. native);
      R.row r ~label:name
        [
          ("native_us", R.num native);
          ("vg_us", R.num vg);
          ("overhead_x", R.num (vg /. native));
        ])
    [
      ("pipe latency (us)", fun ctx -> Lmbench.pipe_latency ctx ~iterations:500);
      ("context switch (us)", fun ctx -> Lmbench.context_switch ctx ~iterations:500);
    ];
  let native, vg = pair_of (fun ctx -> Lmbench.pipe_bandwidth ctx ~iterations:100) in
  R.linef r "%-22s %10.1fMB %10.1fMB %8.2fx (native/vg)\n" "pipe bandwidth" native vg
    (native /. vg);
  R.row r ~label:"pipe bandwidth"
    [
      ("native_mb_per_sec", R.num native);
      ("vg_mb_per_sec", R.num vg);
      ("ratio_x", R.num (native /. vg));
    ]

(* ------------------------------------------------------------------ *)
(* Section 7: security experiments                                     *)

(* Every leg runs under a stats sink: under VG a blocked attack must
   also announce itself on the event stream, and the count makes the
   JSON row auditable. *)
let security r =
  let events st = R.int (Obs_stats.security_events st) in
  List.iter
    (fun (attack, attack_name) ->
      let native, vg =
        legs (fun obs mode -> Vg_attacks.Rootkit.run_experiment ~obs ~mode ~attack ())
      in
      List.iter
        (fun (mode_name, ((o : Vg_attacks.Rootkit.outcome), st)) ->
          R.line r (Format.asprintf "  %a@." Vg_attacks.Rootkit.pp_outcome o);
          R.row r
            ~label:(Printf.sprintf "rootkit %s on %s" attack_name mode_name)
            [
              ("secret_stolen", R.bool (o.secret_leaked_to_console || o.secret_in_exfil_file));
              ("victim_survived", R.bool o.victim_survived);
              ("security_events", events st);
            ])
        [ ("native", native); ("vg", vg) ])
    [
      (Vg_attacks.Rootkit.Direct_read, "direct-read");
      (Vg_attacks.Rootkit.Signal_inject, "signal-inject");
    ];
  let vector name f =
    let (native, native_st), (vg, vg_st) = legs (fun obs mode -> f ~obs ~mode) in
    R.linef r "  %-28s native:%-9s vg:%s\n" name
      (if native then "STOLEN" else "blocked")
      (if vg then "STOLEN" else "blocked");
    R.row r ~label:name
      [
        ("native_stolen", R.bool native);
        ("vg_stolen", R.bool vg);
        ("native_security_events", events native_st);
        ("vg_security_events", events vg_st);
      ]
  in
  vector "mmu remap" Vg_attacks.Other_attacks.mmu_remap_attack;
  vector "dma" Vg_attacks.Other_attacks.dma_attack;
  vector "interrupt-context tamper" Vg_attacks.Other_attacks.icontext_tamper_attack;
  vector "swap tamper" Vg_attacks.Other_attacks.swap_tamper_attack;
  vector "file replay" Vg_attacks.Other_attacks.file_replay_attack;
  let (unmasked, unmasked_st), (masked, masked_st) =
    pair
      (fun obs ghosting ->
        Vg_attacks.Other_attacks.iago_mmap_attack ~obs ~mode:Sva.Virtual_ghost ~ghosting)
      false true
  in
  R.linef r "  %-28s unmasked:%-7s masked:%s\n" "iago mmap (on vg kernel)"
    (if unmasked then "CORRUPT" else "safe")
    (if masked then "CORRUPT" else "safe");
  R.row r ~label:"iago mmap (on vg kernel)"
    [
      ("unmasked_corrupted", R.bool unmasked);
      ("masked_corrupted", R.bool masked);
      ("unmasked_security_events", events unmasked_st);
      ("masked_security_events", events masked_st);
    ]

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
  R.linef r "  pass cost on %s (executor cycles):\n" title;
  R.linef r "    %-22s %8d (1.00x)\n" "no instrumentation" base;
  List.iter
    (fun (name, c) ->
      R.linef r "    %-22s %8d (%.2fx)\n" name c (float_of_int c /. float_of_int base);
      R.row r
        ~label:(Printf.sprintf "pass-cost %s: %s" key name)
        [
          ("fixture", R.str key);
          ("config", R.str name);
          ("cycles", R.int c);
          ("base_cycles", R.int base);
          ("slowdown_x", R.num (float_of_int c /. float_of_int base));
        ])
    [
      ("cfi only", cycles ~cfi:true program);
      ("sandboxing only", cycles ~cfi:false sandboxed);
      ("sandbox + cfi", cycles ~cfi:true sandboxed);
    ]

let ablations r =
  (* (a) Instruction-level cost of the passes, measured on real
     compiled code in the executor: a memory-bound loop shows the
     sandboxing cost, a call-heavy recursion shows the CFI cost. *)
  pass_cost_table r ~key:"collatz" ~entry:"collatz" "a memory-bound kernel loop (collatz)"
    (Vg_oracle.Fixtures.collatz_program ());
  pass_cost_table r ~key:"recsum" ~entry:"sum" "call-heavy kernel code (recursive sum)"
    (Vg_oracle.Fixtures.rec_sum_program ());
  (* (b) Ghosting versus the shadowing (Overshadow/InkTag) design: the
     shadowing model must encrypt+hash each application page the kernel
     touches on the syscall path; Virtual Ghost just masks. *)
  let null_vg =
    Runtime.launch (boot Sva.Virtual_ghost) ~ghosting:false (fun ctx ->
        Lmbench.null_syscall ctx ~iterations:500)
  in
  let crypt_page_us = Cost.to_microseconds (4096 * (Cost.aes_per_byte + Cost.sha_per_byte)) in
  R.linef r "  shadowing-model estimate: null syscall touching 1 app page would add\n";
  R.linef r "    +%.3f us of encrypt+hash per page versus %.3f us total under ghosting\n"
    crypt_page_us null_vg;
  R.row r ~label:"shadowing-model estimate"
    [ ("crypt_page_us", R.num crypt_page_us); ("ghosting_null_syscall_us", R.num null_vg) ];
  (* (c) Register zeroing / IC save share of the trap cost. *)
  R.linef r "  trap-entry composition (cycles): base=%d, vg extra (IC save+zeroing)=%d\n"
    Cost.trap_entry Cost.vg_trap_extra;
  R.row r ~label:"trap-entry composition"
    [
      ("base_cycles", R.int Cost.trap_entry);
      ("vg_extra_cycles", R.int Cost.vg_trap_extra);
    ];
  (* (d) Syscall-argument copying policy: the shadowing systems copy
     every buffer through a bounce region; Virtual Ghost copies only
     ghost-resident data.  Measure a non-ghost bulk write both ways. *)
  let copy_policy selective =
    let k = boot Sva.Virtual_ghost in
    Runtime.launch k ~ghosting:true (fun ctx ->
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
  let penalty = (always -. selective) /. selective *. 100.0 in
  R.linef r "  syscall-argument copy policy (64 KiB non-ghost write):\n";
  R.linef r "    copy-only-ghost (VG)   %10.2f us\n" selective;
  R.linef r "    copy-always (shadowing)%10.2f us (+%.0f%%)\n" always penalty;
  R.row r ~label:"syscall-argument copy policy"
    [
      ("copy_only_ghost_us", R.num selective);
      ("copy_always_us", R.num always);
      ("copy_always_penalty_pct", R.num penalty);
    ];
  (* (e) What the optimiser buys on kernel code. *)
  let instrumented =
    Vg_compiler.Sandbox_pass.instrument_program (Vg_oracle.Fixtures.collatz_program ())
  in
  let before = Vg_ir.Ir.instr_count instrumented in
  let after = Vg_ir.Ir.instr_count (Vg_compiler.Opt_pass.optimize_program instrumented) in
  R.linef r "  optimizer on instrumented collatz: %d -> %d IR instructions\n" before after;
  R.row r ~label:"optimizer on instrumented collatz"
    [ ("ir_instructions_before", R.int before); ("ir_instructions_after", R.int after) ]

(* ------------------------------------------------------------------ *)
(* SMP: httpd worker-pool scaling across cores                         *)

(* One worker per core serving the 8 KiB document. *)
let pool_serve ?(tune = Fun.id) ?obs mode ~cpus ~requests =
  let tune c = Node_config.with_cpus cpus (tune c) in
  let k = boot ~seed:"bench-smp" ~tune ?obs mode in
  Httpd.install_doc k ~path:"/index.html" ~size:(8 * kb);
  Httpd.Pool.run k ~workers:cpus ~requests ~port:80 ~path:"/index.html"

let smp r =
  let requests = 32 in
  R.linef r "%-6s %16s %10s %16s %10s\n" "cores" "native req/s" "speedup" "vg req/s"
    "speedup";
  let n_base = baseline () and v_base = baseline () in
  let speedups =
    List.map
      (fun cpus ->
        let (n_stats, _), (v_stats, _) =
          legs (fun obs mode -> pool_serve ~obs mode ~cpus ~requests)
        in
        let n_rps = Httpd.Pool.rps n_stats and v_rps = Httpd.Pool.rps v_stats in
        let n_speedup = n_rps /. n_base n_rps and v_speedup = v_rps /. v_base v_rps in
        let label = Printf.sprintf "%d-core" cpus in
        R.linef r "%6d %16.0f %9.2fx %16.0f %9.2fx\n" cpus n_rps n_speedup v_rps v_speedup;
        R.row r ~label
          [
            ("cpus", R.int cpus);
            ("requests", R.int requests);
            ("native_req_per_sec", R.num n_rps);
            ("native_speedup_x", R.num n_speedup);
            ("native_ok", R.int n_stats.Httpd.Pool.ok);
            ("native_preemptions", R.int n_stats.Httpd.Pool.preemptions);
            ("native_steals", R.int n_stats.Httpd.Pool.steals);
            ("vg_req_per_sec", R.num v_rps);
            ("vg_speedup_x", R.num v_speedup);
            ("vg_ok", R.int v_stats.Httpd.Pool.ok);
            ("vg_preemptions", R.int v_stats.Httpd.Pool.preemptions);
            ("vg_steals", R.int v_stats.Httpd.Pool.steals);
          ];
        (cpus, (n_speedup, v_speedup)))
    [ 1; 2; 4; 8 ]
  in
  (* A missing 4-core row reads as no speedup. *)
  let n4, v4 = Option.value (List.assoc_opt 4 speedups) ~default:(0.0, 0.0) in
  R.check r ~row:"4-core" ~what:"native 4-core speedup >= 2.5x" (n4 >= 2.5);
  R.check r ~row:"4-core" ~what:"vg 4-core speedup >= 2.5x" (v4 >= 2.5);
  R.note r
    "(acceptance: 4-core throughput at least 2.5x the 1-core run on both \
     builds; the kernel pays cross-core costs for IPIs, spinlock transfers \
     and SVA swap checks)"

(* ------------------------------------------------------------------ *)
(* Syscall ring: trap-protocol amortisation across batch sizes         *)

(* Cycles spent in the trap protocol itself — entry, interrupt-context
   save + register zeroing (the VG-only part), return-to-user.  This
   is what one ring_enter amortises across a whole batch. *)
let trap_protocol_cycles st =
  Obs_stats.cycles st Obs.Tag.Trap
  + Obs_stats.cycles st Obs.Tag.Trap_save
  + Obs_stats.cycles st Obs.Tag.Trap_return

let ring_serve ?sfip ?tune ?obs mode ~batch ~requests =
  let k = boot ~seed:"bench-ring" ?tune ?obs mode in
  Httpd.install_doc k ~path:"/index.html" ~size:(8 * kb);
  Httpd.Event_loop.run k ~batch ?sfip ~requests ~port:80 ~path:"/index.html"

(* The server's own SFIP profile, recorded by running the identical
   (deterministic) workload once in Record mode — the profiling run an
   administrator performs before signing the image. *)
let ring_profile mode ~batch ~requests =
  let recorder = Syscall_policy.record () in
  ignore (ring_serve ~sfip:recorder mode ~batch ~requests);
  Syscall_policy.enforce (Syscall_policy.graph recorder)

let ring r =
  let requests = 32 in
  R.linef r "%-6s %18s %10s %18s %10s %8s %6s %14s %9s\n" "batch" "native trap cy/req"
    "reduction" "vg trap cy/req" "reduction" "enters" "sqes" "sfip cy/req" "overhead";
  let n_base = baseline () and v_base = baseline () in
  let at_batch =
    List.map
      (fun batch ->
        let (n_stats, st_n), (v_stats, st_v) =
          legs (fun obs mode -> ring_serve ~obs mode ~batch ~requests)
        in
        (* Third configuration: the same vg serve under its own recorded
           SFIP profile (enforced).  The profiling run happens outside
           the stats window. *)
        let sfip = ring_profile Sva.Virtual_ghost ~batch ~requests in
        let s_stats, st_s =
          R.with_stats (fun obs -> ring_serve ~sfip ~obs Sva.Virtual_ghost ~batch ~requests)
        in
        let per_req cycles (stats : Httpd.Event_loop.stats) =
          float_of_int cycles /. float_of_int (max 1 stats.served)
        in
        let n_cy = per_req (trap_protocol_cycles st_n) n_stats in
        let v_cy = per_req (trap_protocol_cycles st_v) v_stats in
        let sfip_cy = per_req (Obs_stats.cycles st_s Obs.Tag.Sfip) s_stats in
        (* SFIP checking cost relative to the trap protocol it rides on,
           measured on the sfip-on run itself. *)
        let sfip_overhead =
          float_of_int (Obs_stats.cycles st_s Obs.Tag.Sfip)
          /. float_of_int (max 1 (trap_protocol_cycles st_s))
        in
        let n_red = n_base n_cy /. n_cy and v_red = v_base v_cy /. v_cy in
        let label = Printf.sprintf "batch-%d" batch in
        R.check r ~row:label ~what:"native, vg and sfip runs serve every request"
          (n_stats.ok = requests && v_stats.ok = requests && s_stats.ok = requests);
        R.linef r "%6d %18.0f %9.2fx %18.0f %9.2fx %8d %6d %14.0f %8.1f%%\n" batch n_cy n_red
          v_cy v_red v_stats.ring_enters v_stats.sqes sfip_cy (100.0 *. sfip_overhead);
        R.row r ~label
          [
            ("batch", R.int batch);
            ("requests", R.int requests);
            ("native_trap_cycles_per_req", R.num n_cy);
            ("native_reduction_x", R.num n_red);
            ("native_ok", R.int n_stats.ok);
            ("vg_trap_cycles_per_req", R.num v_cy);
            ("vg_reduction_x", R.num v_red);
            ("vg_ok", R.int v_stats.ok);
            ("vg_ring_enters", R.int v_stats.ring_enters);
            ("vg_sqes", R.int v_stats.sqes);
            ("vg_polls", R.int v_stats.polls);
            ("vg_ring_dispatch_cycles", R.int (Obs_stats.cycles st_v Obs.Tag.Ring));
            ("vg_sfip_cycles_per_req", R.num sfip_cy);
            ("vg_sfip_overhead_frac", R.num sfip_overhead);
            ("vg_sfip_ok", R.int s_stats.ok);
          ];
        (batch, (n_red, v_red, sfip_overhead)))
    [ 1; 8; 32 ]
  in
  (* A missing batch-32 row reads as no amortisation. *)
  let n_red, v_red, sfip_overhead =
    Option.value (List.assoc_opt 32 at_batch) ~default:(0.0, 0.0, infinity)
  in
  R.check r ~row:"batch-32" ~what:"vg trap cycles/request reduced >= 2x" (v_red >= 2.0);
  R.check r ~row:"batch-32" ~what:"native trap cycles/request reduced >= 2x" (n_red >= 2.0);
  R.check r ~row:"batch-32" ~what:"sfip <= 10% of the trap protocol" (sfip_overhead <= 0.10);
  R.note r
    "(acceptance: vg trap-protocol cycles per request at batch 32 at most \
     half the batch-1 figure; path syscalls — open, stat — stay direct \
     traps and bound the amortisation.  sfip enforcement — every entry \
     checked against the recorded profile, whole batches prechecked — \
     serves every request and costs at most 10% of the trap protocol at \
     batch 32)"

(* ------------------------------------------------------------------ *)
(* Ghost swap: sealed swapping under memory overcommit                 *)

let swap_frame_limit = 192
let swap_ratios = [ 1; 2; 3; 4 ]
let swap_marker_len = 16
let swap_marker i = Printf.sprintf "ghost-%09d!" i

(* The frame-capped two-core machine both swap experiments run on. *)
let boot_swap ~seed ~obs mode =
  boot ~seed ~obs mode
    ~tune:
      Node_config.(
        fun c -> c |> with_cpus 2 |> with_phys_frames 8192 |> with_frame_limit swap_frame_limit)

(* Fill [pages] ghost pages from [ghost_page 0], eight per allocgm so
   the pressure engine evicts as the set grows, each holding its
   marker. *)
let ghost_page i = Int64.add (Int64.add Layout.ghost_start 0x100000L) (Int64.of_int (i * 4096))

let ghost_fill k ctx ~pages =
  let i = ref 0 in
  while !i < pages do
    let n = min 8 (pages - !i) in
    (match Syscalls.allocgm k ctx.Runtime.proc ~va:(ghost_page !i) ~pages:n with
    | Ok () -> ()
    | Error e -> failwith ("ghost fill allocgm: " ^ Errno.to_string e));
    for j = !i to !i + n - 1 do
      Runtime.poke ctx (ghost_page j) (Bytes.of_string (swap_marker j))
    done;
    i := !i + n
  done

let marker_intact ctx j =
  Bytes.to_string (Runtime.peek ctx (ghost_page j) swap_marker_len) = swap_marker j

(* A ghost working-set walker: allocate [ratio] x the resident ghost
   capacity, then walk the whole set [rounds] times verifying every
   page's marker.  Beyond ratio 1 every walk is a fault storm: unseal
   on the way in, seal the evicted page on the way out.  The swapd
   daemon fiber shares the scheduler and keeps availability above the
   low watermark. *)
let swap_walker obs mode ~ratio =
  let k = boot_swap ~seed:"bench-swap" ~obs mode in
  let machine = k.Kernel.machine in
  let sched = Sched.create k in
  Ghost_swap.spawn_swapd k sched;
  let out = ref None in
  ignore
    (Runtime.spawn_fiber k sched ~cpu:0 ~ghosting:true ~name:"walker" (fun ctx ->
         (* Resident capacity: what fits right now, minus slack for
            page tables and the daemon's watermark gap. *)
         let capacity = Ghost_swap.available k - 48 in
         let pages = capacity * ratio in
         ghost_fill k ctx ~pages;
         let rounds = 2 in
         let start = Machine.cycles machine in
         for _round = 1 to rounds do
           for j = 0 to pages - 1 do
             if not (marker_intact ctx j) then
               failwith (Printf.sprintf "walker: page %d came back wrong" j)
           done
         done;
         out := Some (capacity, pages, rounds, Machine.cycles machine - start);
         Ghost_swap.stop_swapd k));
  Sched.run sched;
  let capacity, pages, rounds, elapsed = Option.get !out in
  let seconds = Cost.to_seconds elapsed in
  let tput = if seconds > 0.0 then float_of_int (pages * rounds) /. seconds else 0.0 in
  (tput, capacity, pages, Ghost_swap.stats k)

(* Applications under ghost pressure: a hog process pins nearly every
   frame in ghost pages, then an httpd worker pool (ghosting workers)
   and a Postmark run compete for memory — their allocations push the
   hog out through the sealed path.  The hog's final walk proves every
   secret survived the round trip through the untrusted swap store. *)
let swap_apps obs mode =
  let k = boot_swap ~seed:"bench-swap-apps" ~obs mode in
  let machine = k.Kernel.machine in
  Httpd.install_doc k ~path:"/index.html" ~size:(8 * kb);
  Runtime.launch k ~ghosting:true (fun hog ->
      let hog_pages = Ghost_swap.available k - 48 in
      ghost_fill k hog ~pages:hog_pages;
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
      let intact = List.length (List.filter (marker_intact hog) (List.init hog_pages Fun.id)) in
      (hog_pages, intact, hstats, pm_seconds, Ghost_swap.stats k))

let ghost_swap r =
  R.linef r "%-6s %6s %14s %14s %9s %12s %12s %9s\n" "ratio" "pages" "native tch/s"
    "vg tch/s" "overhead" "vg swapouts" "vg swapins" "refused";
  let swap_ins =
    List.map
      (fun ratio ->
        let ((n_tput, _, _, n_st), st_n), ((v_tput, capacity, pages, v_st), st_v) =
          legs (fun obs mode -> swap_walker obs mode ~ratio)
        in
        let overhead = if v_tput > 0.0 then n_tput /. v_tput else 0.0 in
        let label = Printf.sprintf "ratio-%d" ratio in
        R.check r ~row:label ~what:"no freshness refusals" (v_st.Ghost_swap.refusals = 0);
        if ratio = 1 then
          R.check r ~row:label ~what:"ratio 1 swaps nothing"
            (v_st.swap_ins = 0 && v_st.swap_outs = 0);
        R.linef r "%6d %6d %14.0f %14.0f %8.2fx %12d %12d %9d\n" ratio pages n_tput v_tput
          overhead v_st.swap_outs v_st.swap_ins v_st.refusals;
        let parts, delta_total = attribution ~native:st_n ~vg:st_v in
        if ratio > 1 then print_attribution r parts delta_total;
        R.row r ~label
          [
            ("overcommit_ratio", R.int ratio);
            ("capacity_pages", R.int capacity);
            ("working_set_pages", R.int pages);
            ("native_touches_per_sec", R.num n_tput);
            ("vg_touches_per_sec", R.num v_tput);
            ("overhead_x", R.num overhead);
            ("native_swap_outs", R.int n_st.Ghost_swap.swap_outs);
            ("native_swap_ins", R.int n_st.swap_ins);
            ("vg_swap_outs", R.int v_st.swap_outs);
            ("vg_swap_ins", R.int v_st.swap_ins);
            ("vg_refusals", R.int v_st.refusals);
            ("vg_reclaims", R.int v_st.reclaims);
            ("vg_daemon_wakeups", R.int v_st.daemon_wakeups);
            ("vg_crypto_cycles", R.int (Obs_stats.cycles st_v Obs.Tag.Crypto));
            ("vg_swap_cycles", R.int (Obs_stats.cycles st_v Obs.Tag.Swap));
            ("attribution_cycles", attribution_json parts);
          ];
        v_st.swap_ins)
      swap_ratios
  in
  (match swap_ins with
  | [ _; two; _; four ] ->
      R.check r ~row:"ratio-4" ~what:"swap-ins scale with overcommit (ratio 4 > 2 > 0)"
        (four > two && two > 0)
  | _ -> R.check r ~row:"-" ~what:"overcommit ladder 1,2,3,4" false);
  (* Applications under pressure. *)
  let apps mode_name ((hog_pages, intact, hstats, pm_seconds, st), _) =
    let label = "apps-" ^ mode_name in
    let rps = Httpd.Pool.rps hstats in
    R.linef r
      "%s: httpd %d/16 ok (%.0f req/s), postmark %.3fs, hog %d/%d pages intact, %d \
       swapouts %d swapins\n"
      mode_name hstats.Httpd.Pool.ok rps pm_seconds intact hog_pages st.Ghost_swap.swap_outs
      st.swap_ins;
    R.check r ~row:label ~what:"every hog page survives the swap store"
      (intact = hog_pages && hog_pages > 0);
    R.check r ~row:label ~what:"eviction pressure (swap-outs > 0)" (st.swap_outs > 0);
    R.row r ~label
      [
        ("hog_pages", R.int hog_pages);
        ("hog_pages_intact", R.int intact);
        ("httpd_ok", R.int hstats.ok);
        ("httpd_req_per_sec", R.num rps);
        ("postmark_seconds", R.num pm_seconds);
        ("swap_outs", R.int st.swap_outs);
        ("swap_ins", R.int st.swap_ins);
        ("refusals", R.int st.refusals);
      ]
  in
  let native, vg = legs swap_apps in
  apps "native" native;
  apps "vg" vg;
  R.note r
    "(acceptance: every walk verifies every marker — a wrong byte fails the \
     run; ratio 1 swaps nothing and ratios 2-4 show swap traffic scaling \
     with the overcommit; the vg legs attribute their extra cycles to \
     crypto (sealing) and swap (daemon); the hog's pages all survive \
     eviction by hostile-grade httpd+postmark memory pressure)"

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

let spectre_tune spec_depth mitigation c =
  Node_config.(c |> with_spec_depth spec_depth |> with_spec_mitigation mitigation)

let spectre r =
  (* 1. The attack itself, per configuration. *)
  R.linef r "%-10s %6s %11s %11s %9s %9s\n" "config" "depth" "mitigation" "leaked"
    "windows" "t-loads";
  List.iter
    (fun (label, spec_depth, mitigation) ->
      let o =
        Vg_attacks.Spectre.run_experiment ~spec_depth ~mitigation ~obs:(Obs.create ()) ()
      in
      let secret_bytes = String.length o.Vg_attacks.Spectre.secret in
      let row = "attack:" ^ label in
      (match label with
      | "spec" ->
          R.check r ~row ~what:"unmitigated depth-12 attack leaks" o.success;
          R.check r ~row ~what:"the whole secret is recovered"
            (o.bytes_recovered = secret_bytes && secret_bytes > 0)
      | _ ->
          R.check r ~row ~what:"attack fails" (not o.success);
          R.check r ~row ~what:"no byte recovered" (o.bytes_recovered = 0));
      if label = "no-spec" then begin
        R.check r ~row ~what:"no speculation window at depth 0" (o.windows = 0);
        R.check r ~row ~what:"no transient load at depth 0" (o.transient_loads = 0)
      end;
      if label = "fence" then
        R.check r ~row ~what:"no load passes the lfence" (o.transient_loads = 0);
      if label = "safe-mask" then
        R.check r ~row ~what:"safe-mask opens no window" (o.windows = 0);
      R.linef r "%-10s %6d %11s %5d/%d %9d %9d\n" label spec_depth
        (Vg_compiler.Mitigation.to_string mitigation)
        o.bytes_recovered secret_bytes o.windows o.transient_loads;
      R.row r ~label:row
        [
          ("config", R.str label);
          ("spec_depth", R.int spec_depth);
          ("mitigation", R.str (Vg_compiler.Mitigation.to_string mitigation));
          ("leak_success", R.bool o.success);
          ("bytes_recovered", R.int o.bytes_recovered);
          ("secret_bytes", R.int secret_bytes);
          ("windows", R.int o.windows);
          ("transient_loads", R.int o.transient_loads);
        ])
    spectre_configs;
  (* 2. Table 2 microbenchmarks under each configuration. *)
  R.linef r "\n%-18s %12s %12s %12s %12s\n" "test" "no-spec(us)" "spec(us)" "fence(us)"
    "safe-mask(us)";
  let rows = lmbench_rows (boot Sva.Virtual_ghost) in
  R.check r ~row:"-" ~what:"lmbench matrix: >= 9 tests x 4 configurations"
    (List.length rows >= 9 && List.length spectre_configs = 4);
  List.iter
    (fun lm ->
      let base = baseline () in
      R.linef r "%-18s" lm.name;
      List.iter
        (fun (label, spec_depth, mitigation) ->
          let us, st =
            R.with_stats (fun obs ->
                run_lm
                  (boot ~tune:(spectre_tune spec_depth mitigation) ~obs Sva.Virtual_ghost)
                  lm)
          in
          let row = Printf.sprintf "lm:%s:%s" lm.name label in
          let overhead = us /. base us in
          let spec_cycles = Obs_stats.cycles st Obs.Tag.Spec in
          if label = "no-spec" then begin
            R.check r ~row ~what:"no-spec is the 1.0x baseline" (overhead = 1.0);
            R.check r ~row ~what:"no Spec cycles at depth 0" (spec_cycles = 0)
          end;
          R.linef r " %12.3f" us;
          R.row r ~label:row
            [
              ("test", R.str lm.name);
              ("config", R.str label);
              ("spec_depth", R.int spec_depth);
              ("mitigation", R.str (Vg_compiler.Mitigation.to_string mitigation));
              ("vg_us", R.num us);
              ("overhead_vs_no_spec_x", R.num overhead);
              ("spec_cycles", R.int spec_cycles);
              ("mask_cycles", R.int (Obs_stats.cycles st Obs.Tag.Mask));
            ])
        spectre_configs;
      R.linef r "\n")
    rows;
  (* 3. httpd under each configuration: worker pool and syscall-ring
     event loop. *)
  let requests = 32 in
  R.linef r "\n%-10s %16s %16s\n" "config" "pool req/s" "ring req/s";
  let p_base = baseline () and e_base = baseline () in
  let pool_rps =
    List.map
      (fun (label, spec_depth, mitigation) ->
        let tune = spectre_tune spec_depth mitigation in
        let p_stats, st_p =
          R.with_stats (fun obs ->
              pool_serve ~tune ~obs Sva.Virtual_ghost ~cpus:2 ~requests)
        in
        let e_stats, st_e =
          R.with_stats (fun obs ->
              ring_serve ~tune ~obs Sva.Virtual_ghost ~batch:8 ~requests)
        in
        let p_rps = Httpd.Pool.rps p_stats and e_rps = Httpd.Event_loop.rps e_stats in
        let p_slow = p_base p_rps /. max p_rps 1e-9 and e_slow = e_base e_rps /. max e_rps 1e-9 in
        let row = "httpd:" ^ label in
        R.check r ~row ~what:"pool and ring serve every request"
          (p_stats.ok = requests && e_stats.ok = requests);
        if label = "fence" || label = "safe-mask" then begin
          R.check r ~row ~what:"mitigation never speeds the pool up" (p_slow >= 1.0);
          R.check r ~row ~what:"mitigation never speeds the ring up" (e_slow >= 1.0)
        end;
        R.linef r "%-10s %16.0f %16.0f\n" label p_rps e_rps;
        R.row r ~label:row
          [
            ("config", R.str label);
            ("spec_depth", R.int spec_depth);
            ("mitigation", R.str (Vg_compiler.Mitigation.to_string mitigation));
            ("requests", R.int requests);
            ("pool_ok", R.int p_stats.ok);
            ("pool_req_per_sec", R.num p_rps);
            ("pool_slowdown_vs_no_spec_x", R.num p_slow);
            ("pool_spec_cycles", R.int (Obs_stats.cycles st_p Obs.Tag.Spec));
            ("ring_ok", R.int e_stats.ok);
            ("ring_req_per_sec", R.num e_rps);
            ("ring_slowdown_vs_no_spec_x", R.num e_slow);
            ("ring_spec_cycles", R.int (Obs_stats.cycles st_e Obs.Tag.Spec));
          ];
        (label, p_rps))
      spectre_configs
  in
  R.check r ~row:"httpd:fence" ~what:"fence costs the pool more than safe-mask"
    (List.assoc "fence" pool_rps <= List.assoc "safe-mask" pool_rps);
  R.note r
    "(acceptance: the attack recovers the full secret only in the \
     unmitigated depth-12 configuration — never at depth 0 and never under \
     fence or safe-mask; the no-spec legs are cycle-identical to the other \
     experiments' vg runs; fence costs more than safe-mask on every \
     workload since it taxes every access by an lfence rather than two \
     mask instructions)"

(* ------------------------------------------------------------------ *)
(* Fleet: load-balanced multi-node serving                             *)

let make_fleet ~seed ~nodes =
  let f = Fleet.create ~nodes (config ~seed Sva.Virtual_ghost) in
  Fleet.listen_all f ~port:80;
  Fleet.setup_www f ~path:"/index.html" (Httpd.doc (8 * kb));
  f

let serve ?mixed f ~requests = Fleet.serve_wave ?mixed f ~port:80 ~path:"/index.html" ~requests

let fleet r =
  (* -- scaling: same request volume over 1..4 nodes ---------------- *)
  let requests = 24 in
  let base = baseline () in
  let speedups =
    List.map
      (fun nodes ->
        let wave = serve (make_fleet ~seed:"bench-fleet" ~nodes) ~requests in
        let rps = Fleet.wave_rps wave in
        let b = base rps in
        let speedup = if b > 0.0 then rps /. b else 0.0 in
        let label = Printf.sprintf "scale-%d" nodes in
        R.check r ~row:label ~what:"every request served" (wave.ok = requests && requests > 0);
        R.check r ~row:label ~what:"balancer dropped nothing" (wave.dropped = 0);
        R.check r ~row:label ~what:"one rps per node"
          (Array.length wave.per_node = nodes);
        R.linef r "  %d node%s: ok=%d/%d dropped=%d  %8.0f req/s  (%.2fx vs 1 node)\n" nodes
          (if nodes = 1 then " " else "s")
          wave.ok requests wave.dropped rps speedup;
        R.row r ~label
          [
            ("nodes", R.int nodes);
            ("requests", R.int requests);
            ("ok", R.int wave.ok);
            ("dropped", R.int wave.dropped);
            ("rps", R.num rps);
            ("speedup_vs_1", R.num speedup);
            ( "per_node_rps",
              Obs_json.List
                (Array.to_list (Array.map (fun nr -> R.num (Fleet.report_rps nr)) wave.per_node))
            );
          ];
        speedup)
      [ 1; 2; 3; 4 ]
  in
  (match speedups with
  | [ s1; s2; s3; s4 ] ->
      R.check r ~row:"scale-1" ~what:"1-node baseline is 1.0x" (s1 = 1.0);
      R.check r ~row:"scale-3" ~what:"3-node speedup >= 2.5x" (s3 >= 2.5);
      R.check r ~row:"scale-4" ~what:"speedup grows monotonically"
        (s4 >= s3 && s3 >= s2 && s2 > 1.0)
  | _ -> R.check r ~row:"-" ~what:"node ladder 1,2,3,4" false);
  (* -- mixed load: HTTP wave + ghosting Postmark + ssh key chain --- *)
  let f = make_fleet ~seed:"bench-fleet-mixed" ~nodes:2 in
  let wave = serve ~mixed:true f ~requests:12 in
  let mixed = List.init (Fleet.size f) (Fleet.last_mixed f) in
  let postmark_tx =
    List.fold_left (fun n m -> n + Option.fold ~none:0 ~some:(fun m -> m.Fleet.postmark_tx) m) 0 mixed
  in
  let ssh_ok = List.for_all (function Some m -> m.Fleet.ssh_ok | None -> false) mixed in
  R.check r ~row:"mixed-load" ~what:"HTTP wave fully served" (wave.ok = 12);
  R.check r ~row:"mixed-load" ~what:"postmark ran and the ssh chain held"
    (postmark_tx > 0 && ssh_ok);
  R.linef r "  mixed load on 2 nodes: http ok=%d/12, postmark tx=%d, ssh chain %s\n" wave.ok
    postmark_tx
    (if ssh_ok then "ok" else "FAILED");
  R.row r ~label:"mixed-load"
    [
      ("nodes", R.int 2);
      ("http_ok", R.int wave.ok);
      ("http_requests", R.int 12);
      ("postmark_tx", R.int postmark_tx);
      ("ssh_chain_ok", R.bool ssh_ok);
    ];
  (* -- rolling restart: re-image every node, drop nothing ---------- *)
  let f = make_fleet ~seed:"bench-fleet-roll" ~nodes:3 in
  let report = Fleet.rolling_restart f ~port:80 ~path:"/index.html" ~requests_per_wave:12 in
  let drains = Array.to_list report.drain_latency_cycles in
  R.check r ~row:"rolling-restart" ~what:"nothing dropped" (report.total_dropped = 0);
  R.check r ~row:"rolling-restart" ~what:"every request served"
    (report.total_ok = report.total_requests && report.total_requests > 0);
  R.check r ~row:"rolling-restart" ~what:"every node drained"
    (List.for_all (fun c -> c > 0) drains);
  R.linef r "  rolling restart over 3 nodes: %d/%d ok, %d dropped, max drain %d cycles\n"
    report.total_ok report.total_requests report.total_dropped
    (List.fold_left max 0 drains);
  R.row r ~label:"rolling-restart"
    [
      ("nodes", R.int 3);
      ("total_requests", R.int report.total_requests);
      ("total_ok", R.int report.total_ok);
      ("dropped", R.int report.total_dropped);
      ("drain_latency_cycles", R.ints drains);
    ];
  (* -- hostile backend: rootkit module on node 2 fails closed ------ *)
  let f = make_fleet ~seed:"bench-fleet-sec" ~nodes:3 in
  let healthy = serve f ~requests:12 in
  let outcome =
    Vg_attacks.Rootkit.infect (Node.kernel (Fleet.node f 2))
      ~attack:Vg_attacks.Rootkit.Signal_inject
  in
  let stolen = outcome.secret_leaked_to_console || outcome.secret_in_exfil_file in
  let quarantined = List.map fst (Fleet.check_health f) in
  let degraded = serve f ~requests:12 in
  let degraded_ratio =
    let h = Fleet.wave_rps healthy in
    if h > 0.0 then Fleet.wave_rps degraded /. h else 0.0
  in
  let events = List.length (Fleet.security_events f 2) in
  let row = "rootkit-backend" in
  R.check r ~row ~what:"secret not stolen" (not stolen);
  R.check r ~row ~what:"the VM refused the module (failed closed)" outcome.vm_refusal_logged;
  R.check r ~row ~what:"security events raised" (events >= 1);
  R.check r ~row ~what:"exactly node 2 quarantined" (quarantined = [ 2 ]);
  R.check r ~row ~what:"survivors serve the full wave" (degraded.ok = 12);
  R.check r ~row ~what:"degraded throughput is one node's share (0.5-0.85x)"
    (degraded_ratio >= 0.5 && degraded_ratio <= 0.85);
  R.linef r
    "  rootkit on node 2: secret %s, %d security events, quarantined=%s, remaining nodes \
     served %d/12 at %.2fx healthy throughput\n"
    (if stolen then "STOLEN" else "not obtained")
    events
    (String.concat "," (List.map string_of_int quarantined))
    degraded.ok degraded_ratio;
  R.row r ~label:row
    [
      ("nodes", R.int 3);
      ("attack", R.str "signal-inject");
      ("secret_stolen", R.bool stolen);
      ("failed_closed", R.bool outcome.vm_refusal_logged);
      ("security_events", R.int events);
      ("quarantined", R.ints quarantined);
      ("degraded_ok", R.int degraded.ok);
      ("degraded_requests", R.int 12);
      ("degraded_throughput_ratio", R.num degraded_ratio);
    ];
  (* -- cross-node key distribution --------------------------------- *)
  let kt =
    Fleet.distribute_key
      (Fleet.create ~nodes:2 (config ~seed:"bench-fleet-key" Sva.Virtual_ghost))
      ~src:0 ~dst:1
  in
  let row = "key-distribution" in
  R.check r ~row ~what:"key delivered" (kt.delivered && kt.key_len > 0);
  R.check r ~row ~what:"no plaintext on the wire" (not kt.plaintext_on_wire);
  R.check r ~row ~what:"sealed at rest and reloadable" (kt.sealed_at_rest && kt.reload_ok);
  R.linef r
    "  key distribution 0->1: delivered=%b (%d bytes), plaintext on wire=%b, sealed at \
     rest=%b, reload ok=%b\n"
    kt.delivered kt.key_len kt.plaintext_on_wire kt.sealed_at_rest kt.reload_ok;
  R.row r ~label:row
    [
      ("delivered", R.bool kt.delivered);
      ("key_len", R.int kt.key_len);
      ("plaintext_on_wire", R.bool kt.plaintext_on_wire);
      ("sealed_at_rest", R.bool kt.sealed_at_rest);
      ("reload_ok", R.bool kt.reload_ok);
    ]

(* ------------------------------------------------------------------ *)
(* Executor: host speed of the three execution engines                 *)

(* Host ns/instr and simulated cycles per executor-bound workload and
   per execution engine (reference interpreter, slot executor,
   closure-compiled), so the host-performance trajectory of the
   simulator is tracked across PRs.  Simulated cycles must be
   bit-stable run to run and identical per tag between the slot
   executor and the compiled engine (checked on every run); host
   timings are whatever the hardware gives.

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
        (fun cell _ ->
          Vg_compiler.Exec_env.(
            set cell value (bytes_get64u mem (Int64.to_int (Int64.logand (get cell address) 0xfff8L)))));
      store =
        (fun cell _ ->
          Vg_compiler.Exec_env.(
            bytes_set64u mem (Int64.to_int (Int64.logand (get cell address) 0xfff8L)) (get cell value)));
      memcpy = (fun ~dst:_ ~src:_ ~len:_ -> ());
      charge =
        (* hot path for every engine under measurement: tally per-tag
           cycles with no branches beyond the tag decode itself *)
        (fun tag n ->
          let i = Vg_obs.Obs.Tag.index tag in
          Array.unsafe_set by_tag i (Array.unsafe_get by_tag i + n);
          match tag with Vg_obs.Obs.Tag.Exec -> instrs := !instrs + n | _ -> ());
    }
  in
  (env, by_tag, instrs)

let interp_env () =
  let mem = Bytes.make 65536 '\000' in
  let cycles = ref 0 and instrs = ref 0 in
  let env : Vg_oracle.Interp.env =
    {
      load = (fun addr _ -> bytes_get64u mem (Int64.to_int (Int64.logand addr 0xfff8L)));
      store =
        (fun addr _ v -> bytes_set64u mem (Int64.to_int (Int64.logand addr 0xfff8L)) v);
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
  (env, cycles, instrs)

let interp_counts program entry arg =
  let env, cycles, instrs = interp_env () in
  ignore (Vg_oracle.Interp.run env program entry [| arg |]);
  (!cycles, !instrs)

let engine_counts run =
  let env, by_tag, instrs = engine_env () in
  ignore (run env);
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

(* Host words one warm run allocates ({!Vg_oracle.Alloc_meter}),
   averaged over a few runs after a warm-up.  The caller builds the
   run's env outside, so the harness's own buffers are not counted. *)
let words_per_run f =
  f ();
  let runs = 3 in
  let (), c =
    Vg_oracle.Alloc_meter.count (fun () ->
        for _ = 1 to runs do
          f ()
        done)
  in
  c.Vg_oracle.Alloc_meter.words /. float_of_int runs

let total = Array.fold_left ( + ) 0

(* Warm-translation-cache measurement: host cost of obtaining the
   compiled artifact the first time (verify + closure-compile) versus a
   warm hit (HMAC check + memo lookup).  verifier_runs pins that the
   warm path really is memoized. *)
let trans_cache_measure image =
  let tc = Vg_compiler.Trans_cache.create ~key:(Bytes.make 16 'm') in
  Vg_compiler.Trans_cache.add tc ~name:"bench" ~instrumented:true image;
  let find () =
    match Vg_compiler.Trans_cache.find_compiled tc ~name:"bench" with
    | Ok _ -> ()
    | Error e -> failwith (Vg_compiler.Trans_cache.describe_find_error e)
  in
  let t0 = Unix.gettimeofday () in
  find ();
  let cold_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  let warm_runs = 200 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to warm_runs do
    find ()
  done;
  let warm_ns = (Unix.gettimeofday () -. t0) /. float_of_int warm_runs *. 1e9 in
  (cold_ns, warm_ns, Vg_compiler.Trans_cache.verifier_runs tc)

let long_workload_min_instrs = 100_000

(* Shared CI runners are noisy and heterogeneous: the gate sits well
   below the >= 10x a quiet host shows on the ghosted long fixtures. *)
let min_ghosted_long_speedup = 5.0

let executor r =
  let fixtures =
    let open Vg_oracle.Fixtures in
    let both name program entry arg ~long =
      [ (name ^ "-plain", program, false, entry, arg, long);
        (name ^ "-full", program, true, entry, arg, long) ]
    in
    both "collatz" (collatz_program ()) "collatz" 97L ~long:false
    @ both "recsum" (rec_sum_program ()) "sum" 40L ~long:false
    @ both "iterfib-long" (iterfib_program ()) "main" 20_000L ~long:true
    @ both "memcpy-loop" (memcpy_loop_program ()) "main" 20_000L ~long:true
  in
  R.check r ~row:"-" ~what:"8 fixtures" (List.length fixtures = 8);
  R.linef r "%-20s %5s %10s %8s %12s %12s %12s %9s %14s\n" "fixture" "long" "cycles" "instrs"
    "interp-ns/i" "slots-ns/i" "compiled-ns/i" "speedup" "compiled-w/run";
  let results =
    List.map
      (fun (name, program, full, entry, arg, long) ->
        let runnable =
          if full then Vg_compiler.Sandbox_pass.instrument_program program else program
        in
        let image = compile_linked ~cfi:full runnable in
        let artifact = Vg_compiler.Exec_compile.compile image in
        let interp () = interp_counts runnable entry arg in
        let slots () = engine_counts (fun env -> Vg_oracle.Executor.run env image entry [| arg |]) in
        let compiled () =
          engine_counts (fun env -> Vg_compiler.Exec_compile.run env artifact entry [| arg |])
        in
        (* one counted run per engine *)
        let i_cycles, i_instrs = interp () in
        let s_tags, s_instrs = slots () in
        let c_tags, c_instrs = compiled () in
        let identical = s_tags = c_tags && s_instrs = c_instrs in
        R.check r ~row:name ~what:"slots and compiled charge identical cycles per tag" identical;
        (* The interpreter charges what the uninstrumented lowered code
           would: totals must agree with the executors wherever no CFI
           surcharges exist (the -plain configurations). *)
        if not full then
          R.check r ~row:name ~what:"interp and executors charge identical cycles"
            (i_cycles = total s_tags);
        if long then
          R.check r ~row:name ~what:"long workload runs >= 1e5 instructions"
            (s_instrs >= long_workload_min_instrs);
        let time run = time_ns_per_run (fun () -> ignore (run ())) in
        let i_ns = time interp in
        let s_ns = time slots in
        let c_ns = time compiled in
        let i_words =
          let env, _, _ = interp_env () in
          words_per_run (fun () -> ignore (Vg_oracle.Interp.run env runnable entry [| arg |]))
        in
        let engine_words run =
          let env, _, _ = engine_env () in
          words_per_run (fun () -> ignore (run env))
        in
        let s_words =
          engine_words (fun env -> Vg_oracle.Executor.run env image entry [| arg |])
        in
        let c_words =
          engine_words (fun env -> Vg_compiler.Exec_compile.run env artifact entry [| arg |])
        in
        R.check r ~row:name ~what:"warm compiled run allocates no more than the slot executor"
          (c_words <= s_words);
        let engine cycles instrs ns words =
          R.obj
            [
              ("simulated_cycles", R.int cycles);
              ("instructions", R.int instrs);
              ("host_ns_per_run", R.num ns);
              ("host_ns_per_instr", R.num (ns /. float_of_int instrs));
              ("host_words_per_run", R.num words);
            ]
        in
        let vs_interp = i_ns /. c_ns in
        R.linef r "%-20s %5b %10d %8d %12.2f %12.2f %12.2f %8.1fx %14.0f\n" name long
          (total s_tags) s_instrs
          (i_ns /. float_of_int i_instrs)
          (s_ns /. float_of_int s_instrs)
          (c_ns /. float_of_int c_instrs)
          vs_interp c_words;
        R.row r ~label:name
          [
            ("long", R.bool long);
            ("ghosted", R.bool full);
            ("simulated_cycles", R.int (total s_tags));
            ("instructions", R.int s_instrs);
            ("cycles_identical_slots_compiled", R.bool identical);
            ( "engines",
              R.obj
                [
                  ("interp", engine i_cycles i_instrs i_ns i_words);
                  ("slots", engine (total s_tags) s_instrs s_ns s_words);
                  ("compiled", engine (total c_tags) c_instrs c_ns c_words);
                ] );
            ("speedup_compiled_vs_interp", R.num vs_interp);
            ("speedup_compiled_vs_slots", R.num (s_ns /. c_ns));
          ];
        (long, full, identical, vs_interp))
      fixtures
  in
  (* The gated series is the ghost-instrumented (cfi+sandbox) long
     workloads: that is the deployment configuration this engine exists
     for, and the one where translation has the most work to elide.  The
     plain rows are reported for transparency but carry a structurally
     compressed ratio (shared environment cost dominates sooner when the
     per-instruction work is tiny). *)
  let min_speedup ~ghosted =
    List.fold_left
      (fun m (long, full, _, s) -> if long && full = ghosted then min m s else m)
      infinity results
  in
  let ghosted = min_speedup ~ghosted:true and plain = min_speedup ~ghosted:false in
  let identical = List.for_all (fun (_, _, same, _) -> same) results in
  R.check r ~row:"summary" ~what:"every fixture cycle-identical" identical;
  R.check r ~row:"summary"
    ~what:(Printf.sprintf "ghosted long-workload speedup >= %.1fx" min_ghosted_long_speedup)
    (ghosted >= min_ghosted_long_speedup);
  R.row r ~label:"summary"
    [
      ("long_workload_min_instrs", R.int long_workload_min_instrs);
      ("min_speedup_compiled_vs_interp_long_ghosted", R.num ghosted);
      ("min_speedup_compiled_vs_interp_long_plain", R.num plain);
      ("cycles_identical", R.bool identical);
    ];
  let cold_ns, warm_ns, verifier_runs =
    trans_cache_measure
      (compile_linked ~cfi:true
         (Vg_compiler.Sandbox_pass.instrument_program (Vg_oracle.Fixtures.iterfib_program ())))
  in
  R.check r ~row:"trans-cache" ~what:"warm loads reuse one verification" (verifier_runs = 1);
  R.row r ~label:"trans-cache"
    [
      ("cold_find_compiled_ns", R.num cold_ns);
      ("warm_find_compiled_ns", R.num warm_ns);
      ("verifier_runs_after_warm_loads", R.int verifier_runs);
    ];
  R.linef r "trans-cache: cold find_compiled %.0f ns, warm %.0f ns, verifier ran %dx\n"
    cold_ns warm_ns verifier_runs;
  R.linef r "min long-workload speedup, ghosted (compiled vs interp): %.1fx\n" ghosted;
  R.linef r "min long-workload speedup, plain   (compiled vs interp): %.1fx\n" plain

(* ------------------------------------------------------------------ *)
(* Bechamel host-time microbenchmarks (simulator hot paths)            *)

let bechamel () =
  let open Bechamel in
  let open Toolkit in
  print_endline "Bechamel: host-time microbenchmarks of the simulator itself";
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
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
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
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window ~predictor:Measure.run results
  in
  Notty_unix.eol img |> Notty_unix.output_image

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

type experiment = { report : string; title : string; run : R.t -> unit }

let experiments =
  let e report title run = { report; title; run } in
  [
    ("table2", e "table2" "Table 2: LMBench latencies (microseconds; paper in parens)" table2);
    ( "table34",
      e "table34" "Tables 3 & 4: LMBench file create/delete per second (paper in parens)"
        table34 );
    ("figure2", e "figure2" "Figure 2: thttpd average bandwidth (KB/s; higher is better)" figure2);
    ("figure3", e "figure3" "Figure 3: sshd (non-ghosting) download bandwidth (KB/s)" figure3);
    ( "figure4",
      e "figure4" "Figure 4: ssh client transfer rate, original vs ghosting (VG kernel)"
        figure4 );
    ( "table5",
      e "table5" "Table 5: Postmark (simulated seconds; scaled to 20k transactions)" table5 );
    ( "extra-micro",
      e "extra_micro" "Additional microbenchmarks (beyond the paper's Table 2)" extra_micro );
    ( "smp",
      e "smp"
        "SMP: httpd worker-pool throughput scaling (requests/s; one worker per core, 8KB \
         document)"
        smp );
    ( "ring",
      e "syscall_ring"
        "Syscall ring: trap-protocol cycles per request vs batch size (event-loop httpd, \
         8KB document, 1 core)"
        ring );
    ( "ghost_swap",
      e "ghost_swap"
        (Printf.sprintf
           "Ghost swap: sealed swapping under memory overcommit (%d-frame kernel, working \
            set = ratio x resident capacity)"
           swap_frame_limit)
        ghost_swap );
    ( "security",
      e "security" "Section 7: security experiments (rootkit + other vectors)" security );
    ( "spectre",
      e "spectre"
        "Spectre matrix: transient leak of ghost memory vs mitigation, and what each \
         mitigation costs (vg build)"
        spectre );
    ("ablations", e "ablations" "Ablations (DESIGN.md section 5)" ablations);
    ( "fleet",
      e "fleet"
        "Fleet: N virtual-ghost nodes wired NIC-to-NIC, round-robin balanced event-loop \
         httpd backends (scaling, mixed load, rolling restart, hostile backend, key \
         distribution)"
        fleet );
    ( "executor",
      e "executor"
        "Executor: host ns per instruction of the interpreter, slot executor and \
         closure-compiled engine (simulated cycles identical)"
        executor );
  ]

(* Run one experiment into its report; [true] when every check held. *)
let run_experiment e =
  let r = R.create ~name:e.report ~title:e.title in
  e.run r;
  R.finish r

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--list" ] ->
      List.iter (fun (name, _) -> print_endline name) experiments;
      print_endline "bechamel"
  | [ "--bechamel" ] -> bechamel ()
  | names ->
      let selected =
        if names = [] then begin
          print_endline "Virtual Ghost reproduction — full benchmark run";
          List.map snd experiments
        end
        else
          List.map
            (fun name ->
              match List.assoc_opt name experiments with
              | Some e -> e
              | None ->
                  Printf.eprintf "unknown experiment %s (try --list)\n" name;
                  exit 2)
            names
      in
      let ok = List.fold_left (fun ok e -> run_experiment e && ok) true selected in
      if not ok then exit 1
