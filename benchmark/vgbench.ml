(* vgbench: the repository benchmark.

     vgbench [--seed N] [--seconds S] [--trace]       every workload, each
                                                      in its own process
     vgbench --workload W --seed N --seconds S --trace 0|1
     vgbench compare BASE NEW                         see Compare

   Each workload runs a native leg and a Virtual Ghost leg on freshly
   booted nodes and is measured on two clocks: simulated cycles (the
   paper's result) and the host time and allocation the simulator
   spends producing it.  Every metric prints as "workload metric value
   unit"; the last line is one JSON object with the run's verdict and
   the end-to-end metrics (--trace 0) or the per-layer ones
   (--trace 1). *)

open Vg_obs
open Vg_kernel

let workloads : (module Harness.WORKLOAD) list =
  [ (module Wl_syscalls); (module Wl_postmark); (module Wl_fleet_http); (module Wl_ghost_pressure) ]

let workload_name (module W : Harness.WORKLOAD) = W.name

(* Set-up is repeated and its median reported, so work moved into
   set-up shows; only the last set-up is measured. *)
let setup_reps (h : Harness.t) = if h.tiny then 1 else 3

(* The counters are only brought up to date by a collection. *)
let gc_stat () =
  Gc.minor ();
  Gc.quick_stat ()

let alloc_words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words

let per_op (l : Harness.leg) = l.sim_us /. float_of_int (max 1 l.ops)

(* ------------------------------------------------------------------ *)
(* Untraced run: the end-to-end metrics                                *)

(* Host seconds of the measured phase: the sum of its batches. *)
let batch_seconds (m : Harness.measured) = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 m.batches

let end_to_end (h : Harness.t) (m : Harness.measured) ~setup_s ~(gc0 : Gc.stat)
    ~(gc1 : Gc.stat) ~live_words =
  let r = h.report in
  let ops = m.native.ops + m.vg.ops in
  r.attempted <- ops;
  r.failed <- m.failed;
  let rates = List.map (fun (n, s) -> float_of_int n /. s) m.batches in
  Report.set r "setup_s" "s" (Stats.median setup_s);
  (* The host is shared, and other tenants slow a run by up to a third
     for seconds or minutes at a time.  Interference only ever slows a
     batch, so the fast end of the batch rates estimates the
     simulator's own speed far more steadily than the median does. *)
  Report.set r "ops_per_host_s" "1/s" (Stats.percentile rates 0.9);
  Report.set r "alloc_words_per_op" "words"
    ((alloc_words gc1 -. alloc_words gc0) /. float_of_int (max 1 ops));
  let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6 in
  Report.set r "live_heap_mb" "MB" (mb live_words);
  Report.set r "sim_us_per_op" "sim_us" (per_op m.vg);
  Report.set r "sim_us_per_op_native" "sim_us" (per_op m.native);
  let rows = if m.rows = [] then [ ("all", m.native, m.vg) ] else m.rows in
  Report.set r "vg_overhead_x" "x"
    (Stats.geomean (List.map (fun (_, n, v) -> per_op v /. per_op n) rows));
  Report.set r "error_rate" "frac" (float_of_int m.failed /. float_of_int (max 1 ops));
  Report.set r "ops" "count" (float_of_int ops);
  Report.set r "batches" "count" (float_of_int (List.length m.batches));
  Report.set r "ops_per_host_s_p50" "1/s" (Stats.median rates);
  Report.set r "measured_host_s" "s" (batch_seconds m);
  (* The heap's high-water mark moves by whole heap increments with the
     collector's timing, so it is shown but not bounded. *)
  Report.set r "peak_heap_mb" "MB" (mb gc1.top_heap_words)

let run_untraced (module W : Harness.WORKLOAD) (h : Harness.t) =
  let env = ref None and setup_s = ref [] in
  for _ = 1 to setup_reps h do
    env := None;
    let e, s = Harness.timed (fun () -> W.setup h) in
    setup_s := s :: !setup_s;
    env := Some e
  done;
  let env = Option.get !env in
  Gc.full_major ();
  let gc0 = gc_stat () in
  let m = W.measure h env in
  let gc1 = gc_stat () in
  (* What stays live with the workload's nodes still up. *)
  Gc.full_major ();
  let live_words = (Gc.quick_stat ()).live_words in
  W.check h env;
  end_to_end h m ~setup_s:!setup_s ~gc0 ~gc1 ~live_words;
  Metrics.end_to_end

(* ------------------------------------------------------------------ *)
(* Traced run: the per-layer metrics                                   *)

(* Counts syscalls by name on a node's hub: ring entries arrive as
   "ring:<call>". *)
let syscall_counter () =
  let counts = Hashtbl.create 16 in
  let bump key = Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)) in
  let sink =
    {
      Obs.name = "vgbench-syscalls";
      on_charge = (fun ~cycles:_ _ _ -> ());
      on_event =
        (fun ~cycles:_ ev ->
          match ev with
          | Obs.Event.Syscall { name; _ } ->
              bump (if String.starts_with ~prefix:"ring:" name then "ring:" else name)
          | _ -> ());
    }
  in
  (sink, fun key -> Option.value ~default:0 (Hashtbl.find_opt counts key))

(* Direct Ctr.seal / open_ of a swap blob's payload (header + page):
   median host microseconds per call and words allocated per seal. *)
let crypto_micro (h : Harness.t) =
  let n = if h.tiny then 2 else 200 in
  let rng = Harness.rng h "crypto" in
  let key = Harness.random_bytes rng 16 and nonce = Harness.random_bytes rng 8 in
  let page = Harness.random_bytes rng (24 + 4096) in
  let g0 = gc_stat () in
  let seals =
    List.init n (fun _ -> Harness.timed (fun () -> Vg_crypto.Ctr.seal ~key ~nonce page))
  in
  let g1 = gc_stat () in
  let opens =
    List.map (fun (sealed, _) -> Harness.timed (fun () -> Vg_crypto.Ctr.open_ ~key ~nonce sealed)) seals
  in
  Report.check h.report
    (List.for_all (fun (p, _) -> p = Some page) opens)
    "crypto: open_ did not return the sealed page";
  let us xs = Stats.median (List.map (fun (_, s) -> s *. 1e6) xs) in
  (us seals, us opens, (alloc_words g1 -. alloc_words g0) /. float_of_int n)

let run_traced (module W : Harness.WORKLOAD) (h : Harness.t) =
  let r = h.report in
  (* Untraced reference pass: host time and GC counts without tracing. *)
  let env = W.setup h in
  Gc.full_major ();
  let gc0 = gc_stat () in
  let m0 = W.measure h env in
  let gc1 = gc_stat () in
  W.check h env;
  (* Traced pass: same seed, so the same work. *)
  Span.start ();
  let env = Span.with_ "setup" (fun () -> W.setup h) in
  Gc.full_major ();
  let kernels = W.vg_kernels env in
  let hubs =
    List.fold_left
      (fun acc k ->
        let hub = Vg_machine.Machine.obs k.Kernel.machine in
        if List.memq hub acc then acc else hub :: acc)
      [ h.vg_hub ] kernels
  in
  let stats = List.map (fun _ -> Obs_stats.create ()) hubs in
  let counter, count = syscall_counter () in
  let sinks =
    List.concat (List.map2 (fun hub st -> [ (hub, Obs_stats.sink st); (hub, counter) ]) hubs stats)
  in
  List.iter (fun (hub, sink) -> Obs.attach hub sink) sinks;
  let swap () = List.map Ghost_swap.stats kernels in
  let swap0 = swap () in
  let m = Span.with_ "measure" (fun () -> W.measure h env) in
  let swap1 = swap () in
  List.iter (fun (hub, sink) -> Obs.detach hub sink) sinks;
  W.check h env;
  let ops = m.native.ops + m.vg.ops in
  r.attempted <- ops;
  r.failed <- m.failed;
  let vg_ops = float_of_int (max 1 m.vg.ops) in
  (* Simulated cycles per Virtual Ghost op, by layer. *)
  let cycles tags =
    List.fold_left (fun acc st -> List.fold_left (fun a t -> a + Obs_stats.cycles st t) acc tags) 0 stats
  in
  let total = List.fold_left (fun acc st -> acc + Obs_stats.total_cycles st) 0 stats in
  let grouped =
    List.fold_left
      (fun acc (group, tags) ->
        let c = cycles tags in
        Report.set r (group ^ "_cy_per_op") "cycles" (float_of_int c /. vg_ops);
        acc + c)
      0 Metrics.tag_groups
  in
  Report.check r (grouped = total) "tag groups sum to %d cycles, total is %d" grouped total;
  Report.set r "sim.total_cy_per_op" "cycles" (float_of_int total /. vg_ops);
  (* Counts. *)
  let delta f = List.fold_left2 (fun acc a b -> acc + f b - f a) 0 swap0 swap1 in
  let swap_outs = delta (fun s -> s.Ghost_swap.swap_outs) in
  let swap_ins = delta (fun s -> s.Ghost_swap.swap_ins) in
  Report.set r "kernel.swap_ins_per_op" "count" (float_of_int swap_ins /. vg_ops);
  Report.set r "kernel.swap_outs_per_op" "count" (float_of_int swap_outs /. vg_ops);
  Report.set r "kernel.swap_refusals" "count" (float_of_int (delta (fun s -> s.Ghost_swap.refusals)));
  Report.set r "kernel.reclaims" "count" (float_of_int (delta (fun s -> s.Ghost_swap.reclaims)));
  Report.set r "kernel.swapd_wakeups" "count"
    (float_of_int (delta (fun s -> s.Ghost_swap.daemon_wakeups)));
  let enters = count "ring_enter" in
  Report.set r "apps.ring_enters_per_req" "count" (float_of_int enters /. vg_ops);
  Report.set r "apps.sqes_per_enter" "count" (float_of_int (count "ring:") /. float_of_int (max 1 enters));
  Report.set r "apps.polls_per_req" "count" (float_of_int (count "poll") /. vg_ops);
  (* Host time of set-up, from its spans; a layer the workload's set-up
     does not call reports nothing. *)
  List.iter
    (fun (span, metric, unit, scale) ->
      if Span.self_times span <> [] then Report.set r metric unit (Span.self_total span *. scale))
    [
      ("node.boot", "node.boot_s", "s", 1.0);
      ("apps.install_images", "apps.install_images_s", "s", 1.0);
      ("compiler.module_load", "compiler.module_load_ms", "ms", 1e3);
      ("userland.populate", "userland.populate_s", "s", 1.0);
    ];
  W.layer_metrics h env m;
  (* Crypto, measured directly; its share of the measured phase is an
     estimate computed from the swap counts, not traced. *)
  let seal_us, open_us, seal_words = Span.with_ "crypto" (fun () -> crypto_micro h) in
  Report.set r "crypto.seal_page_us" "us" seal_us;
  Report.set r "crypto.open_page_us" "us" open_us;
  Report.set r "crypto.seal_alloc_words" "words" seal_words;
  let traced = batch_seconds m and untraced = batch_seconds m0 in
  Report.set r "crypto.host_share_est" "frac"
    (((float_of_int swap_outs *. seal_us) +. (float_of_int swap_ins *. open_us)) /. 1e6 /. traced);
  let ops0 = float_of_int (max 1 (m0.native.ops + m0.vg.ops)) in
  Report.set r "gc.minor_per_kop" "count"
    (float_of_int (gc1.minor_collections - gc0.minor_collections) *. 1000.0 /. ops0);
  Report.set r "gc.major_collections" "count"
    (float_of_int (gc1.major_collections - gc0.major_collections));
  Report.set r "obs.trace_overhead_pct" "%" (100.0 *. (traced -. untraced) /. untraced);
  let path = Printf.sprintf ".vgbench/%s-seed%d.trace.json" h.workload h.seed in
  Span.write_chrome_trace path;
  Printf.printf "# %s: Chrome trace of the traced pass in %s\n" h.workload path;
  Metrics.per_layer

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let usage () =
  prerr_endline
    "usage: vgbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--tiny]\n\
    \       vgbench compare BASE_DIR NEW_DIR";
  exit 2

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable tiny : bool;
}

let parse args =
  let o = { workload = None; seed = 1; seconds = 10.0; trace = false; tiny = false } in
  let num conv s = match conv s with Some v -> v | None -> usage () in
  let rec go = function
    | "--workload" :: w :: rest ->
        o.workload <- Some w;
        go rest
    | "--seed" :: n :: rest ->
        o.seed <- num int_of_string_opt n;
        go rest
    | "--seconds" :: s :: rest ->
        o.seconds <- num float_of_string_opt s;
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        o.trace <- v = "1";
        go rest
    | "--trace" :: rest ->
        o.trace <- true;
        go rest
    | "--tiny" :: rest ->
        o.tiny <- true;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go args;
  if o.seconds <= 0.0 then usage ();
  o

let run_one o (module W : Harness.WORKLOAD) =
  let h =
    { Harness.workload = W.name; seed = o.seed; seconds = o.seconds; tiny = o.tiny;
      report = Report.create W.name; vg_hub = Obs.create () }
  in
  (* Read back by Compare. *)
  Printf.printf "# vgbench workload=%s seed=%d seconds=%s trace=%d started=%.6f\n%!" W.name
    o.seed (Json.number o.seconds) (Bool.to_int o.trace) (Harness.now ());
  let specs =
    if o.trace then run_traced (module W) h else run_untraced (module W) h
  in
  let result = Report.result_line h.report specs in
  Report.print_lines h.report;
  print_endline result;
  exit (if Report.correct h.report then 0 else 1)

(* Every workload in its own process, one at a time; with --trace each
   also gets a traced run after its untraced one. *)
let run_all o =
  let failures = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let args =
            [ "--workload"; workload_name w; "--seed"; string_of_int o.seed;
              "--seconds"; Json.number o.seconds; "--trace"; trace ]
            @ if o.tiny then [ "--tiny" ] else []
          in
          flush stdout;
          let pid =
            Unix.create_process Sys.executable_name
              (Array.of_list (Sys.executable_name :: args))
              Unix.stdin Unix.stdout Unix.stderr
          in
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _ -> incr failures)
        (if o.trace then [ "0"; "1" ] else [ "0" ]))
    workloads;
  exit (if !failures = 0 then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; base; next ] -> exit (Compare.run ~base ~next)
  | "compare" :: _ -> usage ()
  | args -> (
      let o = parse args in
      match o.workload with
      | None -> run_all o
      | Some name -> (
          match List.find_opt (fun w -> workload_name w = name) workloads with
          | Some w -> run_one o w
          | None ->
              Printf.eprintf "unknown workload %s (%s)\n" name
                (String.concat ", " (List.map workload_name workloads));
              exit 2))
