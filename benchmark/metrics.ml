(* The metric catalogue: every name the benchmark reports, its unit and
   which direction is better.  BENCHMARK.json carries the same names and
   units (the smoke test holds the two in step) plus the regression
   bound of each end-to-end metric. *)

type better = Lower | Higher

type spec = {
  name : string;
  unit : string;
  better : better;
  exact : bool;
      (** repeats bit-for-bit for a given seed: simulated cycles and
          allocation counts, not host timings *)
}

let spec ?(exact = false) name unit better = { name; unit; better; exact }

let better_to_string = function Lower -> "lower" | Higher -> "higher"

(* Measured with tracing off.  "sim_us" is simulated microseconds on
   the modelled 3.4 GHz machine, kept apart from host units so no one
   mistakes the modelled clock for the simulator's own. *)
let end_to_end =
  [
    spec "setup_s" "s" Lower;
    spec "ops_per_host_s" "1/s" Higher;
    spec "alloc_words_per_op" "words" Lower ~exact:true;
    spec "live_heap_mb" "MB" Lower;
    spec "sim_us_per_op" "sim_us" Lower ~exact:true;
    spec "sim_us_per_op_native" "sim_us" Lower ~exact:true;
    spec "vg_overhead_x" "x" Lower ~exact:true;
  ]

(* The LMBench rows of the syscalls workload, in Table 2 order. *)
let rows =
  [
    "null";
    "open_close";
    "mmap";
    "page_fault";
    "signal_install";
    "signal_delivery";
    "fork_exit";
    "fork_exec";
    "select_10";
    "module_read";
  ]

(* Simulated cycles grouped by the layer that charges them.  Every
   [Obs.Tag] belongs to exactly one group ("other" takes the rest), so
   the groups sum to the total. *)
let tag_groups =
  let open Vg_obs.Obs.Tag in
  [
    ("sva.trap", [ Trap; Trap_save; Trap_return; Page_fault ]);
    ("sva.mmu_check", [ Mmu_check ]);
    ("sva.crypto", [ Crypto ]);
    ("compiler.mask", [ Mask ]);
    ("compiler.cfi", [ Cfi ]);
    ("compiler.exec", [ Exec ]);
    ("kernel.work", [ Kernel_work ]);
    ("kernel.ring", [ Ring ]);
    ("kernel.sched", [ Sched; Context_switch; Ipi; Timer; Lock ]);
    ("kernel.swap", [ Swap ]);
    ("machine.disk", [ Disk ]);
    ("machine.net", [ Net ]);
    ("machine.mem", [ Mem; Tlb; Copy; Zero ]);
    ("other", [ Io; Other; Verify; Sfip; Spec ]);
  ]

(* Measured in the traced run, on every workload: its result line.  A
   workload that does not exercise a layer reports 0 for it. *)
let per_layer =
  List.map (fun (g, _) -> spec (g ^ "_cy_per_op") "cycles" Lower) tag_groups
  @ [
      spec "kernel.swap_ins_per_op" "count" Lower;
      spec "kernel.swap_outs_per_op" "count" Lower;
      spec "kernel.swap_refusals" "count" Lower;
      spec "kernel.reclaims" "count" Lower;
      spec "kernel.swapd_wakeups" "count" Lower;
      spec "apps.ring_enters_per_req" "count" Lower;
      spec "apps.sqes_per_enter" "count" Higher;
      spec "apps.polls_per_req" "count" Lower;
      spec "node.boot_s" "s" Lower;
      spec "crypto.seal_page_us" "us" Lower;
      spec "crypto.open_page_us" "us" Lower;
      spec "crypto.seal_alloc_words" "words" Lower;
      spec "crypto.host_share_est" "frac" Lower;
      spec "gc.minor_per_kop" "count" Lower;
      spec "gc.major_collections" "count" Lower;
      spec "obs.trace_overhead_pct" "%" Lower;
    ]

(* Per-layer metrics of layers only one workload exercises: printed by
   that workload's traced run, not in its result line. *)
let workload_layers =
  [
    ( "syscalls",
      [ "apps.install_images_s"; "compiler.module_load_ms"; "userland.populate_s" ]
      @ List.concat_map
          (fun row ->
            List.map (Printf.sprintf "syscalls.%s.%s" row) [ "sim_us"; "sim_us_native"; "host_us_per_op" ])
          rows );
    ("postmark", [ "apps.postmark_host_s" ]);
    ( "fleet_http",
      [
        "userland.populate_s";
        "fleet.wave_host_ms_p50";
        "fleet.wave_host_ms_p99";
        "fleet.wave_host_n";
        "fleet.assign_spread";
        "fleet.makespan_over_mean";
      ] );
    ( "ghost_pressure",
      [
        "userland.populate_s";
        "ghost.touch_hit_frac";
        "userland.touch_hit_host_us_p50";
        "userland.touch_hit_host_us_p99";
        "userland.touch_miss_host_us_p50";
        "userland.touch_miss_host_us_p99";
        "userland.touch_miss_sim_us_p50";
        "userland.touch_miss_sim_us_p99";
      ] );
  ]

let find name = List.find_opt (fun s -> s.name = name) end_to_end
