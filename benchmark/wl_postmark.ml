(* postmark: Postmark as in the paper (100 base files of 500 B - 9.77 KB,
   read and create biases 5/5) on one CPU, without ghosting.  This is
   the file-system path that writes, creates and deletes; sandbox
   masking is most of its Virtual Ghost overhead.

   The transactions run as many short Postmark runs ("chunks"), each
   with its own seed on a freshly booted pair of nodes.  On one long-
   lived file system the cost per transaction shifts by up to a seventh
   as the file system ages, at points that depend on the inputs; fresh
   nodes keep the chunks independent, so the mean over a run is
   steady. *)

open Vg_machine
open Vg_kernel
open Vg_apps
open Vg_fleet

(* The set-up's nodes.  They stay up through the measured phase, so the
   heap measured after it holds one warmed-up pair of nodes plus
   whatever the chunks left behind. *)
type env = { nodes : (string * Node.t) list }

let name = "postmark"
let chunk_transactions = 1000
let nominal_chunks = 150

let config h ~seed =
  {
    Postmark.paper_config with
    base_files = (if h.Harness.tiny then 10 else 100);
    transactions = (if h.Harness.tiny then 50 else chunk_transactions);
    seed;
  }

let boot h = List.map (fun (leg, mode) -> (leg, Node.boot (Harness.config h ~leg mode))) Harness.legs

(* One chunk on one node: its stats and the simulated microseconds it
   took (process start to exit). *)
let run_chunk node cfg =
  let machine = Node.machine node in
  let start = Machine.cycles machine in
  let result = Node.launch node ~ghosting:false (fun ctx -> Postmark.run ctx cfg) in
  (result, Cost.to_microseconds (Machine.cycles machine - start))

(* Boot, then one untimed chunk per leg, the same for every seed, to
   warm the host's caches and heap. *)
let setup (h : Harness.t) =
  let warm = config h ~seed:Postmark.paper_config.seed in
  let nodes = Span.with_ "node.boot" (fun () -> boot h) in
  Span.with_ "warmup" (fun () -> List.iter (fun (_, node) -> ignore (run_chunk node warm)) nodes);
  { nodes }

(* Chunks boot their own nodes, whose Virtual Ghost hub is [h.vg_hub]. *)
let vg_kernels _ = []

(* What any correct Postmark run satisfies: every file it made is gone
   at the end, and no more data transactions ran than were asked for. *)
let consistent (cfg : Postmark.config) (s : Postmark.stats) =
  s.created = s.deleted
  && s.created >= cfg.base_files
  && s.reads + s.appends + (s.created - cfg.base_files) <= cfg.transactions
  && s.bytes_written >= cfg.base_files * cfg.min_size

let measure (h : Harness.t) _ =
  let m = Harness.measured () in
  let rng = Harness.rng h "postmark-chunks" in
  for chunk = 0 to Harness.size h ~nominal:nominal_chunks ~tiny:1 - 1 do
    let cfg = config h ~seed:(Random.State.bits rng) in
    let nodes = boot h in
    let results, t =
      Harness.timed (fun () ->
          List.map
            (fun (leg, node) ->
              let result, us =
                Span.with_ ("apps.postmark." ^ leg) (fun () -> run_chunk node cfg)
              in
              let l = Harness.leg_of m leg in
              l.ops <- l.ops + cfg.transactions;
              l.sim_us <- l.sim_us +. us;
              (match result with
              | Ok stats ->
                  Report.check h.report (consistent cfg stats)
                    "chunk %d %s: inconsistent stats" chunk leg
              | Error e ->
                  m.failed <- m.failed + cfg.transactions;
                  Report.check h.report false "chunk %d %s: %s" chunk leg (Errno.to_string e));
              result)
            (Harness.leg_order chunk nodes))
    in
    (* Both builds run the same program on the same inputs. *)
    (match results with
    | [ a; b ] -> Report.check h.report (a = b) "chunk %d: native and vg stats differ" chunk
    | _ -> ());
    Harness.add_batch m ~ops:(2 * cfg.transactions) t
  done;
  m

let check _ _ = ()

let layer_metrics (h : Harness.t) _ _ =
  Report.set h.report "apps.postmark_host_s" "s" (Span.self_total "apps.postmark.vg")
