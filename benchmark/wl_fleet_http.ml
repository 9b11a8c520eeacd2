(* fleet_http: four one-CPU nodes behind the round-robin balancer, each
   serving with the event-loop httpd at ring batch 8, in waves of 64
   requests for one of eight documents.  This is the netstack, the
   syscall ring, the scheduler and the balancer, reading the file
   system through the buffer cache; no crypto.  Waves come in blocks of
   eight, one per document in a seeded order, so every block serves
   the same bytes. *)

open Vg_apps
open Vg_fleet

(* Virtual Ghost leg, across the measured waves: requests assigned to
   each node, the waves' makespans and their mean node serving times. *)
type vg_waves = {
  assigned : int array;
  mutable makespan_cycles : int;
  mutable mean_node_cycles : float;
}

type env = {
  legs : (string * Fleet.t) list;
  docs : (string * bytes) array;
  vg_waves : vg_waves;
}

let name = "fleet_http"
let nodes = 4
let port = 80
let side_port = 8080
let doc_kib = [| 1; 2; 4; 8; 16; 32; 48; 64 |]
let nominal_blocks = 88

(* Document i is about doc_kib.(i) KiB, trimmed by a seeded amount of up
   to 1/64 of its size, with seeded contents. *)
let documents h =
  let rng = Harness.rng h "fleet-docs" in
  Array.mapi
    (fun i kib ->
      let size = (kib * 1024) - Random.State.int rng (kib * 16) in
      (Printf.sprintf "/doc%d.html" i, Harness.random_bytes rng size))
    doc_kib

let requests h = if h.Harness.tiny then 8 else 64

let setup (h : Harness.t) =
  let docs = documents h in
  let leg (leg, mode) =
    let fleet =
      Span.with_ "node.boot" (fun () -> Fleet.create ~nodes (Harness.config h ~leg mode))
    in
    Fleet.listen_all fleet ~port;
    Span.with_ "userland.populate" (fun () ->
        Array.iter (fun (path, data) -> Fleet.setup_www fleet ~path data) docs);
    (* One untimed wave per document warms every node's caches. *)
    Span.with_ "warmup" (fun () ->
        Array.iter
          (fun (path, _) -> ignore (Fleet.serve_wave fleet ~port ~path ~requests:(requests h)))
          docs);
    (leg, fleet)
  in
  {
    legs = List.map leg Harness.legs;
    docs;
    vg_waves = { assigned = Array.make nodes 0; makespan_cycles = 0; mean_node_cycles = 0.0 };
  }

let vg_fleet env = List.assoc "vg" env.legs
let vg_kernels env = List.init nodes (fun i -> Node.kernel (Fleet.node (vg_fleet env) i))

let measure (h : Harness.t) env =
  let m = Harness.measured () in
  let rng = Harness.rng h "fleet-waves" in
  let order = Array.init (Array.length env.docs) Fun.id in
  let requests = requests h in
  let w = env.vg_waves in
  for block = 0 to Harness.size h ~nominal:nominal_blocks ~tiny:1 - 1 do
    Harness.shuffle rng order;
    let (), t =
      Harness.timed @@ fun () ->
      Array.iteri
      (fun i doc ->
        List.iter
          (fun (leg, fleet) ->
            let path = fst env.docs.(doc) in
            let wave =
              Span.with_ ("fleet.wave." ^ leg) (fun () ->
                  Fleet.serve_wave fleet ~port ~path ~requests)
            in
            let failed = requests - wave.Fleet.ok in
            Report.check h.report (failed = 0) "%s wave for %s: %d of %d requests failed" leg
              path failed requests;
            m.failed <- m.failed + failed;
            let l = Harness.leg_of m leg in
            l.ops <- l.ops + requests;
            l.sim_us <- l.sim_us +. Vg_machine.Cost.to_microseconds wave.Fleet.elapsed_cycles;
            if leg = "vg" then begin
              w.makespan_cycles <- w.makespan_cycles + wave.Fleet.elapsed_cycles;
              let total = ref 0 in
              Array.iter
                (fun (r : Fleet.node_report) ->
                  w.assigned.(r.node_id) <- w.assigned.(r.node_id) + r.assigned;
                  total := !total + r.elapsed_cycles)
                wave.Fleet.per_node;
              w.mean_node_cycles <-
                w.mean_node_cycles +. (float_of_int !total /. float_of_int nodes)
            end)
          (Harness.leg_order ((block * Array.length order) + i) env.legs))
        order
    in
    Harness.add_batch m ~ops:(2 * requests * Array.length order) t
  done;
  m

(* After the measured waves, every node still serves every document
   byte for byte: a one-shot server on a side port answers a client
   GET for each. *)
let check (h : Harness.t) env =
  List.iter
    (fun (leg, fleet) ->
      for i = 0 to nodes - 1 do
        let node = Fleet.node fleet i in
        Node.launch node ~ghosting:false (fun ctx ->
            match Httpd.start ctx ~port:side_port with
            | Error e ->
                Report.check h.report false "%s node %d: side port: %s" leg i
                  (Vg_kernel.Errno.to_string e)
            | Ok listen_fd ->
                Array.iter
                  (fun (path, data) ->
                    let got =
                      Httpd.Client.get (Node.machine node) ~port:side_port ~path (fun () ->
                          ignore (Httpd.serve_requests ctx ~listen_fd ~max:1))
                    in
                    Report.check h.report (got = Some data) "%s node %d served %s wrong" leg i
                      path)
                  env.docs)
      done)
    env.legs

let layer_metrics (h : Harness.t) env _ =
  let r = h.report and w = env.vg_waves in
  let waves = List.map (fun s -> s *. 1e3) (Span.self_times "fleet.wave.vg") in
  Report.set r "fleet.wave_host_ms_p50" "ms" (Stats.percentile waves 0.5);
  Report.set r "fleet.wave_host_ms_p99" "ms" (Stats.percentile waves 0.99);
  Report.set r "fleet.wave_host_n" "count" (float_of_int (List.length waves));
  let counts = Array.to_list (Array.map float_of_int w.assigned) in
  let mean = List.fold_left ( +. ) 0.0 counts /. float_of_int nodes in
  Report.set r "fleet.assign_spread" "frac"
    ((List.fold_left max 0.0 counts -. List.fold_left min infinity counts) /. mean);
  Report.set r "fleet.makespan_over_mean" "x"
    (float_of_int w.makespan_cycles /. w.mean_node_cycles)
