(* ghost_pressure: a two-CPU node capped at 192 frames, with the swapd
   daemon, whose ghosting process holds a working set three times its
   resident ghost capacity.  This is ghost memory, SVA sealing, the
   ghost-swap clock and daemon, and Vg_crypto: the host-time hotspot,
   which the other workloads bypass.

   Touches are stratified so every seed exerts the same pressure: in
   each block of ten, eight go to the hot fifth of the pages and two to
   the cold rest.  Each touch is a write with probability 1/4. *)

open Vg_machine
open Vg_kernel
open Vg_userland
open Vg_fleet

let name = "ghost_pressure"
let frame_limit = 192
let nominal_touches = 2000
let stamp_len = 16

(* What page [p] holds after [gen] writes. *)
let stamp p gen = Printf.sprintf "p%05d g%08d" (p mod 100_000) (gen mod 100_000_000)

type touch = { page : int; write : bool }

(* The walker pauses here once its working set is filled: set-up ends
   and the measured touches start when the harness resumes it. *)
type _ Effect.t += Filled : unit Effect.t

type leg_state = {
  leg : string;
  kernel : Kernel.t;
  mutable resume : unit -> unit;
  mutable plan : touch array;
  (* filled in by the measured phase *)
  mutable ok : int;
  mutable misses : int;
  mutable refusals : int;
  mutable sim_cycles : int;
  mutable batches : float list;  (* host seconds of each block of ten touches *)
  mutable hit_s : float list;
  mutable miss_s : float list;
  mutable miss_sim_us : float list;
}

type env = { legs : leg_state list }

(* The fill order and the touches.  Each set's pages are visited
   round-robin in a seeded order (reshuffling every round doubles the
   seed-to-seed spread of the miss count).  The fill goes through the
   cold pages in visiting order, then the hot ones, so the touches
   start in steady state: the hot set resident, and every cold touch a
   miss. *)
let plan h ~pages ~touches =
  let rng = Harness.rng h "ghost-plan" in
  let order = Array.init pages Fun.id in
  Harness.shuffle rng order;
  let hot_n = max 1 (pages / 5) in
  let hot = Array.sub order 0 hot_n and cold = Array.sub order hot_n (pages - hot_n) in
  let round_robin a =
    let i = ref (-1) in
    fun () ->
      i := (!i + 1) mod Array.length a;
      a.(!i)
  in
  let next_hot = round_robin hot and next_cold = round_robin cold in
  let is_cold = Array.init 10 (fun i -> i < 2) in
  let touches =
    Array.init touches (fun i ->
        if i mod 10 = 0 then Harness.shuffle rng is_cold;
        let page = if is_cold.(i mod 10) then next_cold () else next_hot () in
        { page; write = Random.State.int rng 4 = 0 })
  in
  (Array.append cold hot, touches)

let base = Int64.add Vg_util.Layout.ghost_start 0x100000L
let page_va p = Int64.add base (Int64.of_int (p * 4096))
let swap_ins k = (Ghost_swap.stats k).Ghost_swap.swap_ins

(* The walker: fill the working set, pause, then run the plan.  A touch
   reads the page's stamp and checks it against the last generation
   written; a write touch then bumps the generation.  The walker yields
   after each block of ten touches, which is when swapd runs. *)
let walker (h : Harness.t) st sched ctx =
  let k = st.kernel and machine = st.kernel.Kernel.machine in
  let proc = ctx.Runtime.proc in
  let capacity = Ghost_swap.available k - 48 in
  let pages = if h.tiny then capacity + 64 else 3 * capacity in
  let gen = Array.make pages 0 in
  let fill, touches = plan h ~pages ~touches:(Harness.size h ~nominal:nominal_touches ~tiny:40) in
  Span.with_ "userland.populate" (fun () ->
      Array.iter
        (fun p ->
          (match Syscalls.allocgm k proc ~va:(page_va p) ~pages:1 with
          | Ok () -> ()
          | Error e -> failwith ("allocgm: " ^ Errno.to_string e));
          Runtime.poke ctx (page_va p) (Bytes.of_string (stamp p 0)))
        fill);
  st.plan <- touches;
  Effect.perform Filled;
  let refusals0 = (Ghost_swap.stats k).Ghost_swap.refusals in
  let block_start = ref (Harness.now ()) in
  Array.iteri
    (fun i t ->
      let ins0 = swap_ins k and c0 = Machine.cycles machine and t0 = Harness.now () in
      let got =
        Span.with_ "userland.touch" (fun () ->
            let got = Bytes.to_string (Runtime.peek ctx (page_va t.page) stamp_len) in
            if t.write then begin
              gen.(t.page) <- gen.(t.page) + 1;
              Runtime.poke ctx (page_va t.page) (Bytes.of_string (stamp t.page gen.(t.page)))
            end;
            got)
      in
      let host_s = Harness.now () -. t0 and sim = Machine.cycles machine - c0 in
      let expect = stamp t.page (if t.write then gen.(t.page) - 1 else gen.(t.page)) in
      if got = expect then st.ok <- st.ok + 1;
      st.sim_cycles <- st.sim_cycles + sim;
      if swap_ins k > ins0 then begin
        st.misses <- st.misses + 1;
        if !Span.recording then begin
          st.miss_s <- host_s :: st.miss_s;
          st.miss_sim_us <- Cost.to_microseconds sim :: st.miss_sim_us
        end
      end
      else if !Span.recording then st.hit_s <- host_s :: st.hit_s;
      if (i + 1) mod 10 = 0 then begin
        Sched.yield sched;
        let now = Harness.now () in
        st.batches <- (now -. !block_start) :: st.batches;
        block_start := now
      end)
    st.plan;
  st.refusals <- (Ghost_swap.stats k).Ghost_swap.refusals - refusals0;
  Ghost_swap.stop_swapd k

(* Drive the node's scheduler until the walker has filled its working
   set; the returned function resumes it and runs to the end. *)
let run_until_filled sched =
  Effect.Deep.match_with (fun () -> Sched.run sched) ()
    {
      retc = (fun () () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Filled ->
              Some
                (fun (cont : (a, unit -> unit) Effect.Deep.continuation) () ->
                  Effect.Deep.continue cont () ())
          | _ -> None);
    }

let setup (h : Harness.t) =
  let leg (leg, mode) =
    let node =
      Span.with_ "node.boot" (fun () ->
          Node.boot
            (Harness.config h ~leg ~cpus:2 mode |> Node_config.with_frame_limit frame_limit))
    in
    let kernel = Node.kernel node in
    let st =
      {
        leg;
        kernel;
        resume = ignore;
        plan = [||];
        ok = 0;
        misses = 0;
        refusals = 0;
        sim_cycles = 0;
        batches = [];
        hit_s = [];
        miss_s = [];
        miss_sim_us = [];
      }
    in
    let sched = Sched.create kernel in
    Ghost_swap.spawn_swapd kernel sched;
    ignore
      (Runtime.spawn_fiber kernel sched ~cpu:0 ~ghosting:true ~name:"walker"
         (walker h st sched));
    st.resume <- run_until_filled sched;
    st
  in
  { legs = List.map leg Harness.legs }

let vg_kernels env =
  List.filter_map (fun st -> if st.leg = "vg" then Some st.kernel else None) env.legs

(* The two legs run one after the other (each drives its own
   scheduler); a batch pairs the i-th block of ten touches of each. *)
let measure (h : Harness.t) env =
  let m = Harness.measured () in
  List.iter
    (fun st ->
      st.resume ();
      let touches = Array.length st.plan in
      let l = Harness.leg_of m st.leg in
      l.ops <- touches;
      l.sim_us <- Cost.to_microseconds st.sim_cycles;
      let failed = touches - st.ok + st.refusals in
      Report.check h.report (st.ok = touches) "%s: %d of %d touches read a stale stamp"
        st.leg (touches - st.ok) touches;
      Report.check h.report (st.refusals = 0) "%s: %d swap-ins refused" st.leg st.refusals;
      m.failed <- m.failed + failed)
    env.legs;
  (match env.legs with
  | [ a; b ] -> List.iter2 (fun sa sb -> Harness.add_batch m ~ops:20 (sa +. sb)) a.batches b.batches
  | _ -> ());
  m

let check _ _ = ()

let layer_metrics (h : Harness.t) env _ =
  let r = h.report in
  List.iter
    (fun st ->
      if st.leg = "vg" then begin
        let us = List.map (fun s -> s *. 1e6) in
        Report.set r "ghost.touch_hit_frac" "frac"
          (1.0 -. (float_of_int st.misses /. float_of_int (max 1 (Array.length st.plan))));
        Report.set r "userland.touch_hit_host_us_p50" "us" (Stats.percentile (us st.hit_s) 0.5);
        Report.set r "userland.touch_hit_host_us_p99" "us" (Stats.percentile (us st.hit_s) 0.99);
        Report.set r "userland.touch_miss_host_us_p50" "us" (Stats.percentile (us st.miss_s) 0.5);
        Report.set r "userland.touch_miss_host_us_p99" "us"
          (Stats.percentile (us st.miss_s) 0.99);
        Report.set r "userland.touch_miss_sim_us_p50" "sim_us"
          (Stats.percentile st.miss_sim_us 0.5);
        Report.set r "userland.touch_miss_sim_us_p99" "sim_us"
          (Stats.percentile st.miss_sim_us 0.99)
      end)
    env.legs
