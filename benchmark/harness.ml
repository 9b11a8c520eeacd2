(* What every workload shares: the run's parameters, seeded randomness,
   node configuration, and the record a measured phase returns. *)

open Vg_obs
open Vg_fleet

type t = {
  workload : string;
  seed : int;
  seconds : float;
      (** scales the measured work: each workload's nominal size takes
          about ten host seconds at the seed commit on a 2-core
          reference machine, and runs [seconds / 10] of it *)
  tiny : bool;  (** smoke-test scale: a handful of ops per workload *)
  report : Report.t;
  vg_hub : Obs.t;
      (** shared by every Virtual Ghost node the workload boots through
          {!config}: where the traced run attaches its sinks *)
}

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let size h ~nominal ~tiny =
  if h.tiny then tiny
  else max 1 (int_of_float (Float.round (float_of_int nominal *. h.seconds /. 10.0)))

(* Independent streams per purpose, all derived from --seed. *)
let rng h purpose = Random.State.make [| h.seed; Hashtbl.hash purpose |]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let random_bytes rng n = Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256))

let legs = [ ("native", Vg_sva.Sva.Native_build); ("vg", Vg_sva.Sva.Virtual_ghost) ]

(* Nodes boot from fixed seeds: --seed drives the workload's inputs,
   not the machines' keys, whose generation time would otherwise vary
   the set-up time from seed to seed.  Native nodes each get a hub of
   their own, so nothing the traced run observes comes from them. *)
let config h ~leg ?(cpus = 1) mode =
  Node_config.(
    default |> with_cpus cpus |> with_mode mode
    |> with_seed (Printf.sprintf "vgbench-%s-%s" h.workload leg)
    |> with_obs (if leg = "vg" then h.vg_hub else Obs.create ()))

(* The leg to run first in round [i]: alternating, so neither build
   always runs on a cold host cache. *)
let leg_order i xs = if i mod 2 = 0 then xs else List.rev xs

type leg = { mutable ops : int; mutable sim_us : float }

let leg () = { ops = 0; sim_us = 0.0 }

type measured = {
  native : leg;
  vg : leg;
  mutable failed : int;
  mutable batches : (int * float) list;
      (** ops and host seconds of each batch of the measured phase, both
          legs; a batch is a unit of work that repeats with the same
          shape, so their rates are comparable *)
  mutable rows : (string * leg * leg) list;
      (** per-row (native, vg) legs for workloads made of several rows;
          empty for single-row workloads *)
}

let measured () = { native = leg (); vg = leg (); failed = 0; batches = []; rows = [] }

let leg_of m = function "native" -> m.native | _ -> m.vg

let add_batch m ~ops seconds = m.batches <- (ops, seconds) :: m.batches

(* A workload: build its nodes and inputs (timed as set-up), run the
   measured phase, then check outputs that need the nodes after the
   fact.  [vg_kernels] are the Virtual Ghost kernels whose swap counts
   the traced run reads; it observes their hubs as well as [vg_hub]
   (fleet nodes keep hubs of their own). *)
module type WORKLOAD = sig
  type env

  val name : string
  val setup : t -> env
  val vg_kernels : env -> Vg_kernel.Kernel.t list
  val measure : t -> env -> measured
  val check : t -> env -> unit

  val layer_metrics : t -> env -> measured -> unit
  (** Per-layer metrics only this workload exercises, from the spans
      and counters of the traced measured phase. *)
end
