(* syscalls: the nine LMBench rows of Table 2 plus a module_read row,
   on one CPU.  This is the trap protocol, the MMU checks and the
   executor running a verified module, with no crypto, disk or network.
   Every row runs in a fresh process, so fork cost does not grow across
   rounds. *)

open Vg_machine
open Vg_kernel
open Vg_userland
open Vg_apps
open Vg_fleet

type env_leg = {
  node : Node.t;
  image : Vg_sva.Appimage.t;  (* signed binary fork+exec runs *)
  expect : int;  (* checksum module_read must return *)
}

type env = { legs : (string * env_leg) list }

let name = "syscalls"

let nominal_rounds = 480
let module_file = "/vgbench-module-read"
let buffer_bytes = 4096

(* A read() override that chains to the genuine handler, then returns a
   checksum of the bytes read, computed by recursion over 8-byte words:
   every word costs a call and a return, so the row exercises the
   executor and, under Virtual Ghost, CFI on each of them. *)
let checksum_module () =
  let open Vg_ir in
  let open Vg_ir.Ir in
  let b = Builder.create () in
  Builder.func b "sys_read" ~params:[ "fd"; "buf"; "len" ];
  let n = Builder.call b "extern.genuine_read" [ Reg "fd"; Reg "buf"; Reg "len" ] in
  let nothing = Builder.cmp b Slt n (Imm 1L) in
  Builder.cbr b nothing "done" "sum";
  Builder.block b "done";
  Builder.ret b (Some n);
  Builder.block b "sum";
  let sum = Builder.call b "csum" [ Reg "buf"; n ] in
  Builder.ret b (Some (Builder.bin b And sum (Imm 0x3fffffffL)));
  Builder.func b "csum" ~params:[ "p"; "n" ];
  let short = Builder.cmp b Ult (Reg "n") (Imm 8L) in
  Builder.cbr b short "base" "step";
  Builder.block b "base";
  Builder.ret b (Some (Imm 0L));
  Builder.block b "step";
  let word = Builder.load b ~width:W64 (Reg "p") in
  let rest =
    Builder.call b "csum"
      [ Builder.bin b Add (Reg "p") (Imm 8L); Builder.bin b Sub (Reg "n") (Imm 8L) ]
  in
  Builder.ret b (Some (Builder.bin b Add (Builder.bin b Mul rest (Imm 31L)) word));
  Builder.program b

(* The same checksum in OCaml: what every module_read must return. *)
let checksum data =
  let rec go off n =
    if n < 8 then 0L
    else Int64.add (Int64.mul (go (off + 8) (n - 8)) 31L) (Bytes.get_int64_le data off)
  in
  Int64.to_int (Int64.logand (go 0 (Bytes.length data)) 0x3fffffffL)

(* One op: rewind, then read the whole file through the module into a
   4 KiB buffer.  Returns the mean simulated microseconds per op and
   the ops that failed. *)
let module_read leg ctx ~iterations =
  let k = ctx.Runtime.kernel and proc = ctx.Runtime.proc in
  let machine = k.Kernel.machine in
  match Syscalls.open_ k proc module_file Syscalls.rdonly with
  | Error _ -> (0.0, iterations)
  | Ok fd ->
      let buf = Runtime.ualloc ctx buffer_bytes in
      Runtime.poke ctx buf (Bytes.make buffer_bytes '\000');
      let failed = ref 0 in
      let start = Machine.cycles machine in
      for _ = 1 to iterations do
        let ok =
          Syscalls.lseek k proc ~fd ~pos:0 = Ok 0
          && Runtime.sys_read ctx ~fd ~dst:buf ~len:buffer_bytes = Ok leg.expect
        in
        if not ok then incr failed
      done;
      let us = Cost.to_microseconds (Machine.cycles machine - start) in
      ignore (Syscalls.close k proc fd);
      (us /. float_of_int iterations, !failed)

let lmbench f _leg ctx ~iterations = (f ctx ~iterations, 0)

(* Each row with its iterations per round. *)
let rows =
  [
    ("null", 400, lmbench Lmbench.null_syscall);
    ("open_close", 200, lmbench Lmbench.open_close);
    ("mmap", 40, lmbench Lmbench.mmap_bench);
    ("page_fault", 200, lmbench Lmbench.page_fault);
    ("signal_install", 400, lmbench Lmbench.signal_install);
    ("signal_delivery", 200, lmbench Lmbench.signal_delivery);
    ("fork_exit", 40, lmbench Lmbench.fork_exit);
    ( "fork_exec",
      30,
      fun leg ctx ~iterations -> (Lmbench.fork_exec ctx ~image:leg.image ~iterations, 0) );
    ("select_10", 300, lmbench Lmbench.select_10);
    ("module_read", 8, module_read);
  ]

(* The seed picks the key the images carry and the module_read file:
   its bytes, and a length two to five words short of the buffer.
   (Reads within a word of the full 4 KiB allocate up to a tenth more
   host words over the whole workload, which would split the seeds into
   two groups.) *)
let setup (h : Harness.t) =
  let rng = Harness.rng h "syscalls-setup" in
  let app_key = Harness.random_bytes rng 16 in
  let data = Harness.random_bytes rng (buffer_bytes - (8 * (2 + Random.State.int rng 4))) in
  let leg (leg, mode) =
    let node = Span.with_ "node.boot" (fun () -> Node.boot (Harness.config h ~leg mode)) in
    let k = Node.kernel node in
    let image, _, _ =
      Span.with_ "apps.install_images" (fun () -> Ssh_suite.install_images k ~app_key)
    in
    Span.with_ "userland.populate" (fun () ->
        match Node.www node ~path:module_file data with
        | Ok () -> ()
        | Error e -> failwith ("module_read file: " ^ Errno.to_string e));
    Span.with_ "compiler.module_load" (fun () ->
        Syscalls.register_builtin_externs k;
        match Module_loader.load k ~name:"csum_read" (checksum_module ()) with
        | Ok () -> ()
        | Error e -> failwith ("module load: " ^ Module_loader.describe_load_error e));
    (leg, { node; image; expect = checksum data })
  in
  { legs = List.map leg Harness.legs }

let vg_kernels env = [ Node.kernel (List.assoc "vg" env.legs).node ]

let measure (h : Harness.t) env =
  let m = Harness.measured () in
  let legs = List.map (fun (row, _, _) -> (row, Harness.leg (), Harness.leg ())) rows in
  m.rows <- legs;
  (* Rows run in a fixed order: shuffling it would vary the frames each
     row touches, and so the host's allocation, from seed to seed. *)
  for round = 0 to Harness.size h ~nominal:nominal_rounds ~tiny:1 - 1 do
    let ops = ref 0 in
    let (), t =
      Harness.timed @@ fun () ->
      Span.with_ "syscalls.round" @@ fun () ->
        List.iter2
          (fun (row, iterations, run) (_, native, vg) ->
            let n = if h.tiny then 2 else iterations in
            List.iter
              (fun (leg, env_leg) ->
                let us, failed =
                  Span.with_ (Printf.sprintf "syscalls.%s.%s" row leg) (fun () ->
                      Node.launch env_leg.node ~ghosting:false (fun ctx ->
                          run env_leg ctx ~iterations:n))
                in
                Report.check h.report (failed = 0) "%s %s: %d of %d ops failed" row leg
                  failed n;
                m.failed <- m.failed + failed;
                List.iter
                  (fun (l : Harness.leg) ->
                    l.ops <- l.ops + n;
                    l.sim_us <- l.sim_us +. (us *. float_of_int n))
                  [ (if leg = "vg" then vg else native); Harness.leg_of m leg ];
                ops := !ops + n)
              (Harness.leg_order round env.legs))
          rows legs
    in
    Harness.add_batch m ~ops:!ops t
  done;
  m

let check _ _ = ()

let layer_metrics (h : Harness.t) _ (m : Harness.measured) =
  List.iter
    (fun (row, (native : Harness.leg), (vg : Harness.leg)) ->
      let per_op (l : Harness.leg) = l.sim_us /. float_of_int (max 1 l.ops) in
      Report.set h.report (Printf.sprintf "syscalls.%s.sim_us" row) "sim_us" (per_op vg);
      Report.set h.report (Printf.sprintf "syscalls.%s.sim_us_native" row) "sim_us" (per_op native);
      Report.set h.report
        (Printf.sprintf "syscalls.%s.host_us_per_op" row)
        "us"
        (Span.self_total (Printf.sprintf "syscalls.%s.vg" row)
        *. 1e6 /. float_of_int (max 1 vg.ops)))
    m.rows
