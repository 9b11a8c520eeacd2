module Ident = Vg_util.Int_tbl.Ident

type privilege = User | Kernel
type access = Read | Write | Exec

exception Page_fault of { va : int64; access : access; present : bool }

(* One CPU core: its own privilege level, cycle clock, TLB, installed
   address space and local-APIC timer.  The simulator runs cores one at
   a time (see [switch_core]); parallelism is modelled by each core
   accumulating cycles independently, with wall-clock time being the
   maximum over the cores' clocks. *)
type core = {
  id : int;
  mutable privilege : privilege;
  mutable cycles : int;
  (* TLB: vpage -> pte, invalidated wholesale on context switch.  Never
     iterated, so keyed by the page number itself. *)
  tlb : Pagetable.pte Ident.t;
  mutable current_pt : Pagetable.t;
  mutable timer_period : int; (* 0 = disarmed *)
  mutable timer_deadline : int;
  mutable ipis_received : int;
}

type harness = { mutable last_conn : int; stashes : (int, bytes Queue.t) Hashtbl.t }

type t = {
  mem : Phys_mem.t;
  kernel_pt : Pagetable.t;
  cores : core array;
  mutable cur : int;
  console : Console.t;
  disk : Disk.t;
  nic : Nic.t;
  remote_nic : Nic.t;
  harness : harness;
  iommu : Iommu.t;
  tpm : Tpm.t;
  obs : Obs.t;
  (* Speculation model.  [spec_depth] is the transient-window budget in
     macro-ops; 0 means the machine has no speculation at all and the
     cache side channel below is never consulted, keeping depth-0 cycle
     counts byte-identical to machines built before this field existed. *)
  spec_depth : int;
  (* VA-indexed cache-line presence set (line = va >> 6).  Only the
     word-sized access paths consult it; bulk copies are modelled as
     non-temporal. *)
  cache_lines : unit Ident.t;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable spec_windows : int;
  mutable spec_transient : int;
}

let cpus t = Array.length t.cores
let cpu t = t.cur
let core t = t.cores.(t.cur)

let switch_core t i =
  if i < 0 || i >= cpus t then invalid_arg "Machine.switch_core";
  t.cur <- i

(* Observability never touches the clock: the core's clock advances by
   [n] whether or not a sink is attached, so simulated cycle counts are
   byte-identical with observation on or off. *)
let charge_to t tag n =
  let c = core t in
  c.cycles <- c.cycles + n;
  if Obs.is_armed t.obs then Obs.charge t.obs ~cycles:c.cycles tag n

let charge ?(tag = Obs.Tag.Other) t n = charge_to t tag n

let cycles t = (core t).cycles
let core_cycles t i = t.cores.(i).cycles

let max_cycles t = Array.fold_left (fun acc c -> max acc c.cycles) 0 t.cores

let elapsed_seconds t = Cost.to_seconds (max_cycles t)

let reset_clock t =
  Array.iter
    (fun c ->
      c.cycles <- 0;
      if c.timer_period > 0 then c.timer_deadline <- c.timer_period)
    t.cores

let obs t = t.obs
let tracing t = Obs.is_armed t.obs
let emit t ev = if Obs.is_armed t.obs then Obs.event t.obs ~cycles:(core t).cycles ev

let make_core id =
  {
    id;
    privilege = Kernel;
    cycles = 0;
    tlb = Ident.create 512;
    current_pt = Pagetable.create ();
    timer_period = 0;
    timer_deadline = 0;
    ipis_received = 0;
  }

let create ~cpus ~phys_frames ~disk_sectors ~obs ~spec_depth ~seed =
  if cpus < 1 then invalid_arg "Machine.create: cpus must be >= 1";
  let mem = Phys_mem.create ~frames:phys_frames in
  let rec t =
    lazy
      (let charge_as tag n = charge_to (Lazy.force t) tag n in
       let nic, remote_nic = Nic.pair ~charge:(charge_as Obs.Tag.Net) () in
       {
         mem;
         kernel_pt = Pagetable.create ();
         cores = Array.init cpus make_core;
         cur = 0;
         console = Console.create ();
         disk = Disk.create ~charge:(charge_as Obs.Tag.Disk) ~sectors:disk_sectors ();
         nic;
         remote_nic;
         harness = { last_conn = 999; stashes = Hashtbl.create 32 };
         iommu = Iommu.create ();
         tpm = Tpm.create ~seed;
         obs;
         spec_depth;
         cache_lines = Ident.create 1024;
         cache_hits = 0;
         cache_misses = 0;
         spec_windows = 0;
         spec_transient = 0;
       })
  in
  let m = Lazy.force t in
  Iommu.set_observer m.iommu (fun frame ->
      emit m
        (Obs.Event.Security
           { subsystem = "iommu"; detail = Printf.sprintf "DMA blocked on protected frame %d" frame }));
  m

let privilege t = (core t).privilege
let set_privilege t p = (core t).privilege <- p
let kernel_pt t = t.kernel_pt
let current_pt t = (core t).current_pt
let flush_tlb t = Ident.reset (core t).tlb

let set_current_pt t pt =
  let c = core t in
  c.current_pt <- pt;
  charge ~tag:Obs.Tag.Context_switch t Cost.context_switch;
  flush_tlb t

(* TLB shootdown: invalidate every remote core's TLB via IPI.  On a
   single-CPU machine this is nothing at all — the local core's TLB is
   managed by explicit [flush_tlb] calls exactly as before, so
   uniprocessor cycle counts are untouched.  With several CPUs the
   sender pays one ICR write per remote core and each remote core pays
   interrupt delivery + invalidation, charged to its own clock. *)
let tlb_shootdown t =
  let n = cpus t in
  if n > 1 then begin
    let sender = core t in
    Array.iter
      (fun c ->
        if c.id <> sender.id then begin
          charge ~tag:Obs.Tag.Ipi t Cost.ipi_send;
          Ident.reset c.tlb;
          c.cycles <- c.cycles + Cost.ipi_deliver;
          if Obs.is_armed t.obs then
            Obs.charge t.obs ~cycles:c.cycles Obs.Tag.Ipi Cost.ipi_deliver;
          c.ipis_received <- c.ipis_received + 1;
          emit t (Obs.Event.Ipi { from_cpu = sender.id; to_cpu = c.id })
        end)
      t.cores
  end

let ipis_received t i = t.cores.(i).ipis_received

(* -- per-core timer --------------------------------------------------- *)

let arm_timer t ~period =
  if period <= 0 then invalid_arg "Machine.arm_timer: period must be > 0";
  Array.iter
    (fun c ->
      c.timer_period <- period;
      c.timer_deadline <- c.cycles + period)
    t.cores

let disarm_timer t =
  Array.iter
    (fun c ->
      c.timer_period <- 0;
      c.timer_deadline <- 0)
    t.cores

let timer_pending t =
  let c = core t in
  c.timer_period > 0 && c.cycles >= c.timer_deadline

let ack_timer t =
  let c = core t in
  if c.timer_period > 0 then begin
    charge ~tag:Obs.Tag.Timer t Cost.timer_irq;
    emit t (Obs.Event.Timer_tick { cpu = c.id });
    while c.timer_deadline <= c.cycles do
      c.timer_deadline <- c.timer_deadline + c.timer_period
    done
  end

(* -- virtual memory --------------------------------------------------- *)

(* The kernel half of the address space (including SVA-internal memory)
   is translated through the shared kernel page table; user and ghost
   partitions through the per-process table. *)
let table_for t va =
  if Vg_util.Layout.in_kernel va then t.kernel_pt else (core t).current_pt

(* A TLB hit allocates nothing: the page number is an immediate and
   the lookup raises rather than wrapping its result in an option. *)
let lookup_pte t access va =
  let c = core t in
  let vpage = Int64.to_int (Int64.shift_right_logical va 12) in
  match Ident.find c.tlb vpage with
  | pte -> pte
  | exception Not_found -> (
      charge ~tag:Obs.Tag.Tlb t Cost.tlb_miss;
      match Pagetable.lookup (table_for t va) ~vpage:(Int64.of_int vpage) with
      | None -> raise (Page_fault { va; access; present = false })
      | Some pte ->
          Ident.replace c.tlb vpage pte;
          pte)

let check_access privilege access va (pte : Pagetable.pte) =
  let denied =
    match (access, privilege) with
    | Read, Kernel -> false
    | Read, User -> not pte.perm.user
    | Write, Kernel -> not pte.perm.writable
    | Write, User -> not (pte.perm.user && pte.perm.writable)
    | Exec, Kernel -> not pte.perm.executable
    | Exec, User -> not (pte.perm.user && pte.perm.executable)
  in
  if denied then raise (Page_fault { va; access; present = true })

let phys_of (pte : Pagetable.pte) va =
  Int64.logor (Int64.shift_left (Int64.of_int pte.frame) 12) (Int64.logand va 0xfffL)

let translate t access va =
  let pte = lookup_pte t access va in
  check_access (core t).privilege access va pte;
  phys_of pte va

(* [translate] for the accessors below: the physical address as an
   immediate [int].  A frame outside physical memory raises here what
   [Phys_mem] would have raised on [translate]'s address. *)
let translate_pa t access va =
  let pte = lookup_pte t access va in
  check_access (core t).privilege access va pte;
  let frame = pte.Pagetable.frame in
  if frame < 0 || frame >= Phys_mem.frames t.mem then
    raise (Phys_mem.Bad_physical_address (phys_of pte va));
  (frame lsl 12) lor (Int64.to_int va land 0xfff)

(* The same walk and permission check with no side effect on the
   machine: no charge, no TLB fill, no cache-line touch. *)
let translate_quiet t ~pt privilege access va =
  let table = if Vg_util.Layout.in_kernel va then t.kernel_pt else pt in
  match Pagetable.lookup table ~vpage:(Int64.shift_right_logical va 12) with
  | None -> raise (Page_fault { va; access; present = false })
  | Some pte ->
      check_access privilege access va pte;
      phys_of pte va

(* -- speculation / cache side channel --------------------------------- *)

let spec_depth t = t.spec_depth

let cache_line va = Int64.to_int (Int64.shift_right_logical va 6)

(* Architectural consult of the cache-line state.  Entirely gated on
   the machine having a speculative window at all: a depth-0 machine
   never reaches the table and never pays [Cost.cache_miss], so its
   cycle counts are identical to the pre-speculation cost model. *)
let consult_cache t va =
  if t.spec_depth > 0 then begin
    let line = cache_line va in
    if Ident.mem t.cache_lines line then t.cache_hits <- t.cache_hits + 1
    else begin
      t.cache_misses <- t.cache_misses + 1;
      Ident.replace t.cache_lines line ();
      charge ~tag:Obs.Tag.Spec t Cost.cache_miss
    end
  end

(* Transient load issued inside a speculative window: raw page-table
   walk (no TLB insert, no fault, no cycle charge — the work is
   squashed) but the cache-line touch is real.  That asymmetry IS the
   side channel. *)
let spec_load t va ~len =
  if t.spec_depth = 0 then None
  else
    let vpage = Int64.shift_right_logical va 12 in
    match Pagetable.lookup (table_for t va) ~vpage with
    | None -> None
    | Some pte -> (
        match Phys_mem.read t.mem ~addr:(phys_of pte va) ~len with
        | v ->
            Ident.replace t.cache_lines (cache_line va) ();
            t.spec_transient <- t.spec_transient + 1;
            Some v
        | exception Phys_mem.Bad_physical_address _ -> None)

let spec_window_opened t = t.spec_windows <- t.spec_windows + 1
let spec_flush t = Ident.reset t.cache_lines

type spec_stats = {
  windows : int;
  transient_loads : int;
  cache_hits : int;
  cache_misses : int;
}

let spec_stats t =
  {
    windows = t.spec_windows;
    transient_loads = t.spec_transient;
    cache_hits = t.cache_hits;
    cache_misses = t.cache_misses;
  }

let read_virt t va ~len =
  charge ~tag:Obs.Tag.Mem t Cost.mem_access;
  let v = Phys_mem.read_at t.mem (translate_pa t Read va) ~len in
  consult_cache t va;
  v

let write_virt t va ~len v =
  charge ~tag:Obs.Tag.Mem t Cost.mem_access;
  Phys_mem.write_at t.mem (translate_pa t Write va) ~len v;
  consult_cache t va

(* One modelled copy: one [copy_cycles] charge before the first
   translation, then page by page straight between physical memory and
   the caller's buffer, each page translated as it is reached. *)
let copy_virt t access va buf ~off ~len =
  charge ~tag:Obs.Tag.Copy t (Cost.copy_cycles len);
  let pos = ref 0 in
  while !pos < len do
    let va = Int64.add va (Int64.of_int !pos) in
    let chunk = min (len - !pos) (4096 - (Int64.to_int va land 0xfff)) in
    Phys_mem.blit_at t.mem (translate_pa t access va) buf ~off:(off + !pos) ~len:chunk
      ~to_mem:(access = Write);
    pos := !pos + chunk
  done

let read_virt_into t va dst ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length dst - len then
    invalid_arg "Machine.read_virt_into";
  copy_virt t Read va dst ~off ~len

let write_virt_from t va src ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length src - len then
    invalid_arg "Machine.write_virt_from";
  copy_virt t Write va src ~off ~len

let read_bytes_virt t va ~len =
  let out = Bytes.create len in
  read_virt_into t va out ~off:0 ~len;
  out

let write_bytes_virt t va src = write_virt_from t va src ~off:0 ~len:(Bytes.length src)

(* Read everything before writing anything: a fault in the source
   leaves the destination untouched, translations happen in
   read-then-write order, and overlapping ranges copy as memmove. *)
let memcpy_virt t ~dst ~src ~len = write_bytes_virt t dst (read_bytes_virt t src ~len)

let mem t = t.mem
let console t = t.console
let disk t = t.disk
let nic t = t.nic
let remote_nic t = t.remote_nic
let harness t = t.harness
let iommu t = t.iommu
let tpm t = t.tpm
let hw_random t n = Tpm.random t.tpm n
