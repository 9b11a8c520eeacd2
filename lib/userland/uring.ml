(* Userland side of the batched syscall ring.

   The wrapper library allocates the ring in traditional memory — the
   kernel must read submissions and write completions, so the ring can
   never be ghost — and mirrors the user-owned header counters
   (sq_tail, cq_head) between OCaml state and ring memory.  The
   kernel-owned counters (sq_head, cq_tail) are only ever read. *)

type t = {
  ctx : Runtime.ctx;
  base : int64;
  depth : int;
  mutable sq_tail : int;
  mutable cq_head : int;
  mutable enters : int;
  mutable submitted : int;
  mutable completed : int;
}

let off t o = Int64.add t.base (Int64.of_int o)

let read_counter t o =
  Int64.to_int (Bytes.get_int64_le (Runtime.peek t.ctx (off t o) 8) 0)

let write_counter t o v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Runtime.poke t.ctx (off t o) b

let create ctx ~depth =
  if depth <= 0 || depth > 4096 then invalid_arg "Uring.create: bad depth";
  let base = Runtime.ualloc ctx (Syscall_ring.region_bytes ~depth) in
  let t =
    { ctx; base; depth; sq_tail = 0; cq_head = 0; enters = 0; submitted = 0; completed = 0 }
  in
  Runtime.poke ctx base (Bytes.make Syscall_ring.header_bytes '\000');
  t

let depth t = t.depth
let base t = t.base
let enters t = t.enters
let submitted t = t.submitted
let completed t = t.completed
let sq_head t = read_counter t Syscall_ring.sq_head_off

let submit t ~sysno ~args ~user_data =
  if t.sq_tail - sq_head t >= t.depth then false
  else begin
    let slot = Syscall_ring.slot_of ~depth:t.depth t.sq_tail in
    let buf = Bytes.create Syscall_ring.sqe_bytes in
    Syscall_ring.write_sqe buf ~off:0
      { Syscall_ring.sysno = Syscall_abi.Sysno.to_int sysno; args; user_data };
    Runtime.poke t.ctx (off t (Syscall_ring.sqe_off ~depth:t.depth ~slot)) buf;
    t.sq_tail <- t.sq_tail + 1;
    write_counter t Syscall_ring.sq_tail_off t.sq_tail;
    t.submitted <- t.submitted + 1;
    true
  end

let enter t ~to_submit =
  t.enters <- t.enters + 1;
  Syscalls.ring_enter t.ctx.Runtime.kernel t.ctx.Runtime.proc ~ring:t.base ~depth:t.depth
    ~to_submit

let reap t =
  let cq_tail = read_counter t Syscall_ring.cq_tail_off in
  let out = ref [] in
  while t.cq_head < cq_tail do
    let slot = Syscall_ring.slot_of ~depth:t.depth t.cq_head in
    let raw = Runtime.peek t.ctx (off t (Syscall_ring.cqe_off ~depth:t.depth ~slot)) Syscall_ring.cqe_bytes in
    out := Syscall_ring.read_cqe raw ~off:0 :: !out;
    t.cq_head <- t.cq_head + 1;
    t.completed <- t.completed + 1
  done;
  write_counter t Syscall_ring.cq_head_off t.cq_head;
  List.rev !out
