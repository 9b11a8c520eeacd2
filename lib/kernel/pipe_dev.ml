type t = {
  chunks : bytes Queue.t;
  mutable front : int; (* bytes of the head chunk already read *)
  mutable size : int;
  capacity : int;
  mutable readers : int;
  mutable writers : int;
  read_wq : Waitq.t; (* woken when the pipe becomes readable / EOF *)
  write_wq : Waitq.t; (* woken when space frees up / readers vanish *)
}

let create ?(capacity = 65536) () =
  {
    chunks = Queue.create ();
    front = 0;
    size = 0;
    capacity;
    readers = 0;
    writers = 0;
    read_wq = Waitq.create ~name:"pipe-read";
    write_wq = Waitq.create ~name:"pipe-write";
  }

let add_reader t = t.readers <- t.readers + 1
let add_writer t = t.writers <- t.writers + 1

let drop_reader t =
  t.readers <- max 0 (t.readers - 1);
  (* Writers blocked on a full pipe must wake to observe EPIPE. *)
  if t.readers = 0 then Waitq.wake t.write_wq

let drop_writer t =
  t.writers <- max 0 (t.writers - 1);
  (* Readers blocked on an empty pipe must wake to observe EOF. *)
  if t.writers = 0 then Waitq.wake t.read_wq

let bytes_available t = t.size

(* Level-triggered readiness: EOF and EPIPE count as ready, since the
   matching operation returns immediately. *)
let readable t = t.size > 0 || t.writers = 0
let writable t = t.size < t.capacity || t.readers = 0
let read_wq t = t.read_wq
let write_wq t = t.write_wq

(* Copy straight from the queued chunks into one result buffer; a
   partly read head chunk stays queued with [front] past its consumed
   bytes, so reading a large chunk in small pieces copies each byte
   once. *)
let read t n : bytes Errno.result =
  if n < 0 then Error Errno.EINVAL
  else if t.size = 0 then
    if t.writers > 0 then Error Errno.EAGAIN else Ok Bytes.empty
  else begin
    let want = min n t.size in
    let out = Bytes.create want in
    let pos = ref 0 in
    while !pos < want do
      let chunk = Queue.peek t.chunks in
      let avail = Bytes.length chunk - t.front in
      let k = min avail (want - !pos) in
      Bytes.blit chunk t.front out !pos k;
      pos := !pos + k;
      if k = avail then begin
        ignore (Queue.pop t.chunks);
        t.front <- 0
      end
      else t.front <- t.front + k
    done;
    t.size <- t.size - want;
    if want > 0 then Waitq.wake t.write_wq;
    Ok out
  end

let write t src : int Errno.result =
  if t.readers = 0 then Error Errno.EPIPE
  else begin
    let room = t.capacity - t.size in
    if room = 0 then Error Errno.EAGAIN
    else begin
      let n = min room (Bytes.length src) in
      (* Taken whole, the buffer itself is queued: callers hand over a
         fresh one ([copyin], [Netstack.parse]). *)
      Queue.push (if n = Bytes.length src then src else Bytes.sub src 0 n) t.chunks;
      t.size <- t.size + n;
      if n > 0 then Waitq.wake t.read_wq;
      Ok n
    end
  end
