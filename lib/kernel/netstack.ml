(* Frame format: type(1) conn(4) port(4) payload.

   Fabric frames (node-to-node links) prepend a 4-byte little-endian
   peer-node header to the same frame: on transmit it names the
   destination node; the switch rewrites it to the source node before
   forwarding, so the receiver knows whom to answer. *)

let ty_syn = 0
let ty_data = 1
let ty_fin = 2
let header_bytes = 9

let write_header b ~ty ~conn ~port =
  Bytes.set b 0 (Char.chr ty);
  Bytes.set_int32_le b 1 (Int32.of_int conn);
  Bytes.set_int32_le b 5 (Int32.of_int port)

let frame ~ty ~conn ~port payload =
  let b = Bytes.create (header_bytes + Bytes.length payload) in
  write_header b ~ty ~conn ~port;
  Bytes.blit payload 0 b header_bytes (Bytes.length payload);
  b

(* The header of the frame starting at [off] in [b]: type, connection
   and port.  The payload follows at [off + header_bytes]. *)
let parse_header b ~off =
  if Bytes.length b - off < header_bytes then None
  else
    Some
      ( Char.code (Bytes.get b off),
        Int32.to_int (Bytes.get_int32_le b (off + 1)),
        Int32.to_int (Bytes.get_int32_le b (off + 5)) )

(* A parsed frame with its payload copied out: one copy, whatever [off]
   the frame starts at. *)
let parse b ~off =
  match parse_header b ~off with
  | None -> None
  | Some (ty, conn, port) ->
      let at = off + header_bytes in
      Some (ty, conn, port, Bytes.sub b at (Bytes.length b - at))

type addr = Local of int | Peer of { node : int; port : int }

(* One syscall argument encodes both address forms: the low 16 bits are
   the port, the bits above carry (node + 1) for [Peer] and zero for
   [Local].  [Local port] therefore encodes to exactly [port], keeping
   the wire ABI (and every SFIP profile and cycle golden) of the
   pre-fleet [connect ~port] form. *)
let addr_to_wire = function
  | Local port -> Int64.of_int (port land 0xffff)
  | Peer { node; port } -> Int64.of_int (((node + 1) lsl 16) lor (port land 0xffff))

let addr_of_wire w =
  let w = Int64.to_int w land 0x7fffffff in
  let hi = w lsr 16 and port = w land 0xffff in
  if hi = 0 then Local port else Peer { node = hi - 1; port }

(* Which link a connection lives on: the classic harness wire (the
   paper's dedicated GbE to the load generator) or the fleet fabric,
   in which case we remember the peer node for outbound frames. *)
type link = Wire | Fabric_link of int

type conn_state = {
  inbox : Pipe_dev.t;
  mutable peer_closed : bool;
  port : int;
  link : link;
}

type listener = { backlog : int Queue.t; wq : Waitq.t }

type fabric = { node : int; fnic : Nic.t; pump : unit -> unit }

type t = {
  nic : Nic.t;
  kmem : Kmem.t;
  listeners : (int, listener) Hashtbl.t;
  conns : (int, conn_state) Hashtbl.t;
  mutable fabric : fabric option;
}

let create ~kmem nic =
  { nic; kmem; listeners = Hashtbl.create 8; conns = Hashtbl.create 32; fabric = None }

let attach_fabric t ~node fnic ~pump = t.fabric <- Some { node; fnic; pump }
let node_id t = Option.map (fun f -> f.node) t.fabric

let fabric_frame ~peer inner =
  let b = Bytes.create (4 + Bytes.length inner) in
  Bytes.set_int32_le b 0 (Int32.of_int peer);
  Bytes.blit inner 0 b 4 (Bytes.length inner);
  b

let transmit_on t link fr =
  match link with
  | Wire -> Nic.transmit t.nic fr
  | Fabric_link peer -> (
      match t.fabric with
      | None -> () (* fabric detached: frame drops on the floor *)
      | Some f -> Nic.transmit f.fnic (fabric_frame ~peer fr))

let listen t ~port =
  if Hashtbl.mem t.listeners port then Error Errno.EEXIST
  else begin
    Hashtbl.replace t.listeners port
      { backlog = Queue.create (); wq = Waitq.create ~name:(Printf.sprintf "listen:%d" port) };
    Ok ()
  end

(* Demux one parsed frame into inboxes/accept queues.  [link] records
   where an inbound SYN came from so replies go back the same way. *)
let deliver t ~link (ty, conn, port, payload) =
  if ty = ty_syn then begin
    match Hashtbl.find_opt t.listeners port with
    | None -> () (* connection refused: silently dropped *)
    | Some l ->
        let state =
          { inbox = Pipe_dev.create ~capacity:(1 lsl 22) (); peer_closed = false; port; link }
        in
        Pipe_dev.add_reader state.inbox;
        Pipe_dev.add_writer state.inbox;
        Hashtbl.replace t.conns conn state;
        Queue.push conn l.backlog;
        Waitq.wake l.wq
  end
  else begin
    match Hashtbl.find_opt t.conns conn with
    | None -> ()
    | Some state ->
        if ty = ty_fin then begin
          state.peer_closed <- true;
          (* Sleepers must observe the EOF edge. *)
          Waitq.wake (Pipe_dev.read_wq state.inbox)
        end
        else ignore (Pipe_dev.write state.inbox payload)
  end

let poll t =
  let continue = ref true in
  while !continue do
    match Nic.receive t.nic with
    | None -> continue := false
    | Some raw -> (
        (* Interrupt handler + demux are instrumented kernel code. *)
        Kmem.fn_entry t.kmem;
        Kmem.work t.kmem 20;
        match parse raw ~off:0 with
        | None -> ()
        | Some fr -> deliver t ~link:Wire fr)
  done;
  match t.fabric with
  | None -> ()
  | Some f ->
      (* Let the switch forward anything queued on other nodes, then
         drain our fabric port.  The 4-byte header now names the frame's
         source node (the switch rewrote it in flight). *)
      f.pump ();
      let continue = ref true in
      while !continue do
        match Nic.receive f.fnic with
        | None -> continue := false
        | Some raw ->
            Kmem.fn_entry t.kmem;
            Kmem.work t.kmem 20;
            if Bytes.length raw > 4 then begin
              let src = Int32.to_int (Bytes.get_int32_le raw 0) in
              match parse raw ~off:4 with
              | None -> ()
              | Some fr -> deliver t ~link:(Fabric_link src) fr
            end
      done

let accept t ~port =
  poll t;
  Kmem.work t.kmem 15;
  match Hashtbl.find_opt t.listeners port with
  | None -> None
  | Some l -> if Queue.is_empty l.backlog then None else Some (Queue.pop l.backlog)

(* Non-consuming readiness queries (the poll syscall's view).  They
   drain the NIC first — the driver's interrupt handler runs whenever
   the kernel looks at the network — but never pop a backlog entry or
   inbox byte. *)

let pending_accept t ~port =
  poll t;
  Kmem.work t.kmem 5;
  match Hashtbl.find_opt t.listeners port with
  | None -> false
  | Some l -> not (Queue.is_empty l.backlog)

let conn_readable t ~conn =
  poll t;
  Kmem.work t.kmem 5;
  match Hashtbl.find_opt t.conns conn with
  | None -> true (* a dead descriptor is "ready": reads report the error *)
  | Some state -> Pipe_dev.bytes_available state.inbox > 0 || state.peer_closed

let listen_wq t ~port =
  match Hashtbl.find_opt t.listeners port with
  | None -> None
  | Some l -> Some l.wq

let conn_wq t ~conn =
  match Hashtbl.find_opt t.conns conn with
  | None -> None
  | Some state -> Some (Pipe_dev.read_wq state.inbox)

let send t ~conn fr =
  if Bytes.length fr < header_bytes then invalid_arg "Netstack.send: no header room";
  Kmem.work t.kmem 25;
  match Hashtbl.find_opt t.conns conn with
  | None -> Error Errno.EBADF
  | Some state ->
      write_header fr ~ty:ty_data ~conn ~port:state.port;
      transmit_on t state.link fr;
      Ok (Bytes.length fr - header_bytes)

let recv t ~conn n =
  poll t;
  Kmem.work t.kmem 25;
  match Hashtbl.find_opt t.conns conn with
  | None -> Error Errno.EBADF
  | Some state -> (
      match Pipe_dev.read state.inbox n with
      | Ok b when Bytes.length b = 0 && not state.peer_closed -> Error Errno.EAGAIN
      | Error Errno.EAGAIN when state.peer_closed -> Ok Bytes.empty
      | r -> r)

let next_outbound = ref 5000

let connect_link t ~link ~port =
  incr next_outbound;
  let conn = !next_outbound in
  let state =
    { inbox = Pipe_dev.create ~capacity:(1 lsl 22) (); peer_closed = false; port; link }
  in
  Pipe_dev.add_reader state.inbox;
  Pipe_dev.add_writer state.inbox;
  Hashtbl.replace t.conns conn state;
  Kmem.work t.kmem 30;
  transmit_on t link (frame ~ty:ty_syn ~conn ~port Bytes.empty);
  conn

let connect t ~port = connect_link t ~link:Wire ~port

let connect_to t addr =
  match addr with
  | Local port -> Ok (connect t ~port)
  | Peer { node; port } -> (
      match t.fabric with
      | None -> Error Errno.ECONNREFUSED (* no fabric: the peer is unreachable *)
      | Some _ -> Ok (connect_link t ~link:(Fabric_link node) ~port))

let close t ~conn =
  match Hashtbl.find_opt t.conns conn with
  | None -> ()
  | Some state ->
      transmit_on t state.link (frame ~ty:ty_fin ~conn ~port:state.port Bytes.empty);
      (* Local sleepers on this connection observe the close. *)
      Waitq.wake (Pipe_dev.read_wq state.inbox);
      Hashtbl.remove t.conns conn

module Remote = struct
  type endpoint = {
    nic : Nic.t;
    conn : int;
    port : int;
    stash : bytes Queue.t; (* whole data frames for us, popped out of order *)
  }

  let next_conn = ref 1000

  (* Live endpoints by connection id (ids are globally unique), so a
     frame popped off the shared NIC queue by one endpoint can be
     delivered to the sibling it belongs to instead of being lost —
     concurrent connections interleave their frames arbitrarily. *)
  let by_conn : (int, endpoint) Hashtbl.t = Hashtbl.create 32

  let stash_for ~conn raw =
    match Hashtbl.find_opt by_conn conn with
    | Some other -> Queue.push raw other.stash
    | None -> () (* connection closed: drop *)

  let payload raw = Bytes.sub raw header_bytes (Bytes.length raw - header_bytes)

  let connect nic ~port =
    incr next_conn;
    let conn = !next_conn in
    Nic.transmit nic (frame ~ty:ty_syn ~conn ~port Bytes.empty);
    let ep = { nic; conn; port; stash = Queue.create () } in
    Hashtbl.replace by_conn conn ep;
    ep

  let rec accept nic =
    match Nic.receive nic with
    | None -> None
    | Some raw -> (
        match parse_header raw ~off:0 with
        | Some (ty, conn, port) when ty = ty_syn ->
            let ep = { nic; conn; port; stash = Queue.create () } in
            Hashtbl.replace by_conn conn ep;
            Some ep
        | Some (ty, conn, _) when ty = ty_data ->
            stash_for ~conn raw;
            accept nic
        | _ -> accept nic (* stale FIN from a closed connection *))

  let send ep payload = Nic.transmit ep.nic (frame ~ty:ty_data ~conn:ep.conn ~port:ep.port payload)

  (* One frame off the wire: a data frame for [ep] is [Mine]; a
     sibling's data frame goes to its stash and anything else is
     dropped ([Other]). *)
  type wire = Empty | Mine of bytes | Other

  let take_wire ep =
    match Nic.receive ep.nic with
    | None -> Empty
    | Some raw -> (
        match parse_header raw ~off:0 with
        | Some (ty, conn, _) when conn = ep.conn && ty = ty_data -> Mine raw
        | Some (ty, conn, _) when ty = ty_data ->
            stash_for ~conn raw;
            Other
        | _ -> Other)

  let rec recv ep =
    if not (Queue.is_empty ep.stash) then Some (payload (Queue.pop ep.stash))
    else begin
      match take_wire ep with
      | Empty -> None
      | Mine raw -> Some (payload raw)
      | Other -> recv ep
    end

  (* Drain the wire into the stash, then size one buffer from the
     queued frames and blit each payload into it. *)
  let recv_all_available ep =
    let rec drain () =
      match take_wire ep with
      | Empty -> ()
      | Mine raw ->
          Queue.push raw ep.stash;
          drain ()
      | Other -> drain ()
    in
    drain ();
    let total = Queue.fold (fun n raw -> n + Bytes.length raw - header_bytes) 0 ep.stash in
    let out = Bytes.create total in
    let pos = ref 0 in
    Queue.iter
      (fun raw ->
        let n = Bytes.length raw - header_bytes in
        Bytes.blit raw header_bytes out !pos n;
        pos := !pos + n)
      ep.stash;
    Queue.clear ep.stash;
    out

  let close ep =
    Hashtbl.remove by_conn ep.conn;
    Nic.transmit ep.nic (frame ~ty:ty_fin ~conn:ep.conn ~port:ep.port Bytes.empty)
  let conn_id ep = ep.conn
end
