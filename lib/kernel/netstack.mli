(** A minimal connection-oriented network stack over the simulated NIC.

    Frames carry a one-byte type (SYN / DATA / FIN), a connection id and
    a port.  The kernel side demultiplexes received frames into
    per-connection inboxes and listener accept queues; {!module:Remote}
    is the matching client-side library the benchmark harness uses to
    play the iMac on the other end of the paper's dedicated gigabit
    link.  Wire time is charged by the NIC on transmit.

    A second, optional link class is the {e fleet fabric}: a dedicated
    NIC pair per node wired into a software switch
    ({!Vg_fleet.Fleet}).  Fabric frames prepend a 4-byte peer-node
    header to the ordinary frame; the classic wire format — and every
    cycle golden that depends on it — is untouched.  Both destinations
    are named by one {!addr} type so applications never special-case
    cross-node peers. *)

type t

(** {1 Addresses}

    The unified destination type: [Local port] is a listener on this
    machine's harness wire (the historical [connect ~port] path);
    [Peer {node; port}] is a listener on another fleet node reached
    over the fabric. *)

type addr = Local of int | Peer of { node : int; port : int }

val addr_to_wire : addr -> int64
(** Encode an address into one syscall argument: low 16 bits port,
    higher bits [node + 1] (zero for [Local]).  [Local port] encodes to
    exactly [port], so the syscall ABI of the pre-fleet form — and every
    SFIP profile over it — is unchanged. *)

val addr_of_wire : int64 -> addr
(** Inverse of {!addr_to_wire}. *)

val create : kmem:Kmem.t -> Nic.t -> t
(** Whoever opens a connection names it: the {!module:Remote} harness
    with odd ids, kernels with even ones from their stack's allocator,
    so the two never coincide on one wire. *)

type ids

val kernel_ids : unit -> ids
(** A fresh allocator of kernel connection ids. *)

val attach_fabric : t -> Nic.t -> pump:(unit -> unit) -> ids:ids -> unit
(** Plug this stack into a fleet fabric: the NIC is our side of a
    dedicated {!Nic.pair} into the switch, and [pump] runs the switch's forwarding loop (called from {!poll}
    before draining the fabric port).  The stack then names its
    connections from [ids], the fleet's one allocator, so ids reaching
    a node from different peers never coincide.  Attach before the
    first connect. *)

val listen : t -> port:int -> unit Errno.result
(** Open a listener; [EEXIST] if the port is taken. *)

val poll : t -> unit
(** Drain the NIC receive queue into inboxes/accept queues (the
    driver's interrupt handler; charged per frame).  With a fabric
    attached, also pumps the switch and drains the fabric port. *)

val accept : t -> port:int -> int option
(** Pop a pending connection id, polling first. *)

(** {1 Readiness (the poll syscall's view)} *)

val pending_accept : t -> port:int -> bool
(** A connection is waiting in the backlog (drains the NIC first;
    consumes nothing). *)

val conn_readable : t -> conn:int -> bool
(** Bytes are buffered or the peer has closed (EOF is readable). *)

val listen_wq : t -> port:int -> Waitq.t option
(** Woken on every SYN demuxed into this port's backlog. *)

val conn_wq : t -> conn:int -> Waitq.t option
(** Woken when data or FIN arrives on the connection. *)

val header_bytes : int
(** Bytes of frame header (type, connection id, port) in front of every
    payload: 9. *)

val send : t -> conn:int -> bytes -> int Errno.result
(** [send t ~conn frame] transmits [frame] on a connection (routed over
    the link — wire or fabric — the connection was made on).  The
    caller builds the frame in place: {!header_bytes} of header room,
    then the payload, so user bytes are copied once, straight into the
    frame; [send] writes the header into that room and returns the
    payload length.  The NIC then takes its one ownership copy
    ({!Nic.transmit}).
    @raise Invalid_argument if [frame] is shorter than the header. *)

val recv : t -> conn:int -> int -> bytes Errno.result
(** Receive up to [n] bytes; [EAGAIN] when none pending and the peer
    has not closed; [Ok empty] after FIN. *)

val close : t -> conn:int -> unit
(** Send FIN and drop local state (pending inbox data is discarded). *)

val connect_to : t -> addr -> int Errno.result
(** Outbound connection to a unified address: allocate a connection id
    and send SYN over the right link.  [Peer _] with no fabric attached
    is [ECONNREFUSED].  [Local port] never fails. *)

(** Client-side endpoint helpers (run "on the other machine"): they
    speak the same frame format directly on the machine's
    {!Machine.remote_nic}, keeping their state in {!Machine.harness}. *)
module Remote : sig
  type endpoint

  val connect : Machine.t -> port:int -> endpoint

  val accept : Machine.t -> endpoint option
  (** Server side of an outbound kernel connection: harvest a SYN
      frame, if one arrived. *)

  val send : endpoint -> bytes -> unit
  val recv : endpoint -> bytes option
  (** Pop the next data frame payload, if any ([None] = nothing yet). *)

  val recv_all_available : endpoint -> bytes
  (** Everything that has arrived for this endpoint, as one buffer.  The
      endpoint stashes whole frames; this drains the wire, sizes one
      buffer from the queued frames and blits each payload into it
      once. *)

  val close : endpoint -> unit
  val conn_id : endpoint -> int
end
