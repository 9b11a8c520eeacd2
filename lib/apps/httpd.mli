(** A thttpd-style static web server (Figure 2's workload).

    Single-process accept loop: parse ["GET <path>"], read the file
    through the file system, answer with a minimal HTTP/1.0 response.
    The server is deliberately {e not} a ghosting application — the
    paper measures the kernel-instrumentation cost on an unmodified
    server. *)

val start : Runtime.ctx -> port:int -> int Errno.result
(** Bind and listen; returns the listening descriptor. *)

val serve_requests : Runtime.ctx -> listen_fd:int -> max:int -> int
(** Handle up to [max] pending connections (one request each, as
    ApacheBench with HTTP/1.0 does); returns how many were served.
    Returns when no further connection is pending. *)

val doc : int -> bytes
(** The benchmark document of [size] bytes: byte [i] is
    [(i * 131) land 0xff], random-looking like the paper's
    [/dev/random] files.  Every harness that serves a document (bench,
    vgsim, the fleet, tests) serves this one. *)

val install_doc : Kernel.t -> path:string -> size:int -> unit
(** Create [path] on the kernel's file system holding [doc size].
    Raises [Failure] if the file system refuses. *)

(** Multi-worker pool: N preemptible worker processes share one
    listening socket (inherited fd) and are spread over the machine's
    cores by {!Sched} — the SMP scaling workload. *)
module Pool : sig
  type stats = {
    workers : int;
    served : int;  (** connections handled *)
    ok : int;  (** clients that got a [200] response *)
    elapsed_cycles : int;
        (** wall-clock of the serving window: max per-core cycle delta *)
    preemptions : int;
    steals : int;
  }

  val run :
    ?ghosting:bool ->
    ?sfip:Syscall_policy.t ->
    Kernel.t ->
    workers:int ->
    requests:int ->
    port:int ->
    path:string ->
    stats
  (** Listen, spawn [workers] fibers pinned round-robin across cores,
      pre-connect [requests] clients (handshakes fall outside the
      measured window), then drive the scheduler until every request
      is served.  [?sfip] attaches a syscall-flow policy to every
      worker (own cursor, shared graph — see {!Runtime.launch}). *)

  val rps : stats -> float
  (** [ok] per simulated second of [elapsed_cycles]; 0 for an empty
      window. *)
end

(** Event-driven server: one single-threaded event loop per core over
    the batched syscall ring ({!Uring}) plus the [poll] readiness
    syscall — the paper's trap-protocol cost amortised across whole
    batches instead of paid per syscall.  Path-argument syscalls
    (open, stat) stay direct traps. *)
module Event_loop : sig
  type stats = {
    cores : int;
    batch : int;  (** SQEs flushed per [ring_enter] *)
    served : int;  (** connections handled *)
    ok : int;  (** clients that got a [200] response *)
    elapsed_cycles : int;
        (** wall-clock of the serving window: max per-core cycle delta *)
    ring_enters : int;  (** ring_enter traps across all cores *)
    sqes : int;  (** submission entries across all cores *)
    polls : int;  (** poll syscalls across all cores *)
    preemptions : int;
    steals : int;
  }

  val serve :
    ?ghosting:bool ->
    ?batch:int ->
    ?sfip:Syscall_policy.t ->
    ?background:(Sched.t -> unit) ->
    Kernel.t ->
    port:int ->
    stats
  (** The measured half of {!run}, for callers — the fleet front-end —
      that manage listeners and clients themselves: [port] must already
      be listening and every client's SYN + request must already sit in
      the NIC queue.  Spawns one event-loop fiber per core, lets
      [background] add extra fibers to the same scheduler (mixed-load
      workloads), resets the clocks and drives until the backlog and
      every accepted connection drain.  [ok] in the result equals
      [served]; callers holding the endpoints overwrite it with the
      verified response count. *)

  val run :
    ?ghosting:bool ->
    ?batch:int ->
    ?sfip:Syscall_policy.t ->
    Kernel.t ->
    requests:int ->
    port:int ->
    path:string ->
    stats
  (** Listen, run one event-loop fiber per core (each with its own
      submission ring of at least [batch] slots), pre-connect
      [requests] clients, then drive the scheduler until the backlog
      and every accepted connection are drained.  [batch] defaults
      to 8.  [?sfip] attaches a syscall-flow policy to every loop
      (own cursor, shared graph): ring batches are vetted whole before
      any entry runs. *)

  val rps : stats -> float
  (** [ok] per simulated second of [elapsed_cycles]; 0 for an empty
      window. *)
end

val status_ok : bytes -> bool
(** The raw response's status line reads 200 (checked in place, without
    copying the response). *)

(** Client half, run on the remote machine by the benchmark harness. *)
module Client : sig
  val get :
    Machine.t -> port:int -> path:string -> (unit -> unit) -> bytes option
  (** [get machine ~port ~path pump] issues one request.  [pump] is
      called to let the (cooperative) server run; returns the response
      body, [None] on failure. *)
end
