(** A simulated cluster: N {!Node}s wired NIC-to-NIC through a
    software switch, fronted by a {!Lb} balancer fanning requests out
    to event-loop {!Httpd} backends.

    Each node keeps the classic harness wire (its
    [Machine.remote_nic]) for clients; cross-node traffic rides a
    dedicated fabric {!Nic.pair} per node, so the historical wire
    format — and every cycle golden over it — is untouched.  The
    switch is stateless and zero-cost: every node names its outbound
    connections from one fleet-owned allocator, so ids reaching a node
    over the fabric from different peers never coincide.  Wire time is
    charged by the fabric NICs on transmit.

    Observability is per node, because a hostile backend's [Security]
    events must be attributed to it: the fleet boots each node with a
    private {!Obs.t} of its own making, carrying an {!Obs_stats} sink
    (accumulating across restarts) and a security-event log (cleared
    when the node is re-imaged).  The config's [obs] is not used. *)

type t

val create : ?policy:Lb.policy -> nodes:int -> Node_config.t -> t
(** Boot [nodes] nodes from the config ([policy] defaults to
    round-robin).  Node [i] gets seed ["<seed>-n<i>"]. *)

val size : t -> int
val node : t -> int -> Node.t
val lb : t -> Lb.t

val pump : t -> unit
(** Forward every frame queued on any switch port.  Called
    automatically from each node's [Netstack.poll]; exposed for
    tests. *)

val listen_all : t -> port:int -> unit
(** Open a listener on every node (remembered and re-applied when a
    node restarts). *)

val setup_www : t -> path:string -> bytes -> unit
(** Create the document on every node's file system (remembered and
    re-applied on restart). *)

val restart_node : t -> int -> unit
(** Reboot node [i] from the fleet config — fresh machine, kernel and
    file system, listeners and documents re-applied, security log
    cleared — and re-admit it to the balancer. *)

val check_health : t -> (int * int) list
(** Quarantine (drain) every admitted node whose kernel has raised
    [Security] events since its last clean boot; returns
    [(node, event_count)] for each node quarantined by this call. *)

(** {1 Per-node observability} *)

val security_events : t -> int -> string list
val restarts : t -> int -> int

type mixed_stats = { postmark_tx : int; ssh_ok : bool }

val last_mixed : t -> int -> mixed_stats option
(** Results of the background mixed load from the node's most recent
    [~mixed:true] wave. *)

(** {1 Serving} *)

type node_report = {
  node_id : int;
  assigned : int;  (** requests the balancer sent here *)
  served : int;  (** connections the event loop handled *)
  ok : int;  (** clients that got a [200] *)
  elapsed_cycles : int;  (** this node's serving window *)
  security_events : int;  (** cumulative since last clean boot *)
}

type wave = {
  requests : int;
  dropped : int;  (** requests no admitted node could take *)
  ok : int;
  elapsed_cycles : int;  (** max over nodes: the wall-clock window *)
  per_node : node_report array;
}

val wave_rps : wave -> float
val report_rps : node_report -> float

val serve_wave :
  ?batch:int -> ?mixed:bool -> t -> port:int -> path:string -> requests:int ->
  wave
(** Assign [requests] through the balancer, pre-connect each client on
    its target node's harness wire, then run every assigned node's
    event-loop server ({!Httpd.Event_loop.serve}).  [~mixed:true] adds
    the background mixed load (ghosting Postmark + ssh keygen/load
    through the app-key chain) to every serving node's scheduler. *)

(** {1 Rolling restart} *)

type restart_report = {
  waves : wave list;  (** one per drained node, then one full-strength *)
  total_requests : int;
  total_ok : int;
  total_dropped : int;
  drain_latency_cycles : int array;
      (** per node: cycles it took to clear its in-flight share before
          rebooting *)
}

val rolling_restart :
  ?batch:int -> t -> port:int -> path:string -> requests_per_wave:int ->
  restart_report
(** For each node in turn: serve a wave (the node's share is its
    in-flight work), let it finish — nothing in flight is dropped —
    then reboot and re-admit it; finally serve one more wave at full
    strength. *)

(** {1 Cross-node key distribution} *)

type key_transfer = {
  delivered : bool;  (** the key arrived bit-exact *)
  key_len : int;
  plaintext_on_wire : bool;
      (** the key's raw bytes appeared in a forwarded fabric frame —
          must be [false] *)
  sealed_at_rest : bool;
      (** the stored copy on the destination disk does not contain the
          plaintext *)
  reload_ok : bool;  (** a fresh process reloads it through {!Sealed_store} *)
}

val distribute_key : ?port:int -> ?path:string -> t -> src:int -> dst:int ->
  key_transfer
(** The TPM→VG→app-key chain, fleet edition: node [src] generates an
    authentication key with the ghosting ssh-keygen (sealed on its
    disk), serves it over the fabric inside a [Ctr.seal] envelope
    under the shared application key, and node [dst] re-seals it at
    rest via {!Sealed_store}.  Both ends recover the application key
    through the VM from their signed images, never from the OS. *)

val wire_log_contains : t -> bytes -> bool
(** Did these exact bytes cross the fabric in any forwarded frame?
    (The switch logs every frame verbatim.) *)
