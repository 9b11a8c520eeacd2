(* N nodes wired NIC-to-NIC through a software switch.

   Each node keeps its classic harness wire (the per-machine
   [Machine.remote_nic] pair the load generator speaks on) untouched —
   that wire's frame format and charges are golden-pinned.  Fabric
   traffic rides a second, dedicated [Nic.pair] per node: the near end
   is handed to the node's netstack ([Netstack.attach_fabric]), the far
   end is the switch port.  The switch itself is zero-cost plain code;
   wire time is charged by each fabric NIC on transmit, exactly like
   the harness wire.

   The switch is stateless: every node names its outbound connections
   from the fleet's one allocator ([conn_ids]), so no two connections
   reaching a node over the fabric share an id, and forwarding needs
   only the 4-byte destination-node header, which it rewrites to the
   source node in flight. *)

type mixed_stats = { postmark_tx : int; ssh_ok : bool }

type node_state = {
  mutable node : Node.t;
  mutable switch_port : Nic.t;
  stats : Obs_stats.t;  (* accumulates across restarts *)
  security : string list ref;  (* cleared on restart: a re-imaged node is clean *)
  mutable restarts : int;
  mutable last_mixed : mixed_stats option;
  mutable pending_mixed : (unit -> mixed_stats) option;
}

type t = {
  config : Node_config.t;
  lb : Lb.t;
  nodes : node_state array;
  wire_log : Buffer.t;  (* every frame the switch forwarded, verbatim *)
  conn_ids : Netstack.ids;  (* every node's kernel connection ids *)
  mutable listening : int list;
  mutable www_files : (string * bytes) list;
}

let size t = Array.length t.nodes
let node t i = t.nodes.(i).node
let lb t = t.lb
let security_events t i = List.rev !(t.nodes.(i).security)
let restarts t i = t.nodes.(i).restarts
let stats t i = t.nodes.(i).stats
let last_mixed t i = t.nodes.(i).last_mixed

let security_sink cell =
  {
    Obs.name = "fleet-security";
    on_charge = (fun ~cycles:_ _ _ -> ());
    on_event =
      (fun ~cycles:_ ev ->
        if Obs.Event.is_security ev then cell := Obs.Event.describe ev :: !cell);
  }

(* Forward everything queued on any switch port.  Runs from every
   node's [Netstack.poll], so frames route whenever any kernel looks
   at its network. *)
let pump t =
  Array.iteri
    (fun src st ->
      let continue = ref true in
      while !continue do
        match Nic.receive st.switch_port with
        | None -> continue := false
        | Some raw ->
            if Bytes.length raw > 4 then begin
              let dst = Int32.to_int (Bytes.get_int32_le raw 0) in
              if dst >= 0 && dst < Array.length t.nodes then begin
                Buffer.add_bytes t.wire_log raw;
                Bytes.set_int32_le raw 0 (Int32.of_int src);
                Nic.transmit t.nodes.(dst).switch_port raw
              end
            end
      done)
    t.nodes

(* Node [i] boots with seed "<seed>-n<i>" and a private hub carrying
   its stats sink and security log (see fleet.mli). *)
let boot_node config i ~stats ~security =
  let obs = Obs.create () in
  Obs.attach obs (Obs_stats.sink stats);
  Obs.attach obs (security_sink security);
  Node.boot
    (config
    |> Node_config.with_seed (Printf.sprintf "%s-n%d" config.Node_config.seed i)
    |> Node_config.with_obs obs)

(* (Re)wire node [i]'s fabric: fresh NIC pair, near end into the
   node's netstack, far end as our switch port.  Wire time charges the
   node's own clock, like its harness NIC. *)
let wire t i =
  let st = t.nodes.(i) in
  let m = Node.machine st.node in
  let near, far = Nic.pair ~charge:(Machine.charge ~tag:Obs.Tag.Net m) () in
  Netstack.attach_fabric (Node.net st.node) near ~pump:(fun () -> pump t) ~ids:t.conn_ids;
  st.switch_port <- far

let apply_node_setup t i =
  let st = t.nodes.(i) in
  List.iter
    (fun port ->
      match Node.listen st.node ~port with Ok () | Error _ -> ())
    (List.rev t.listening);
  List.iter
    (fun (path, data) ->
      match Node.www st.node ~path data with Ok () | Error _ -> ())
    (List.rev t.www_files)

let create ?(policy = Lb.Round_robin) ~nodes:n config =
  if n < 1 then invalid_arg "Fleet.create: nodes < 1";
  let mk_state i =
    let stats = Obs_stats.create () in
    let security = ref [] in
    let node = boot_node config i ~stats ~security in
    let dummy, _ = Nic.pair () in
    {
      node;
      switch_port = dummy;
      stats;
      security;
      restarts = 0;
      last_mixed = None;
      pending_mixed = None;
    }
  in
  let t =
    {
      config;
      lb = Lb.create ~nodes:n policy;
      nodes = Array.init n mk_state;
      wire_log = Buffer.create 4096;
      conn_ids = Netstack.kernel_ids ();
      listening = [];
      www_files = [];
    }
  in
  Array.iteri (fun i _ -> wire t i) t.nodes;
  t

let restart_node t i =
  let st = t.nodes.(i) in
  Lb.set_up t.lb i false;
  st.security := [];
  st.node <- boot_node t.config i ~stats:st.stats ~security:st.security;
  st.restarts <- st.restarts + 1;
  wire t i;
  apply_node_setup t i;
  Lb.set_up t.lb i true

let listen_all t ~port =
  if not (List.mem port t.listening) then t.listening <- port :: t.listening;
  Array.iteri (fun i _ -> ignore (Node.listen t.nodes.(i).node ~port)) t.nodes

let setup_www t ~path data =
  t.www_files <- (path, data) :: t.www_files;
  Array.iter
    (fun st ->
      match Node.www st.node ~path data with Ok () | Error _ -> ())
    t.nodes

(* Quarantine any node whose kernel raised Security events since its
   last clean boot; returns the quarantined ids with their event
   counts. *)
let check_health t =
  let bad = ref [] in
  Array.iteri
    (fun i st ->
      let events = List.length !(st.security) in
      if events > 0 && Lb.is_up t.lb i then begin
        Lb.set_up t.lb i false;
        bad := (i, events) :: !bad
      end)
    t.nodes;
  List.rev !bad

(* -------------------------------------------------------------- *)
(* Serving: one wave = assign every request through the balancer,
   pre-connect each client on its target node's harness wire, then run
   every node's event-loop server.  The nodes are separate machines
   running concurrently in wall time, so the wave's elapsed time is
   the slowest node's serving window. *)

type node_report = {
  node_id : int;
  assigned : int;
  served : int;
  ok : int;
  elapsed_cycles : int;
  security_events : int;
}

type wave = {
  requests : int;
  dropped : int;  (* no admitted node was available *)
  ok : int;
  elapsed_cycles : int;  (* max over serving nodes *)
  per_node : node_report array;
}

let wave_rps w =
  let s = Cost.to_seconds w.elapsed_cycles in
  if s > 0.0 then float_of_int w.ok /. s else 0.0

let report_rps (r : node_report) =
  let s = Cost.to_seconds r.elapsed_cycles in
  if s > 0.0 then float_of_int r.ok /. s else 0.0

(* Mixed load sharing the serving scheduler: a ghosting Postmark fiber
   plus an ssh-keygen/load round through the signed-image app-key
   chain, per node. *)
let mixed_background t i sched =
  let st = t.nodes.(i) in
  let k = Node.kernel st.node in
  let pm_tx = ref 0 and ssh_ok = ref false in
  let app_key = Bytes.init 16 (fun j -> Char.chr (0x5a lxor j)) in
  let _ssh, keygen_img, _agent = Ssh_suite.install_images k ~app_key in
  let pm_config =
    { Postmark.paper_config with base_files = 8; transactions = 40; seed = 11 }
  in
  ignore
    (Runtime.spawn_fiber k sched ~ghosting:true ~name:"fleet-postmark"
       (fun ctx ->
         match Postmark.run ctx pm_config with
         | Ok _ -> pm_tx := pm_config.Postmark.transactions
         | Error _ -> ()));
  ignore
    (Runtime.spawn_fiber k sched ~image:keygen_img ~ghosting:true
       ~name:"fleet-keygen" (fun ctx ->
         match Ssh_suite.keygen ctx ~path:"/fleet-key" with
         | Error _ -> ()
         | Ok () -> (
             match Ssh_suite.load_private_key ctx ~path:"/fleet-key" with
             | Ok _ -> ssh_ok := true
             | Error _ -> ())));
  st.pending_mixed <-
    Some (fun () -> { postmark_tx = !pm_tx; ssh_ok = !ssh_ok })

let serve_wave ?(batch = 8) ?(mixed = false) t ~port ~path ~requests =
  let n = Array.length t.nodes in
  let eps = Array.make n [] in
  let assigned = Array.make n 0 in
  let dropped = ref 0 in
  for _ = 1 to requests do
    match Lb.assign t.lb with
    | None -> incr dropped
    | Some i ->
        assigned.(i) <- assigned.(i) + 1;
        let m = Node.machine t.nodes.(i).node in
        Machine.charge m Cost.tcp_handshake;
        let ep = Netstack.Remote.connect m ~port in
        Netstack.Remote.send ep
          (Bytes.of_string (Printf.sprintf "GET %s HTTP/1.0\r\n" path));
        eps.(i) <- ep :: eps.(i)
  done;
  let per_node =
    Array.mapi
      (fun i st ->
        let base_security = List.length !(st.security) in
        if assigned.(i) = 0 then
          {
            node_id = i;
            assigned = 0;
            served = 0;
            ok = 0;
            elapsed_cycles = 0;
            security_events = base_security;
          }
        else begin
          let stats =
            Httpd.Event_loop.serve ~batch
              ?background:
                (if mixed then Some (fun sched -> mixed_background t i sched)
                 else None)
              (Node.kernel st.node) ~port
          in
          (match st.pending_mixed with
          | None -> ()
          | Some collect ->
              st.last_mixed <- Some (collect ());
              st.pending_mixed <- None);
          let ok =
            List.fold_left
              (fun acc ep ->
                let raw = Netstack.Remote.recv_all_available ep in
                Netstack.Remote.close ep;
                if Httpd.status_ok raw then acc + 1 else acc)
              0 eps.(i)
          in
          for _ = 1 to assigned.(i) do
            Lb.complete t.lb i
          done;
          {
            node_id = i;
            assigned = assigned.(i);
            served = stats.Httpd.Event_loop.served;
            ok;
            elapsed_cycles = stats.Httpd.Event_loop.elapsed_cycles;
            security_events = List.length !(st.security);
          }
        end)
      t.nodes
  in
  let ok =
    Array.fold_left (fun acc (r : node_report) -> acc + r.ok) 0 per_node
  in
  let elapsed =
    Array.fold_left
      (fun acc (r : node_report) -> max acc r.elapsed_cycles)
      0 per_node
  in
  { requests; dropped = !dropped; ok; elapsed_cycles = elapsed; per_node }

(* -------------------------------------------------------------- *)
(* Rolling restart: for each node in turn, let the balancer assign a
   full wave (the node's share becomes its in-flight work), stop
   admitting new work to it, let it finish — nothing in flight is
   dropped — then reboot and re-admit it.  The drain latency is the
   time the node took to clear its in-flight backlog. *)

type restart_report = {
  waves : wave list;  (* one per drained node, then one full-strength *)
  total_requests : int;
  total_ok : int;
  total_dropped : int;
  drain_latency_cycles : int array;
}

let rolling_restart ?(batch = 8) t ~port ~path ~requests_per_wave =
  let n = Array.length t.nodes in
  let drain = Array.make n 0 in
  let waves = ref [] in
  for r = 0 to n - 1 do
    (* Assignment happens inside serve_wave; mark the node as draining
       only for *future* waves — its current assignments are the
       in-flight work it must finish.  serve_wave assigns before any
       node serves, so drain the node right after by serving with it
       marked down for admission but still completing its batch. *)
    let wave = serve_wave ~batch t ~port ~path ~requests:requests_per_wave in
    drain.(r) <- wave.per_node.(r).elapsed_cycles;
    restart_node t r;
    waves := wave :: !waves
  done;
  let final = serve_wave ~batch t ~port ~path ~requests:requests_per_wave in
  waves := final :: !waves;
  let waves = List.rev !waves in
  {
    waves;
    total_requests = List.fold_left (fun a w -> a + w.requests) 0 waves;
    total_ok = List.fold_left (fun a w -> a + w.ok) 0 waves;
    total_dropped = List.fold_left (fun a w -> a + w.dropped) 0 waves;
    drain_latency_cycles = drain;
  }

(* -------------------------------------------------------------- *)
(* Cross-node key distribution over the fabric.

   Both nodes' ssh images carry the same application key — the
   trusted-administrator provisioning step of the paper's TPM→VG→app
   chain; each process recovers it through the VM at execve
   ([Runtime.get_app_key]), never through the OS.  The holder node
   generates an authentication key (sealed on its disk), serves it
   over the fabric inside a [Ctr.seal] envelope under the app key, and
   the receiving node re-seals it at rest through [Sealed_store].  The
   switch's wire log lets callers verify the key's plaintext never
   crossed the fabric. *)

type key_transfer = {
  delivered : bool;
  key_len : int;
  plaintext_on_wire : bool;
  sealed_at_rest : bool;
  reload_ok : bool;
}

let bytes_contains hay needle =
  let nh = Bytes.length hay and nn = Bytes.length needle in
  if nn = 0 || nn > nh then false
  else begin
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i <= nh - nn do
      if Bytes.sub hay !i nn = needle then found := true else incr i
    done;
    !found
  end

let wire_log_contains t needle = bytes_contains (Buffer.to_bytes t.wire_log) needle

let distribute_key ?(port = 2022) ?(path = "/fleet-id") t ~src ~dst =
  let src_node = t.nodes.(src).node and dst_node = t.nodes.(dst).node in
  let ks = Node.kernel src_node and kd = Node.kernel dst_node in
  let app_key = Bytes.init 16 (fun i -> Char.chr (0xa0 lxor (i * 7 land 0xff))) in
  let ssh_src, keygen_src, _ = Ssh_suite.install_images ks ~app_key in
  let ssh_dst, _, _ = Ssh_suite.install_images kd ~app_key in
  (* 1. The holder generates its authentication key (sealed at rest). *)
  Node.launch src_node ~image:keygen_src ~ghosting:true (fun ctx ->
      match Ssh_suite.keygen ctx ~path with
      | Ok () -> ()
      | Error e -> failwith ("fleet keygen: " ^ Errno.to_string e));
  let sent_key = ref Bytes.empty in
  let recv_key = ref Bytes.empty in
  let server () =
    Node.launch src_node ~image:ssh_src ~ghosting:true (fun ctx ->
        let proc = ctx.Runtime.proc in
        let listen_fd =
          match Syscalls.listen ks proc ~port with
          | Ok fd -> fd
          | Error e -> failwith ("fleet listen: " ^ Errno.to_string e)
        in
        let key =
          match Ssh_suite.load_private_key ctx ~path with
          | Ok (va, len) -> Runtime.peek ctx va len
          | Error e -> failwith ("fleet load key: " ^ e)
        in
        sent_key := key;
        let conn_fd =
          Coop.retry (fun () ->
              match Syscalls.accept ks proc ~fd:listen_fd with
              | Ok fd -> Some fd
              | Error Errno.EAGAIN -> None
              | Error e -> failwith ("fleet accept: " ^ Errno.to_string e))
        in
        let nonce = Runtime.vg_random ctx 8 in
        let sealed =
          Vg_crypto.Ctr.seal ~key:(Option.get (Runtime.get_app_key ctx)) ~nonce
            key
        in
        let msg =
          Bytes.concat Bytes.empty
            [
              (let b = Bytes.create 4 in
               Bytes.set_int32_le b 0 (Int32.of_int (Bytes.length key));
               b);
              nonce;
              sealed;
            ]
        in
        let buf = Runtime.galloc ctx (Bytes.length msg) in
        Runtime.poke ctx buf msg;
        (match Runtime.sys_send ctx ~fd:conn_fd ~buf ~len:(Bytes.length msg) with
        | Ok _ -> ()
        | Error e -> failwith ("fleet send: " ^ Errno.to_string e));
        ignore (Runtime.sys_close ctx conn_fd))
  in
  let client () =
    Node.launch dst_node ~image:ssh_dst ~ghosting:true (fun ctx ->
        let proc = ctx.Runtime.proc in
        let fd =
          match
            Syscalls.connect_to kd proc (Netstack.Peer { node = src; port })
          with
          | Ok fd -> fd
          | Error e -> failwith ("fleet connect: " ^ Errno.to_string e)
        in
        let buf = Runtime.galloc ctx 4096 in
        let received = Buffer.create 256 in
        let want_header = 12 in
        let rec recv_until want =
          if Buffer.length received < want then begin
            (match Runtime.sys_recv ctx ~fd ~buf ~len:4096 with
            | Ok 0 -> failwith "fleet recv: peer closed early"
            | Ok got -> Buffer.add_bytes received (Runtime.peek ctx buf got)
            | Error Errno.EAGAIN -> Coop.yield ()
            | Error e -> failwith ("fleet recv: " ^ Errno.to_string e));
            recv_until want
          end
        in
        recv_until want_header;
        let hdr = Buffer.to_bytes received in
        let key_len = Int32.to_int (Bytes.get_int32_le hdr 0) in
        let total = 4 + 8 + key_len + Vg_crypto.Ctr.tag_size in
        recv_until total;
        let all = Buffer.to_bytes received in
        let nonce = Bytes.sub all 4 8 in
        let sealed = Bytes.sub all 12 (key_len + Vg_crypto.Ctr.tag_size) in
        let key =
          match
            Vg_crypto.Ctr.open_
              ~key:(Option.get (Runtime.get_app_key ctx))
              ~nonce sealed
          with
          | Some k -> k
          | None -> failwith "fleet: transfer envelope tampered"
        in
        recv_key := key;
        (match Sealed_store.save ctx ~path:(path ^ ".imported") key with
        | Ok () -> ()
        | Error e ->
            failwith
              (Format.asprintf "fleet sealed save: %a" Sealed_store.pp_error e));
        ignore (Runtime.sys_close ctx fd))
  in
  Coop.interleave [ server; client ];
  let delivered =
    Bytes.length !sent_key > 0 && Bytes.equal !sent_key !recv_key
  in
  let plaintext_on_wire = wire_log_contains t !sent_key in
  let sealed_at_rest =
    match Diskfs.lookup kd.Kernel.fs (path ^ ".imported") with
    | Error _ -> false
    | Ok ino -> (
        match Diskfs.stat kd.Kernel.fs ~ino with
        | Error _ -> false
        | Ok st -> (
            match Diskfs.read kd.Kernel.fs ~ino ~off:0 ~len:st.Diskfs.size with
            | Error _ -> false
            | Ok raw -> not (bytes_contains raw !sent_key)))
  in
  let reload_ok =
    Node.launch dst_node ~image:ssh_dst ~ghosting:true (fun ctx ->
        match Sealed_store.load ctx ~path:(path ^ ".imported") with
        | Ok k -> Bytes.equal k !sent_key
        | Error _ -> false)
  in
  {
    delivered;
    key_len = Bytes.length !sent_key;
    plaintext_on_wire;
    sealed_at_rest;
    reload_ok;
  }
