(* The fleet subsystem: Node_config builders, the unified connect
   address type, the NIC-to-NIC fabric, the load balancer, serving
   waves, rolling restarts, the hostile-backend quarantine and
   cross-node key distribution. *)

let expect_ok msg = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" msg (Errno.to_string e)

let small_config ~seed =
  Node_config.(
    default |> with_phys_frames 8192 |> with_disk_sectors 8192
    |> with_seed seed)

(* ------------------------------------------------------------------ *)
(* Node_config builders                                                *)

let test_config_builders () =
  let c = Node_config.default in
  Alcotest.(check int) "default cpus" 1 c.Node_config.cpus;
  Alcotest.(check int) "default frames" 32768 c.Node_config.phys_frames;
  Alcotest.(check int) "default sectors" 65536 c.Node_config.disk_sectors;
  Alcotest.(check int) "default depth" 0 c.Node_config.spec_depth;
  Alcotest.(check bool) "default obs" true (c.Node_config.obs = None);
  Alcotest.(check bool) "default limit" true (c.Node_config.frame_limit = None);
  let c =
    Node_config.(
      default |> with_cpus 4 |> with_mode Sva.Native_build
      |> with_frame_limit 512 |> with_seed "x" |> with_spec_depth 8)
  in
  Alcotest.(check int) "cpus" 4 c.Node_config.cpus;
  Alcotest.(check bool) "mode" true (c.Node_config.mode = Sva.Native_build);
  Alcotest.(check bool) "limit" true (c.Node_config.frame_limit = Some 512);
  Alcotest.(check string) "seed" "x" c.Node_config.seed;
  Alcotest.(check int) "depth" 8 c.Node_config.spec_depth;
  Alcotest.(check string) "describe"
    "native cpus=4 frames=32768 depth=8 mitigation=off frame_limit=512"
    (Node_config.describe c)

(* The historical port-only connect and the unified Local address take
   the same path, bit for bit. *)
let test_connect_local_parity () =
  let cycles use_addr =
    let k =
      Node.kernel (Node.boot (small_config ~seed:"parity"))
    in
    Runtime.launch k ~ghosting:false (fun ctx ->
        let proc = ctx.Runtime.proc in
        let fd =
          if use_addr then
            expect_ok "connect_to" (Syscalls.connect_to k proc (Netstack.Local 7070))
          else expect_ok "connect" (Syscalls.connect k proc ~port:7070)
        in
        ignore fd);
    Machine.cycles k.Kernel.machine
  in
  Alcotest.(check int) "same cycles" (cycles false) (cycles true)

(* ------------------------------------------------------------------ *)
(* Address codec                                                       *)

let test_addr_codec () =
  let roundtrip a = Netstack.addr_of_wire (Netstack.addr_to_wire a) in
  Alcotest.(check bool) "local" true (roundtrip (Netstack.Local 80) = Netstack.Local 80);
  let p = Netstack.Peer { node = 3; port = 8080 } in
  Alcotest.(check bool) "peer" true (roundtrip p = p);
  let p0 = Netstack.Peer { node = 0; port = 22 } in
  Alcotest.(check bool) "node 0 distinct from local" true
    (roundtrip p0 = p0);
  Alcotest.(check bool) "local wire is bare port" true
    (Netstack.addr_to_wire (Netstack.Local 443) = 443L)

(* ------------------------------------------------------------------ *)
(* Fabric: cross-node connect / send / recv / FIN                      *)

let test_fabric_echo () =
  let fleet = Fleet.create ~nodes:2 (small_config ~seed:"fabric") in
  let k0 = Node.kernel (Fleet.node fleet 0)
  and k1 = Node.kernel (Fleet.node fleet 1) in
  let got = ref "" and echoed = ref "" in
  Coop.interleave
    [
      (fun () ->
        Runtime.launch k1 ~ghosting:false (fun ctx ->
            let proc = ctx.Runtime.proc in
            let lfd = expect_ok "listen" (Syscalls.listen k1 proc ~port:7000) in
            let fd =
              Coop.retry (fun () ->
                  match Syscalls.accept k1 proc ~fd:lfd with
                  | Ok fd -> Some fd
                  | Error Errno.EAGAIN -> None
                  | Error e -> Alcotest.failf "accept: %s" (Errno.to_string e))
            in
            let buf = Runtime.ualloc ctx 256 in
            let n =
              Coop.retry (fun () ->
                  match Runtime.sys_recv ctx ~fd ~buf ~len:256 with
                  | Ok n when n > 0 -> Some n
                  | Ok _ -> None
                  | Error Errno.EAGAIN -> None
                  | Error e -> Alcotest.failf "recv: %s" (Errno.to_string e))
            in
            got := Bytes.to_string (Runtime.peek ctx buf n);
            ignore (Runtime.write_string ctx ~fd ("echo:" ^ !got));
            ignore (Runtime.sys_close ctx fd)));
      (fun () ->
        Runtime.launch k0 ~ghosting:false (fun ctx ->
            let proc = ctx.Runtime.proc in
            let fd =
              expect_ok "connect"
                (Syscalls.connect_to k0 proc
                   (Netstack.Peer { node = 1; port = 7000 }))
            in
            ignore (Runtime.write_string ctx ~fd "hello-fabric");
            let buf = Runtime.ualloc ctx 256 in
            let n =
              Coop.retry (fun () ->
                  match Runtime.sys_recv ctx ~fd ~buf ~len:256 with
                  | Ok n when n > 0 -> Some n
                  | Ok _ -> None
                  | Error Errno.EAGAIN -> None
                  | Error e -> Alcotest.failf "recv: %s" (Errno.to_string e))
            in
            echoed := Bytes.to_string (Runtime.peek ctx buf n);
            ignore (Runtime.sys_close ctx fd)));
    ];
  Alcotest.(check string) "server got" "hello-fabric" !got;
  Alcotest.(check string) "client echoed" "echo:hello-fabric" !echoed

let test_fabric_fifo () =
  let fleet = Fleet.create ~nodes:2 (small_config ~seed:"fifo") in
  let k0 = Node.kernel (Fleet.node fleet 0)
  and k1 = Node.kernel (Fleet.node fleet 1) in
  let received = Buffer.create 256 in
  let messages = List.init 20 (Printf.sprintf "[msg-%02d]") in
  let total = List.fold_left (fun a s -> a + String.length s) 0 messages in
  Coop.interleave
    [
      (fun () ->
        Runtime.launch k1 ~ghosting:false (fun ctx ->
            let proc = ctx.Runtime.proc in
            let lfd = expect_ok "listen" (Syscalls.listen k1 proc ~port:7001) in
            let fd =
              Coop.retry (fun () ->
                  match Syscalls.accept k1 proc ~fd:lfd with
                  | Ok fd -> Some fd
                  | Error Errno.EAGAIN -> None
                  | Error e -> Alcotest.failf "accept: %s" (Errno.to_string e))
            in
            let buf = Runtime.ualloc ctx 4096 in
            while Buffer.length received < total do
              match Runtime.sys_recv ctx ~fd ~buf ~len:4096 with
              | Ok n when n > 0 ->
                  Buffer.add_bytes received (Runtime.peek ctx buf n)
              | Ok _ -> Coop.yield ()
              | Error Errno.EAGAIN -> Coop.yield ()
              | Error e -> Alcotest.failf "recv: %s" (Errno.to_string e)
            done));
      (fun () ->
        Runtime.launch k0 ~ghosting:false (fun ctx ->
            let fd =
              expect_ok "connect"
                (Syscalls.connect_to k0 ctx.Runtime.proc
                   (Netstack.Peer { node = 1; port = 7001 }))
            in
            List.iter
              (fun m ->
                ignore (Runtime.write_string ctx ~fd m);
                Coop.yield ())
              messages;
            ignore (Runtime.sys_close ctx fd)));
    ];
  Alcotest.(check string) "in order" (String.concat "" messages)
    (Buffer.contents received)

let test_peer_without_fabric_refused () =
  let k = Node.kernel (Node.boot (small_config ~seed:"nofab")) in
  Runtime.launch k ~ghosting:false (fun ctx ->
      match
        Syscalls.connect_to k ctx.Runtime.proc
          (Netstack.Peer { node = 1; port = 80 })
      with
      | Error Errno.ECONNREFUSED -> ()
      | Error e -> Alcotest.failf "expected ECONNREFUSED, got %s" (Errno.to_string e)
      | Ok _ -> Alcotest.fail "peer connect succeeded without a fabric")

(* Nodes 0 and 1 each connect to a listener on node 2.  The fleet names
   both connections, so neither overwrites the other on node 2 and each
   delivers its own bytes. *)
let test_fabric_two_peers () =
  let fleet = Fleet.create ~nodes:3 (small_config ~seed:"peers") in
  let server = Fleet.node fleet 2 in
  ignore (expect_ok "listen" (Node.listen server ~port:7002));
  List.iter
    (fun i ->
      let k = Node.kernel (Fleet.node fleet i) in
      Runtime.launch k ~ghosting:false (fun ctx ->
          let fd =
            expect_ok "connect"
              (Syscalls.connect_to k ctx.Runtime.proc
                 (Netstack.Peer { node = 2; port = 7002 }))
          in
          ignore (Runtime.write_string ctx ~fd (Printf.sprintf "from-%d" i))))
    [ 0; 1 ];
  let net = Node.net server in
  let got =
    List.init 2 (fun _ ->
        match Netstack.accept net ~port:7002 with
        | None -> Alcotest.fail "a connection is missing"
        | Some conn -> Bytes.to_string (expect_ok "recv" (Netstack.recv net ~conn 64)))
  in
  Alcotest.(check (list string)) "each connection its own bytes"
    [ "from-0"; "from-1" ] (List.sort compare got)

(* ------------------------------------------------------------------ *)
(* Load balancer                                                       *)

let test_lb_round_robin () =
  let lb = Lb.create ~nodes:3 Lb.Round_robin in
  let picks = List.init 7 (fun _ -> Option.get (Lb.assign lb)) in
  Alcotest.(check (list int)) "cycles" [ 0; 1; 2; 0; 1; 2; 0 ] picks;
  Lb.set_up lb 1 false;
  let picks = List.init 4 (fun _ -> Option.get (Lb.assign lb)) in
  Alcotest.(check (list int)) "skips down node" [ 2; 0; 2; 0 ] picks;
  Lb.set_up lb 0 false;
  Lb.set_up lb 2 false;
  Alcotest.(check bool) "all down" true (Lb.assign lb = None)

let test_lb_least_connections () =
  let lb = Lb.create ~nodes:2 Lb.Least_connections in
  (* Sequential load: assign, complete, assign...  Without the
     assigned-count tie-break this pins node 0 forever. *)
  for _ = 1 to 10 do
    let i = Option.get (Lb.assign lb) in
    Lb.complete lb i
  done;
  Alcotest.(check int) "node 0 share" 5 (Lb.assigned lb 0);
  Alcotest.(check int) "node 1 share" 5 (Lb.assigned lb 1)

(* ------------------------------------------------------------------ *)
(* Serving waves                                                       *)

let www_body = Bytes.init 2048 (fun i -> Char.chr ((i * 37) land 0xff))

let serving_fleet ?policy ~nodes ~seed () =
  let fleet = Fleet.create ?policy ~nodes (small_config ~seed) in
  Fleet.listen_all fleet ~port:80;
  Fleet.setup_www fleet ~path:"/index.html" www_body;
  fleet

let test_serve_wave () =
  let fleet = serving_fleet ~nodes:3 ~seed:"serve" () in
  let wave = Fleet.serve_wave fleet ~port:80 ~path:"/index.html" ~requests:12 in
  Alcotest.(check int) "no drops" 0 wave.Fleet.dropped;
  Alcotest.(check int) "all ok" 12 wave.Fleet.ok;
  Array.iter
    (fun (r : Fleet.node_report) ->
      Alcotest.(check int)
        (Printf.sprintf "node %d share" r.Fleet.node_id)
        4 r.Fleet.assigned;
      Alcotest.(check int)
        (Printf.sprintf "node %d ok" r.Fleet.node_id)
        4 r.Fleet.ok;
      Alcotest.(check bool)
        (Printf.sprintf "node %d window" r.Fleet.node_id)
        true
        (r.Fleet.elapsed_cycles > 0))
    wave.Fleet.per_node;
  Alcotest.(check bool) "aggregate rps positive" true (Fleet.wave_rps wave > 0.0)

let test_serve_wave_least_connections () =
  let fleet =
    serving_fleet ~policy:Lb.Least_connections ~nodes:3 ~seed:"serve-lc" ()
  in
  let wave = Fleet.serve_wave fleet ~port:80 ~path:"/index.html" ~requests:14 in
  Alcotest.(check int) "all ok" 14 wave.Fleet.ok;
  let shares =
    Array.to_list
      (Array.map (fun (r : Fleet.node_report) -> r.Fleet.assigned) wave.Fleet.per_node)
  in
  let mx = List.fold_left max 0 shares and mn = List.fold_left min 99 shares in
  Alcotest.(check bool) "spread within 1" true (mx - mn <= 1)

let test_mixed_wave () =
  let fleet = serving_fleet ~nodes:2 ~seed:"mixed" () in
  let wave =
    Fleet.serve_wave ~mixed:true fleet ~port:80 ~path:"/index.html" ~requests:6
  in
  Alcotest.(check int) "all ok under mixed load" 6 wave.Fleet.ok;
  for i = 0 to 1 do
    match Fleet.last_mixed fleet i with
    | None -> Alcotest.failf "node %d: no mixed stats" i
    | Some m ->
        Alcotest.(check bool)
          (Printf.sprintf "node %d postmark ran" i)
          true
          (m.Fleet.postmark_tx > 0);
        Alcotest.(check bool) (Printf.sprintf "node %d ssh chain ok" i) true
          m.Fleet.ssh_ok
  done

(* ------------------------------------------------------------------ *)
(* Rolling restart                                                     *)

let test_rolling_restart () =
  let fleet = serving_fleet ~nodes:3 ~seed:"rolling" () in
  let report =
    Fleet.rolling_restart fleet ~port:80 ~path:"/index.html"
      ~requests_per_wave:9
  in
  Alcotest.(check int) "zero dropped" 0 report.Fleet.total_dropped;
  Alcotest.(check int) "4 waves" 4 (List.length report.Fleet.waves);
  Alcotest.(check int) "all served" report.Fleet.total_requests
    report.Fleet.total_ok;
  Array.iteri
    (fun i d ->
      Alcotest.(check bool) (Printf.sprintf "node %d drain latency" i) true (d > 0))
    report.Fleet.drain_latency_cycles;
  for i = 0 to 2 do
    Alcotest.(check int) (Printf.sprintf "node %d restarted" i) 1
      (Fleet.restarts fleet i)
  done;
  (* Everyone is back: a full wave spreads evenly again. *)
  let wave = Fleet.serve_wave fleet ~port:80 ~path:"/index.html" ~requests:6 in
  Alcotest.(check int) "post-restart ok" 6 wave.Fleet.ok

(* ------------------------------------------------------------------ *)
(* Hostile backend fails closed                                        *)

let test_rootkit_node_fails_closed () =
  let fleet = serving_fleet ~nodes:3 ~seed:"hostile" () in
  let healthy = Fleet.serve_wave fleet ~port:80 ~path:"/index.html" ~requests:9 in
  Alcotest.(check int) "healthy ok" 9 healthy.Fleet.ok;
  (* Node 2's kernel loads the rootkit module and the attack runs. *)
  let outcome =
    Vg_attacks.Rootkit.infect
      (Node.kernel (Fleet.node fleet 2))
      ~attack:Vg_attacks.Rootkit.Signal_inject
  in
  Alcotest.(check bool) "secret stayed ghost" false
    outcome.Vg_attacks.Rootkit.secret_in_exfil_file;
  Alcotest.(check bool) "VM refused the dispatch" true
    outcome.Vg_attacks.Rootkit.vm_refusal_logged;
  Alcotest.(check bool) "security events recorded" true
    (Fleet.security_events fleet 2 <> []);
  (* Fleet health quarantines exactly the hostile node. *)
  let quarantined = Fleet.check_health fleet in
  Alcotest.(check (list int)) "node 2 quarantined" [ 2 ]
    (List.map fst quarantined);
  (* The remaining nodes keep serving the full load. *)
  let degraded = Fleet.serve_wave fleet ~port:80 ~path:"/index.html" ~requests:9 in
  Alcotest.(check int) "degraded ok" 9 degraded.Fleet.ok;
  Alcotest.(check int) "hostile node got nothing" 0
    degraded.Fleet.per_node.(2).Fleet.assigned;
  (* Re-imaging the node clears its security log and re-admits it. *)
  Fleet.restart_node fleet 2;
  Alcotest.(check (list string)) "clean after re-image" []
    (Fleet.security_events fleet 2);
  let healed = Fleet.serve_wave fleet ~port:80 ~path:"/index.html" ~requests:9 in
  Alcotest.(check int) "healed share" 3 healed.Fleet.per_node.(2).Fleet.assigned

(* ------------------------------------------------------------------ *)
(* Cross-node key distribution                                         *)

let test_key_distribution () =
  let fleet = Fleet.create ~nodes:2 (small_config ~seed:"keys") in
  let kt = Fleet.distribute_key fleet ~src:0 ~dst:1 in
  Alcotest.(check bool) "delivered" true kt.Fleet.delivered;
  Alcotest.(check bool) "key has size" true (kt.Fleet.key_len > 0);
  Alcotest.(check bool) "no plaintext on the wire" false
    kt.Fleet.plaintext_on_wire;
  Alcotest.(check bool) "sealed at rest" true kt.Fleet.sealed_at_rest;
  Alcotest.(check bool) "reloadable through sealed_store" true
    kt.Fleet.reload_ok

(* ------------------------------------------------------------------ *)
(* qcheck properties                                                   *)

let spread counts =
  let mx = Array.fold_left max 0 counts in
  let mn = Array.fold_left min max_int counts in
  mx - mn

(* Round-robin stays within 1 of fair for any interleaving of waves. *)
let prop_rr_fairness =
  QCheck.Test.make ~count:200 ~name:"lb round-robin fairness"
    QCheck.(pair (int_range 1 5) (small_list (int_range 0 20)))
    (fun (nodes, waves) ->
      let lb = Lb.create ~nodes Lb.Round_robin in
      List.iter
        (fun w ->
          let picked = List.init w (fun _ -> Option.get (Lb.assign lb)) in
          List.iter (fun i -> Lb.complete lb i) picked)
        waves;
      let counts = Array.init nodes (Lb.assigned lb) in
      spread counts <= 1)

(* Least-connections with wave arrivals (assign a burst, then all
   complete — the serve_wave pattern) keeps cumulative shares within
   1 of fair. *)
let prop_lc_fairness =
  QCheck.Test.make ~count:200 ~name:"lb least-connections fairness"
    QCheck.(pair (int_range 1 5) (small_list (int_range 0 20)))
    (fun (nodes, waves) ->
      let lb = Lb.create ~nodes Lb.Least_connections in
      List.iter
        (fun w ->
          let picked = List.init w (fun _ -> Option.get (Lb.assign lb)) in
          List.iter (fun i -> Lb.complete lb i) picked)
        waves;
      let counts = Array.init nodes (Lb.assigned lb) in
      spread counts <= 1)

(* Nic.pair delivers every frame exactly once, FIFO per direction,
   under arbitrary interleavings of transmits and receives. *)
let prop_nic_pair_delivery =
  QCheck.Test.make ~count:100 ~name:"nic pair no-loss fifo"
    QCheck.(
      triple
        (small_list (string_gen_of_size (Gen.int_range 1 64) Gen.printable))
        (small_list (string_gen_of_size (Gen.int_range 1 64) Gen.printable))
        (small_list bool))
    (fun (to_b, to_a, schedule) ->
      let a, b = Nic.pair () in
      let pending_ab = Queue.create () and pending_ba = Queue.create () in
      List.iter (fun s -> Queue.push s pending_ab) to_b;
      List.iter (fun s -> Queue.push s pending_ba) to_a;
      let got_b = ref [] and got_a = ref [] in
      let step dir =
        (* true: transmit one frame in each direction (if any left);
           false: drain one frame from each side. *)
        if dir then begin
          if not (Queue.is_empty pending_ab) then
            Nic.transmit a (Bytes.of_string (Queue.pop pending_ab));
          if not (Queue.is_empty pending_ba) then
            Nic.transmit b (Bytes.of_string (Queue.pop pending_ba))
        end
        else begin
          (match Nic.receive b with
          | Some f -> got_b := Bytes.to_string f :: !got_b
          | None -> ());
          match Nic.receive a with
          | Some f -> got_a := Bytes.to_string f :: !got_a
          | None -> ()
        end
      in
      List.iter step schedule;
      (* Flush whatever the random schedule left behind. *)
      while not (Queue.is_empty pending_ab && Queue.is_empty pending_ba) do
        step true
      done;
      let drained = ref false in
      while not !drained do
        let before = List.length !got_b + List.length !got_a in
        step false;
        drained := List.length !got_b + List.length !got_a = before
      done;
      (* MTU splitting applies beyond 1500 bytes; our frames are <=64
         so delivery must be exact and ordered. *)
      List.rev !got_b = to_b && List.rev !got_a = to_a)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_rr_fairness; prop_lc_fairness; prop_nic_pair_delivery ]

(* ------------------------------------------------------------------ *)
(* Determinism: a run depends only on its own node                      *)

(* A module function that loads and stores through its argument, so the
   sandbox pass instruments it; its name overrides no syscall. *)
let probe_module () =
  let open Vg_ir in
  let b = Builder.create () in
  Builder.func b "probe" ~params:[ "p" ];
  let v = Builder.load b (Ir.Reg "p") in
  Builder.store b ~src:v ~addr:(Ir.Reg "p") ();
  Builder.ret b (Some v);
  Builder.program b

let conn_of (proc : Proc.t) fd =
  match Proc.find_fd proc fd with
  | Some (Proc.Sock_conn conn) -> conn
  | _ -> Alcotest.fail "not a connection"

(* Scenario A: serve three harness requests, make one kernel outbound
   connection, take 8 demand-paging faults and load one module through
   the compiler pipeline.  The digest covers every event with its cycle
   stamp (the faults' Mmu events carry their addresses), every
   connection id either end saw, and the module image's HMAC. *)
let scenario_a () =
  let obs = Obs.create () and recorder = Obs_recorder.create () in
  Obs.attach obs (Obs_recorder.sink recorder);
  let node = Node.boot (small_config ~seed:"determinism" |> Node_config.with_obs obs) in
  let k = Node.kernel node and m = Node.machine node in
  let ids = ref [] in
  let saw id = ids := string_of_int id :: !ids in
  Runtime.launch k ~ghosting:false (fun ctx ->
      let proc = ctx.Runtime.proc in
      let lfd = expect_ok "listen" (Syscalls.listen k proc ~port:80) in
      let buf = Runtime.ualloc ctx 64 in
      for _ = 1 to 3 do
        let ep = Netstack.Remote.connect m ~port:80 in
        Netstack.Remote.send ep (Bytes.of_string "GET /");
        let fd = expect_ok "accept" (Syscalls.accept k proc ~fd:lfd) in
        saw (Netstack.Remote.conn_id ep);
        saw (conn_of proc fd);
        ignore (expect_ok "recv" (Runtime.sys_recv ctx ~fd ~buf ~len:64));
        ignore (expect_ok "send" (Runtime.write_string ctx ~fd "200 OK"));
        ignore (Runtime.sys_close ctx fd);
        ignore (Netstack.Remote.recv_all_available ep);
        Netstack.Remote.close ep
      done;
      let out = expect_ok "connect" (Syscalls.connect k proc ~port:7070) in
      saw (conn_of proc out);
      (match Netstack.Remote.accept m with
      | Some ep -> saw (Netstack.Remote.conn_id ep)
      | None -> Alcotest.fail "no SYN on the wire");
      ignore (Runtime.sys_close ctx out);
      ignore (Lmbench.page_fault ctx ~iterations:8));
  (match Module_loader.load k ~name:"probe" (probe_module ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "load: %s" (Module_loader.describe_load_error e));
  let cache = Sva.translation_cache k.Kernel.sva in
  let hmac =
    match Vg_compiler.Trans_cache.find cache ~name:"probe" with
    | Ok image -> (Vg_compiler.Trans_cache.sign cache ~instrumented:true image).tag
    | Error e -> Alcotest.failf "find: %s" (Vg_compiler.Trans_cache.describe_find_error e)
  in
  let events =
    List.map
      (fun (e : Obs_recorder.entry) ->
        Printf.sprintf "%d %s" e.Obs_recorder.cycles (Obs.Event.describe e.Obs_recorder.event))
      (Obs_recorder.events recorder)
  in
  Digest.to_hex
    (Digest.string (String.concat "\n" (events @ List.rev !ids @ [ Bytes.to_string hmac ])))

(* Scenario B, on a node of its own: advance every id counter (harness
   and kernel connections, left open), the page-fault cursor, and the
   register numbering of both compiler passes that add registers. *)
let scenario_b () =
  let node = Node.boot (small_config ~seed:"churn") in
  let k = Node.kernel node and m = Node.machine node in
  Runtime.launch k ~ghosting:false (fun ctx ->
      for _ = 1 to 50 do
        ignore (Netstack.Remote.connect m ~port:9);
        ignore (Syscalls.connect k ctx.Runtime.proc ~port:9)
      done;
      ignore (Lmbench.page_fault ctx ~iterations:8));
  ignore (Module_loader.load k ~name:"probe" (probe_module ()));
  let open Vg_ir in
  let b = Builder.create () in
  Builder.func b "main" ~params:[];
  Builder.ret b (Some (Builder.call b "extern.mmap" [ Ir.Imm 4096L ]));
  ignore (Vg_compiler.Pipeline.compile_application_code (Builder.program b))

let test_run_order_independence () =
  let alone = scenario_a () in
  scenario_b ();
  Alcotest.(check string) "A after B digests as A alone" alone (scenario_a ())

let () =
  Alcotest.run "vg_fleet"
    [
      ( "node",
        [
          Alcotest.test_case "config-builders" `Quick test_config_builders;
          Alcotest.test_case "connect-local-parity" `Quick
            test_connect_local_parity;
          Alcotest.test_case "addr-codec" `Quick test_addr_codec;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "echo" `Quick test_fabric_echo;
          Alcotest.test_case "fifo" `Quick test_fabric_fifo;
          Alcotest.test_case "no-fabric-refused" `Quick
            test_peer_without_fabric_refused;
          Alcotest.test_case "two-peers" `Quick test_fabric_two_peers;
        ] );
      ( "lb",
        [
          Alcotest.test_case "round-robin" `Quick test_lb_round_robin;
          Alcotest.test_case "least-connections" `Quick
            test_lb_least_connections;
        ] );
      ( "serving",
        [
          Alcotest.test_case "wave" `Quick test_serve_wave;
          Alcotest.test_case "wave-least-connections" `Quick
            test_serve_wave_least_connections;
          Alcotest.test_case "mixed-load" `Quick test_mixed_wave;
          Alcotest.test_case "rolling-restart" `Quick test_rolling_restart;
          Alcotest.test_case "rootkit-fails-closed" `Quick
            test_rootkit_node_fails_closed;
          Alcotest.test_case "key-distribution" `Quick test_key_distribution;
        ] );
      ("properties", qcheck_cases);
      ( "determinism",
        [ Alcotest.test_case "run-order" `Quick test_run_order_independence ] );
    ]
