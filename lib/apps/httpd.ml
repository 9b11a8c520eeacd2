let start ctx ~port = Syscalls.listen ctx.Runtime.kernel ctx.Runtime.proc ~port

let response_header body_len =
  Printf.sprintf "HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n" body_len

let not_found = "HTTP/1.0 404 Not Found\r\n\r\n"

(* "HTTP/1.0 200 ...": the status code is bytes 9-11, read in place. *)
let status_ok raw =
  Bytes.length raw >= 12
  && Bytes.get raw 9 = '2'
  && Bytes.get raw 10 = '0'
  && Bytes.get raw 11 = '0'

let doc size = Bytes.init size (fun i -> Char.chr ((i * 131) land 0xff))

let install_doc k ~path ~size =
  let fs = k.Kernel.fs in
  match Diskfs.create fs path with
  | Error _ -> failwith ("Httpd.install_doc: create " ^ path)
  | Ok ino -> (
      match Diskfs.write fs ~ino ~off:0 (doc size) with
      | Ok _ -> ()
      | Error _ -> failwith ("Httpd.install_doc: write " ^ path))

(* Requests answered 200 per simulated second of [elapsed_cycles]. *)
let rps ~ok ~elapsed_cycles =
  let seconds = Cost.to_seconds elapsed_cycles in
  if seconds > 0.0 then float_of_int ok /. seconds else 0.0

let handle_connection ctx conn_fd =
  let k = ctx.Runtime.kernel and proc = ctx.Runtime.proc in
  let buf = Runtime.galloc ctx 1024 in
  let rec read_request tries =
    if tries = 0 then None
    else begin
      match Runtime.sys_recv ctx ~fd:conn_fd ~buf ~len:1024 with
      | Ok 0 -> None
      | Ok n -> Some (Bytes.to_string (Runtime.peek ctx buf n))
      | Error Errno.EAGAIN -> read_request (tries - 1)
      | Error _ -> None
    end
  in
  (match read_request 50 with
  | None -> ()
  | Some request -> (
      let path =
        match String.split_on_char ' ' (String.trim request) with
        | "GET" :: path :: _ -> Some path
        | _ -> None
      in
      match path with
      | None -> ignore (Runtime.write_string ctx ~fd:conn_fd not_found)
      | Some path -> (
          match Runtime.sys_open ctx path Syscalls.rdonly with
          | Error _ -> ignore (Runtime.write_string ctx ~fd:conn_fd not_found)
          | Ok file_fd ->
              let size =
                match Syscalls.stat k proc path with
                | Ok st -> st.Diskfs.size
                | Error _ -> 0
              in
              ignore (Runtime.write_string ctx ~fd:conn_fd (response_header size));
              let chunk_len = 32768 in
              let data_buf = Runtime.galloc ctx chunk_len in
              let eof = ref false in
              while not !eof do
                match Runtime.sys_read ctx ~fd:file_fd ~dst:data_buf ~len:chunk_len with
                | Ok 0 | Error _ -> eof := true
                | Ok n -> (
                    match Runtime.sys_write ctx ~fd:conn_fd ~src:data_buf ~len:n with
                    | Ok _ -> ()
                    | Error _ -> eof := true)
              done;
              ignore (Runtime.sys_close ctx file_fd))));
  ignore (Runtime.sys_close ctx conn_fd)

let serve_requests ctx ~listen_fd ~max =
  let k = ctx.Runtime.kernel and proc = ctx.Runtime.proc in
  let served = ref 0 in
  let continue = ref true in
  while !continue && !served < max do
    match Syscalls.accept k proc ~fd:listen_fd with
    | Ok conn_fd ->
        handle_connection ctx conn_fd;
        incr served
    | Error _ -> continue := false
  done;
  !served

(* ------------------------------------------------------------------ *)
(* Multi-worker pool: N preemptible worker processes share one
   listening socket (fd inheritance) and are scheduled across the
   machine's cores by [Sched].  Clients pre-connect before the
   measured window, so the elapsed cycles cover exactly the serving
   work. *)

module Pool = struct
  type stats = {
    workers : int;
    served : int;
    ok : int;
    elapsed_cycles : int;
    preemptions : int;
    steals : int;
  }

  let worker_body sched ~port ~requests ~served ctx =
    let k = ctx.Runtime.kernel and proc = ctx.Runtime.proc in
    (* Share the already-listening socket, as an inherited fd. *)
    let listen_fd = Proc.add_fd proc (Proc.Sock_listen port) in
    let continue = ref true in
    while !continue do
      match Syscalls.accept k proc ~fd:listen_fd with
      | Ok conn_fd ->
          handle_connection ctx conn_fd;
          incr served;
          Sched.yield sched
      | Error _ ->
          (* Backlog empty: quit once every request has been served,
             otherwise let another worker (or the one mid-request) run. *)
          if !served >= requests then continue := false else Sched.yield sched
    done

  let run ?(ghosting = false) ?sfip kernel ~workers ~requests ~port ~path =
    if workers < 1 then invalid_arg "Httpd.Pool.run: workers < 1";
    let m = kernel.Kernel.machine in
    (match Netstack.listen kernel.Kernel.net ~port with
    | Ok () -> ()
    | Error e -> failwith ("Httpd.Pool.run: listen: " ^ Errno.to_string e));
    let sched = Sched.create kernel in
    let served = ref 0 in
    let cpus = Machine.cpus m in
    for i = 0 to workers - 1 do
      ignore
        (Runtime.spawn_fiber kernel sched ~cpu:(i mod cpus) ?sfip ~ghosting
           ~name:(Printf.sprintf "httpd-%d" i)
           (worker_body sched ~port ~requests ~served))
    done;
    (* Pre-connect every client; handshakes and request transmission
       land before the measured window. *)
    let eps =
      List.init requests (fun _ ->
          Machine.charge m Cost.tcp_handshake;
          let ep = Netstack.Remote.connect m ~port in
          Netstack.Remote.send ep
            (Bytes.of_string (Printf.sprintf "GET %s HTTP/1.0\r\n" path));
          ep)
    in
    (* Boot, filesystem setup and client pre-connects all ran on the
       boot core, leaving its clock far ahead of the others; the
       clock-ordered interleaver would then serialise the whole run on
       the idle cores.  Start the measured window from synchronised
       clocks, as a real benchmark starts all cores "now". *)
    Machine.reset_clock m;
    let before = Array.init cpus (Machine.core_cycles m) in
    Sched.run sched;
    let elapsed = ref 0 in
    for c = 0 to cpus - 1 do
      elapsed := max !elapsed (Machine.core_cycles m c - before.(c))
    done;
    let ok =
      List.fold_left
        (fun acc ep ->
          let raw = Netstack.Remote.recv_all_available ep in
          Netstack.Remote.close ep;
          if status_ok raw then acc + 1 else acc)
        0 eps
    in
    {
      workers;
      served = !served;
      ok;
      elapsed_cycles = !elapsed;
      preemptions = Sched.preemptions sched;
      steals = Sched.steals sched;
    }

  let rps s = rps ~ok:s.ok ~elapsed_cycles:s.elapsed_cycles
end

(* ------------------------------------------------------------------ *)
(* Event-driven server: one single-threaded loop per core, batching
   its syscalls through the submission ring ([Uring]) and using [poll]
   as the readiness gate.  Each connection is a small state machine
   advanced one ring completion at a time; SQEs from every connection
   (and the shared listener) are flushed together in batches of
   [batch], so the SVA trap protocol is paid once per batch instead of
   once per syscall.  Path-argument syscalls (open, stat) cannot ride
   the four-register ring and stay direct traps. *)

module Event_loop = struct
  type stats = {
    cores : int;
    batch : int;
    served : int;
    ok : int;
    elapsed_cycles : int;
    ring_enters : int;
    sqes : int;
    polls : int;
    preemptions : int;
    steals : int;
  }

  type phase =
    | Recv_request
    | Send_header of int * int  (* file fd, header length *)
    | Read_file of int
    | Send_chunk of int * int  (* file fd, bytes just read *)
    | Send_close of int  (* error page length; close conn after *)
    | Close_file of int
    | Close_conn

  type conn = {
    id : int;
    fd : int;
    req_buf : int64;
    data_buf : int64;
    mutable phase : phase;
    mutable waiting : bool;  (* needs a poll verdict before submitting *)
    mutable outstanding : bool;  (* SQE queued, completion not yet seen *)
  }

  let chunk_len = 32768
  let accept_cookie = -1L

  let loop_body ~port ~batch ~served ~totals ctx =
    let k = ctx.Runtime.kernel and proc = ctx.Runtime.proc in
    let listen_fd = Proc.add_fd proc (Proc.Sock_listen port) in
    let ring = Uring.create ctx ~depth:(max batch 8) in
    let conns : (int, conn) Hashtbl.t = Hashtbl.create 16 in
    let next_id = ref 0 in
    let queued = ref 0 in
    let accepts_in_flight = ref 0 in
    (* Set when accept reports an empty backlog: the workload
       pre-connects every client, so an empty backlog stays empty. *)
    let drained = ref false in
    let polls = ref 0 in
    let max_conns = max batch 4 in
    let stage_error_page conn =
      Runtime.poke ctx conn.data_buf (Bytes.of_string not_found);
      conn.phase <- Send_close (String.length not_found)
    in
    let advance conn res =
      conn.outstanding <- false;
      match (conn.phase, res) with
      | Recv_request, Error Errno.EAGAIN -> conn.waiting <- true
      | Recv_request, Ok n when n > 0 -> (
          let request = Bytes.to_string (Runtime.peek ctx conn.req_buf n) in
          let path =
            match String.split_on_char ' ' (String.trim request) with
            | "GET" :: path :: _ -> Some path
            | _ -> None
          in
          match path with
          | None -> stage_error_page conn
          | Some path -> (
              match Syscalls.open_ k proc path Syscalls.rdonly with
              | Error _ -> stage_error_page conn
              | Ok file_fd ->
                  let size =
                    match Syscalls.stat k proc path with
                    | Ok st -> st.Diskfs.size
                    | Error _ -> 0
                  in
                  let header = response_header size in
                  Runtime.poke ctx conn.data_buf (Bytes.of_string header);
                  conn.phase <- Send_header (file_fd, String.length header)))
      | Recv_request, (Ok _ | Error _) -> conn.phase <- Close_conn
      | Send_header (f, _), Ok _ -> conn.phase <- Read_file f
      | Send_header (f, _), Error _ -> conn.phase <- Close_file f
      | Read_file f, Ok n when n > 0 -> conn.phase <- Send_chunk (f, n)
      | Read_file f, (Ok _ | Error _) -> conn.phase <- Close_file f
      | Send_chunk (f, _), Ok _ -> conn.phase <- Read_file f
      | Send_chunk (f, _), Error _ -> conn.phase <- Close_file f
      | Send_close _, _ -> conn.phase <- Close_conn
      | Close_file _, _ -> conn.phase <- Close_conn
      | Close_conn, _ ->
          Hashtbl.remove conns conn.id;
          incr served
    in
    let complete (c : Syscall_ring.cqe) =
      let res = Syscall_abi.decode_int c.Syscall_ring.result in
      if c.Syscall_ring.user_data = accept_cookie then begin
        decr accepts_in_flight;
        match res with
        | Ok fd ->
            let id = !next_id in
            incr next_id;
            Hashtbl.replace conns id
              {
                id;
                fd;
                req_buf = Runtime.galloc ctx 1024;
                data_buf = Runtime.galloc ctx chunk_len;
                phase = Recv_request;
                waiting = true;
                outstanding = false;
              }
        | Error _ -> drained := true
      end
      else
        match Hashtbl.find_opt conns (Int64.to_int c.Syscall_ring.user_data) with
        | Some conn -> advance conn res
        | None -> ()
    in
    let flush () =
      if !queued > 0 then begin
        (match Uring.enter ring ~to_submit:!queued with Ok _ | Error _ -> ());
        queued := 0;
        List.iter complete (Uring.reap ring)
      end
    in
    let push ~sysno ~args ~user_data =
      if !queued >= batch then flush ();
      if Uring.submit ring ~sysno ~args ~user_data then incr queued
    in
    let submit_phase conn =
      let fd64 = Int64.of_int conn.fd in
      let user_data = Int64.of_int conn.id in
      conn.outstanding <- true;
      match conn.phase with
      | Recv_request ->
          push ~sysno:Syscall_abi.sys_recv
            ~args:[| fd64; conn.req_buf; 1024L |]
            ~user_data
      | Send_header (_, len) | Send_close len ->
          push ~sysno:Syscall_abi.sys_send
            ~args:[| fd64; conn.data_buf; Int64.of_int len |]
            ~user_data
      | Read_file f ->
          push ~sysno:Syscall_abi.sys_read
            ~args:[| Int64.of_int f; conn.data_buf; Int64.of_int chunk_len |]
            ~user_data
      | Send_chunk (_, n) ->
          push ~sysno:Syscall_abi.sys_send
            ~args:[| fd64; conn.data_buf; Int64.of_int n |]
            ~user_data
      | Close_file f ->
          push ~sysno:Syscall_abi.sys_close ~args:[| Int64.of_int f |] ~user_data
      | Close_conn ->
          push ~sysno:Syscall_abi.sys_close ~args:[| fd64 |] ~user_data
    in
    while not (!drained && Hashtbl.length conns = 0) do
      (* Fill: keep the connection table topped up from the backlog... *)
      if not !drained then begin
        let want = max_conns - Hashtbl.length conns - !accepts_in_flight in
        for _ = 1 to want do
          incr accepts_in_flight;
          push ~sysno:Syscall_abi.sys_accept
            ~args:[| Int64.of_int listen_fd |]
            ~user_data:accept_cookie
        done
      end;
      (* ... and queue each runnable connection's next step. *)
      let runnable =
        Hashtbl.fold (fun _ c acc -> if not c.waiting then c :: acc else acc) conns []
        |> List.sort (fun a b -> compare a.id b.id)
      in
      List.iter (fun c -> if not c.outstanding then submit_phase c) runnable;
      if !queued > 0 then flush ()
      else begin
        (* Nothing submittable: every connection awaits readiness. *)
        let fds =
          Hashtbl.fold (fun _ c acc -> if c.waiting then c.fd :: acc else acc) conns []
        in
        if fds <> [] then begin
          incr polls;
          match Syscalls.poll k proc fds with
          | Ok ready ->
              Hashtbl.iter
                (fun _ c -> if List.mem c.fd ready then c.waiting <- false)
                conns
          | Error _ -> Hashtbl.iter (fun _ c -> c.waiting <- false) conns
        end
      end
    done;
    let enters, sqes, polled = totals in
    enters := !enters + Uring.enters ring;
    sqes := !sqes + Uring.submitted ring;
    polled := !polled + !polls

  (* The measured half of [run]: the listener is already open and the
     clients already connected (their SYN + request frames sit in the
     NIC queue).  Spawns one event loop per core — plus any
     [background] fibers the caller wants sharing the scheduler (the
     fleet's mixed-load workloads ride here) — and serves from
     synchronised clocks.  [ok] in the result equals [served]; callers
     holding the client endpoints overwrite it with the verified
     count. *)
  let serve ?(ghosting = false) ?(batch = 8) ?sfip ?background kernel ~port =
    if batch < 1 || batch > 4096 then invalid_arg "Httpd.Event_loop.serve: bad batch";
    let m = kernel.Kernel.machine in
    let sched = Sched.create kernel in
    let served = ref 0 in
    let enters = ref 0 and sqes = ref 0 and polls = ref 0 in
    let cpus = Machine.cpus m in
    for i = 0 to cpus - 1 do
      ignore
        (Runtime.spawn_fiber kernel sched ~cpu:i ?sfip ~ghosting
           ~name:(Printf.sprintf "httpd-ev-%d" i)
           (loop_body ~port ~batch ~served ~totals:(enters, sqes, polls)))
    done;
    (match background with None -> () | Some f -> f sched);
    Machine.reset_clock m;
    let before = Array.init cpus (Machine.core_cycles m) in
    Sched.run sched;
    let elapsed = ref 0 in
    for c = 0 to cpus - 1 do
      elapsed := max !elapsed (Machine.core_cycles m c - before.(c))
    done;
    {
      cores = cpus;
      batch;
      served = !served;
      ok = !served;
      elapsed_cycles = !elapsed;
      ring_enters = !enters;
      sqes = !sqes;
      polls = !polls;
      preemptions = Sched.preemptions sched;
      steals = Sched.steals sched;
    }

  let run ?(ghosting = false) ?(batch = 8) ?sfip kernel ~requests ~port ~path =
    let m = kernel.Kernel.machine in
    (match Netstack.listen kernel.Kernel.net ~port with
    | Ok () -> ()
    | Error e -> failwith ("Httpd.Event_loop.run: listen: " ^ Errno.to_string e));
    (* Same measurement discipline as [Pool.run]: pre-connect every
       client, then serve from synchronised clocks. *)
    let eps =
      List.init requests (fun _ ->
          Machine.charge m Cost.tcp_handshake;
          let ep = Netstack.Remote.connect m ~port in
          Netstack.Remote.send ep
            (Bytes.of_string (Printf.sprintf "GET %s HTTP/1.0\r\n" path));
          ep)
    in
    let stats = serve ~ghosting ~batch ?sfip kernel ~port in
    let ok =
      List.fold_left
        (fun acc ep ->
          let raw = Netstack.Remote.recv_all_available ep in
          Netstack.Remote.close ep;
          if status_ok raw then acc + 1 else acc)
        0 eps
    in
    { stats with ok }

  let rps s = rps ~ok:s.ok ~elapsed_cycles:s.elapsed_cycles
end

module Client = struct
  let get machine ~port ~path pump =
    (* HTTP/1.0, one connection per request: pay the TCP handshake. *)
    Machine.charge machine Cost.tcp_handshake;
    let ep = Netstack.Remote.connect machine ~port in
    Netstack.Remote.send ep (Bytes.of_string (Printf.sprintf "GET %s HTTP/1.0\r\n" path));
    pump ();
    let raw = Netstack.Remote.recv_all_available ep in
    Netstack.Remote.close ep;
    (* Split the header from the body. *)
    let rec find_body i =
      if i + 4 > Bytes.length raw then None
      else if
        Bytes.get raw i = '\r'
        && Bytes.get raw (i + 1) = '\n'
        && Bytes.get raw (i + 2) = '\r'
        && Bytes.get raw (i + 3) = '\n'
      then Some (i + 4)
      else find_body (i + 1)
    in
    match find_body 0 with
    | Some start when status_ok raw -> Some (Bytes.sub raw start (Bytes.length raw - start))
    | _ -> None
end
