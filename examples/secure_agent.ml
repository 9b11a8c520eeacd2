(* The paper's headline scenario (sections 6 and 7): the OpenSSH suite
   protected by ghost memory, attacked by a malicious kernel module
   that replaces the read() system call — on both the baseline system
   (attacks succeed) and Virtual Ghost (attacks fail).

     dune exec examples/secure_agent.exe *)

let show_outcome (o : Vg_attacks.Rootkit.outcome) =
  Format.printf "    %a@." Vg_attacks.Rootkit.pp_outcome o

let () =
  print_endline "== ssh-agent under attack ==";
  print_endline "";
  print_endline "The victim: ssh-agent holding a signing secret in its heap.";
  Printf.printf "The secret: %S\n" Vg_attacks.Rootkit.secret_string;
  print_endline "The attacker: a kernel module replacing the read() handler";
  print_endline "(modelled on Joseph Kong's FreeBSD rootkits), loaded through";
  print_endline "the standard module loader and compiled like any kernel code.";
  print_endline "";

  print_endline "-- Attack 1: direct read of victim memory, printed to syslog --";
  List.iter
    (fun mode ->
      show_outcome
        (Vg_attacks.Rootkit.run_experiment ~obs:(Obs.create ()) ~mode
           ~attack:Vg_attacks.Rootkit.Direct_read ()))
    [ Sva.Native_build; Sva.Virtual_ghost ];
  print_endline "";
  print_endline "  Under Virtual Ghost the module's loads were compiled with the";
  print_endline "  sandboxing pass: the computed addresses are ORed with bit 39,";
  print_endline "  so the kernel \"simply reads unknown data out of its own";
  print_endline "  address space\" (paper, section 7).";
  print_endline "";

  print_endline "-- Attack 2: signal-handler code injection + exfiltration --";
  List.iter
    (fun mode ->
      show_outcome
        (Vg_attacks.Rootkit.run_experiment ~obs:(Obs.create ()) ~mode
           ~attack:Vg_attacks.Rootkit.Signal_inject ()))
    [ Sva.Native_build; Sva.Virtual_ghost ];
  print_endline "";
  print_endline "  Under Virtual Ghost, sva.ipush.function refuses to dispatch to";
  print_endline "  the injected code because the application never registered it";
  print_endline "  with sva.permitFunction; the victim continues unaffected.";
  print_endline "";

  (* The cooperative suite working normally on a VG kernel. *)
  print_endline "-- And in normal operation (no attack) --";
  let kernel =
    Node.kernel
      (Node.boot
         Node_config.(
           default |> with_phys_frames 16384 |> with_disk_sectors 16384
           |> with_seed "agent-demo"))
  in
  let app_key = Bytes.of_string "sixteen-byte-key" in
  let ssh, keygen, _agent = Ssh_suite.install_images kernel ~app_key in
  Runtime.launch kernel ~image:keygen ~ghosting:true (fun ctx ->
      match Ssh_suite.keygen ctx ~path:"/root-id" with
      | Ok () -> print_endline "  ssh-keygen: wrote sealed private key to /root-id"
      | Error e -> Format.printf "  keygen failed: %a@." Errno.pp e);
  (* The raw bytes on disk are ciphertext. *)
  (match Diskfs.lookup kernel.Kernel.fs "/root-id" with
  | Ok ino -> (
      match Diskfs.read kernel.Kernel.fs ~ino ~off:0 ~len:4 with
      | Ok magic -> Printf.printf "  on-disk format: %S (sealed under the application key)\n" (Bytes.to_string magic)
      | Error _ -> ())
  | Error _ -> ());
  Runtime.launch kernel ~image:ssh ~ghosting:true (fun ctx ->
      match Ssh_suite.load_private_key ctx ~path:"/root-id" with
      | Ok (va, len) ->
          Printf.printf "  ssh: decrypted %d-byte key into ghost memory at %s\n" len
            (U64.to_hex va)
      | Error msg -> Printf.printf "  ssh failed: %s\n" msg);
  print_endline "";
  print_endline "Both programs share the application key through the chain of";
  print_endline "trust: TPM storage key => Virtual Ghost key pair => application";
  print_endline "key (embedded, encrypted, in the signed binaries)."
