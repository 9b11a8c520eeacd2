(* Tests for the simulated hardware: physical memory, page tables,
   virtual-memory translation and permissions, TLB behaviour, and the
   device complement (disk, NIC, IOMMU, TPM, console). *)

let perm_rw : Pagetable.perm = { writable = true; user = false; executable = false }
let perm_user_rw : Pagetable.perm = { writable = true; user = true; executable = false }
let perm_user_ro : Pagetable.perm = { writable = false; user = true; executable = false }

(* ------------------------------------------------------------------ *)
(* Physical memory                                                     *)

let test_phys_rw () =
  let m = Phys_mem.create ~frames:16 in
  Phys_mem.write m ~addr:0x1000L ~len:8 0x1122334455667788L;
  Alcotest.(check int64) "read back" 0x1122334455667788L (Phys_mem.read m ~addr:0x1000L ~len:8);
  Alcotest.(check int64) "byte" 0x88L (Phys_mem.read m ~addr:0x1000L ~len:1);
  Alcotest.(check int64) "w16" 0x7788L (Phys_mem.read m ~addr:0x1000L ~len:2)

let test_phys_bounds () =
  let m = Phys_mem.create ~frames:2 in
  Alcotest.(check bool) "oob" true
    (try
       ignore (Phys_mem.read m ~addr:0x2000L ~len:8);
       false
     with Phys_mem.Bad_physical_address _ -> true);
  Alcotest.(check bool) "frame crossing" true
    (try
       ignore (Phys_mem.read m ~addr:0xffcL ~len:8);
       false
     with Phys_mem.Bad_physical_address _ -> true)

let test_phys_bulk_cross_frame () =
  let m = Phys_mem.create ~frames:4 in
  let data = Bytes.init 6000 (fun i -> Char.chr (i mod 256)) in
  Phys_mem.write_bytes m ~addr:0x800L data;
  Alcotest.(check bytes) "bulk round-trip" data (Phys_mem.read_bytes m ~addr:0x800L ~len:6000)

let test_phys_zero_frame () =
  let m = Phys_mem.create ~frames:4 in
  Phys_mem.write m ~addr:0x1008L ~len:8 42L;
  Alcotest.(check bool) "allocated" true (Phys_mem.frame_is_allocated m 1);
  Phys_mem.zero_frame m 1;
  Alcotest.(check int64) "zeroed" 0L (Phys_mem.read m ~addr:0x1008L ~len:8)

(* ------------------------------------------------------------------ *)
(* Page tables                                                         *)

let test_pagetable_basic () =
  let pt = Pagetable.create () in
  Pagetable.map pt ~vpage:5L { frame = 9; perm = perm_rw };
  (match Pagetable.lookup pt ~vpage:5L with
  | Some pte -> Alcotest.(check int) "frame" 9 pte.Pagetable.frame
  | None -> Alcotest.fail "missing");
  Pagetable.unmap pt ~vpage:5L;
  Alcotest.(check bool) "gone" true (Pagetable.lookup pt ~vpage:5L = None)

let test_pagetable_reverse_lookup () =
  let pt = Pagetable.create () in
  Pagetable.map pt ~vpage:1L { frame = 7; perm = perm_rw };
  Pagetable.map pt ~vpage:2L { frame = 7; perm = perm_rw };
  Pagetable.map pt ~vpage:3L { frame = 8; perm = perm_rw };
  let vps = List.sort compare (Pagetable.vpages_of_frame pt 7) in
  Alcotest.(check (list int64)) "two mappings" [ 1L; 2L ] vps;
  Pagetable.unmap pt ~vpage:1L;
  Pagetable.unmap pt ~vpage:2L;
  Alcotest.(check (list int64)) "none" [] (Pagetable.vpages_of_frame pt 7)

let test_pagetable_remap_updates_refs () =
  let pt = Pagetable.create () in
  Pagetable.map pt ~vpage:1L { frame = 7; perm = perm_rw };
  Pagetable.map pt ~vpage:1L { frame = 8; perm = perm_rw };
  Alcotest.(check (list int64)) "old frame freed" [] (Pagetable.vpages_of_frame pt 7);
  Alcotest.(check (list int64)) "new frame" [ 1L ] (Pagetable.vpages_of_frame pt 8)

let test_pagetable_copy_independent () =
  let pt = Pagetable.create () in
  Pagetable.map pt ~vpage:1L { frame = 7; perm = perm_rw };
  let clone = Pagetable.copy pt in
  Pagetable.unmap clone ~vpage:1L;
  Alcotest.(check bool) "original intact" true (Pagetable.lookup pt ~vpage:1L <> None)

let prop_pagetable_refcounts =
  QCheck2.Test.make ~name:"reverse lookup matches forward table" ~count:200
    QCheck2.Gen.(list (pair (int_bound 50) (int_bound 10)))
    (fun ops ->
      let pt = Pagetable.create () in
      List.iter
        (fun (vp, frame) ->
          if frame = 0 then Pagetable.unmap pt ~vpage:(Int64.of_int vp)
          else Pagetable.map pt ~vpage:(Int64.of_int vp) { frame; perm = perm_rw })
        ops;
      (* For every frame, vpages_of_frame agrees with a scan. *)
      let ok = ref true in
      for frame = 1 to 10 do
        let via_reverse = List.sort compare (Pagetable.vpages_of_frame pt frame) in
        let via_scan = ref [] in
        Pagetable.iter pt (fun vp pte ->
            if pte.Pagetable.frame = frame then via_scan := vp :: !via_scan);
        if via_reverse <> List.sort compare !via_scan then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Radix page table: the 4-level validation model                      *)

let make_radix () =
  let mem = Phys_mem.create ~frames:512 in
  let next = ref 9 in
  let alloc () =
    incr next;
    if !next < 512 then Some !next else None
  in
  Radix_pagetable.create mem ~alloc_frame:alloc

let test_radix_basic () =
  let rt = make_radix () in
  Alcotest.(check bool) "empty" true (Radix_pagetable.lookup rt ~vpage:0x400L = None);
  Radix_pagetable.map rt ~vpage:0x400L { Pagetable.frame = 77; perm = perm_user_rw };
  (match Radix_pagetable.lookup rt ~vpage:0x400L with
  | Some pte ->
      Alcotest.(check int) "frame" 77 pte.Pagetable.frame;
      Alcotest.(check bool) "user" true pte.Pagetable.perm.user
  | None -> Alcotest.fail "missing");
  Alcotest.(check int) "full walk" 4 (Radix_pagetable.walk_length rt ~vpage:0x400L);
  Radix_pagetable.unmap rt ~vpage:0x400L;
  Alcotest.(check bool) "unmapped" true (Radix_pagetable.lookup rt ~vpage:0x400L = None)

let test_radix_sparse_levels () =
  let rt = make_radix () in
  (* Two pages far apart share only the root. *)
  Radix_pagetable.map rt ~vpage:0L { Pagetable.frame = 1; perm = perm_rw };
  let nodes_one = List.length (Radix_pagetable.node_frames rt) in
  Radix_pagetable.map rt ~vpage:(Int64.shift_left 1L 35) { Pagetable.frame = 2; perm = perm_rw };
  let nodes_two = List.length (Radix_pagetable.node_frames rt) in
  Alcotest.(check int) "one path = root + 3 nodes" 4 nodes_one;
  Alcotest.(check int) "second distant path adds 3" (nodes_one + 3) nodes_two;
  (* Adjacent page reuses the whole path. *)
  Radix_pagetable.map rt ~vpage:1L { Pagetable.frame = 3; perm = perm_rw };
  Alcotest.(check int) "adjacent reuses nodes" nodes_two
    (List.length (Radix_pagetable.node_frames rt))

let test_radix_kernel_half_folding () =
  let rt = make_radix () in
  (* Canonical kernel addresses walk like their low-48-bit image. *)
  let kernel_vpage = Int64.shift_right_logical Layout.kernel_data_start 12 in
  Radix_pagetable.map rt ~vpage:kernel_vpage { Pagetable.frame = 42; perm = perm_rw };
  match Radix_pagetable.lookup rt ~vpage:kernel_vpage with
  | Some pte -> Alcotest.(check int) "kernel mapping" 42 pte.Pagetable.frame
  | None -> Alcotest.fail "kernel-half mapping lost"

(* The central property: the abstract table used by the kernel and the
   radix model agree on every lookup after any operation sequence. *)
let prop_radix_equivalent_to_abstract =
  QCheck2.Test.make ~name:"radix table = abstract table" ~count:150
    QCheck2.Gen.(list_size (int_range 1 60) (triple (int_bound 4000) (int_bound 50) bool))
    (fun ops ->
      let abstract = Pagetable.create () in
      let radix = make_radix () in
      List.iter
        (fun (vp, frame, unmap) ->
          (* Spread the pages across several levels. *)
          let vpage = Int64.of_int ((vp * 7919) land 0xfffffff) in
          if unmap then begin
            Pagetable.unmap abstract ~vpage;
            Radix_pagetable.unmap radix ~vpage
          end
          else begin
            let pte =
              {
                Pagetable.frame = frame + 1;
                perm = { writable = frame mod 2 = 0; user = frame mod 3 = 0; executable = frame mod 5 = 0 };
              }
            in
            Pagetable.map abstract ~vpage pte;
            Radix_pagetable.map radix ~vpage pte
          end)
        ops;
      (* Compare on every touched page. *)
      List.for_all
        (fun (vp, _, _) ->
          let vpage = Int64.of_int ((vp * 7919) land 0xfffffff) in
          Pagetable.lookup abstract ~vpage = Radix_pagetable.lookup radix ~vpage)
        ops)

(* ------------------------------------------------------------------ *)
(* Machine: translation and permissions                                *)

let bare_machine ~frames ~seed =
  Vg_fleet.Node_config.(
    default |> with_phys_frames frames |> with_disk_sectors 64 |> with_seed seed
    |> create_machine)

let make_machine () = bare_machine ~frames:256 ~seed:"test"

let test_translate_kernel () =
  let m = make_machine () in
  let kva = Layout.kernel_data_start in
  Pagetable.map (Machine.kernel_pt m)
    ~vpage:(Int64.shift_right_logical kva 12)
    { frame = 3; perm = perm_rw };
  Machine.write_virt m kva ~len:8 0xabcdL;
  Alcotest.(check int64) "kernel rw" 0xabcdL (Machine.read_virt m kva ~len:8);
  Alcotest.(check int64) "lands in frame 3" 0xabcdL
    (Phys_mem.read (Machine.mem m) ~addr:0x3000L ~len:8)

let test_translate_user_privilege () =
  let m = make_machine () in
  let uva = 0x400000L in
  Pagetable.map (Machine.current_pt m)
    ~vpage:(Int64.shift_right_logical uva 12)
    { frame = 4; perm = perm_user_rw };
  Machine.set_privilege m Machine.User;
  Machine.write_virt m uva ~len:4 7L;
  Alcotest.(check int64) "user rw" 7L (Machine.read_virt m uva ~len:4);
  (* Kernel-only page is invisible to user code. *)
  Pagetable.map (Machine.current_pt m) ~vpage:0x500L { frame = 5; perm = perm_rw };
  Alcotest.(check bool) "user blocked" true
    (try
       ignore (Machine.read_virt m 0x500000L ~len:8);
       false
     with Machine.Page_fault { present = true; _ } -> true)

let test_translate_write_protect () =
  let m = make_machine () in
  let uva = 0x400000L in
  Pagetable.map (Machine.current_pt m)
    ~vpage:(Int64.shift_right_logical uva 12)
    { frame = 4; perm = perm_user_ro };
  Machine.set_privilege m Machine.User;
  Alcotest.(check int64) "read ok" 0L (Machine.read_virt m uva ~len:8);
  Alcotest.(check bool) "write faults" true
    (try
       Machine.write_virt m uva ~len:8 1L;
       false
     with Machine.Page_fault { access = Machine.Write; present = true; _ } -> true)

let test_translate_missing () =
  let m = make_machine () in
  Alcotest.(check bool) "not present" true
    (try
       ignore (Machine.read_virt m 0x1234000L ~len:8);
       false
     with Machine.Page_fault { present = false; _ } -> true)

let test_tlb_staleness_and_flush () =
  (* Hardware behaviour: after unmapping, a stale TLB entry still
     translates until the TLB is flushed. *)
  let m = make_machine () in
  let va = 0x400000L in
  let vpage = Int64.shift_right_logical va 12 in
  Pagetable.map (Machine.current_pt m) ~vpage { frame = 4; perm = perm_user_rw };
  ignore (Machine.read_virt m va ~len:8);
  Pagetable.unmap (Machine.current_pt m) ~vpage;
  (* stale entry: still readable *)
  ignore (Machine.read_virt m va ~len:8);
  Machine.flush_tlb m;
  Alcotest.(check bool) "faults after flush" true
    (try
       ignore (Machine.read_virt m va ~len:8);
       false
     with Machine.Page_fault _ -> true)

let test_context_switch_flushes_and_charges () =
  let m = make_machine () in
  let pt2 = Pagetable.create () in
  let before = Machine.cycles m in
  Machine.set_current_pt m pt2;
  Alcotest.(check bool) "charged" true (Machine.cycles m - before >= Cost.context_switch)

let test_bulk_virt_cross_page () =
  let m = make_machine () in
  let va = 0x400000L in
  Pagetable.map (Machine.current_pt m)
    ~vpage:(Int64.shift_right_logical va 12)
    { frame = 10; perm = perm_user_rw };
  Pagetable.map (Machine.current_pt m)
    ~vpage:(Int64.add (Int64.shift_right_logical va 12) 1L)
    { frame = 20; perm = perm_user_rw };
  let data = Bytes.init 6000 (fun i -> Char.chr (i mod 251)) in
  Machine.write_bytes_virt m va data;
  Alcotest.(check bytes) "cross-page round trip" data
    (Machine.read_bytes_virt m va ~len:6000);
  (* The two halves really live in different, non-adjacent frames. *)
  Alcotest.(check int64) "first frame" (Int64.of_int (Char.code (Bytes.get data 0)))
    (Phys_mem.read (Machine.mem m) ~addr:0xa000L ~len:1);
  Alcotest.(check int64) "second frame"
    (Int64.of_int (Char.code (Bytes.get data 4096)))
    (Phys_mem.read (Machine.mem m) ~addr:0x14000L ~len:1)

(* ------------------------------------------------------------------ *)
(* Devices                                                             *)

let test_disk_round_trip_and_cost () =
  let m = make_machine () in
  let before = Machine.cycles m in
  let payload = Bytes.of_string "hello disk" in
  Disk.write_sector (Machine.disk m) 7 payload;
  let back = Disk.read_sector (Machine.disk m) 7 in
  Alcotest.(check string) "data" "hello disk" (Bytes.to_string (Bytes.sub back 0 10));
  Alcotest.(check bool) "latency charged" true
    (Machine.cycles m - before >= 2 * Cost.disk_latency)

let test_disk_bad_sector () =
  let m = make_machine () in
  Alcotest.(check bool) "oob" true
    (try
       ignore (Disk.read_sector (Machine.disk m) 9999);
       false
     with Disk.Bad_sector _ -> true)

let test_nic_pair () =
  let m = make_machine () in
  let before = Machine.cycles m in
  Nic.transmit (Machine.nic m) (Bytes.of_string "ping");
  (match Nic.receive (Machine.remote_nic m) with
  | Some b -> Alcotest.(check string) "payload" "ping" (Bytes.to_string b)
  | None -> Alcotest.fail "nothing received");
  Alcotest.(check bool) "wire time charged" true
    (Machine.cycles m - before >= Cost.nic_per_packet);
  Alcotest.(check bool) "queue empty" true (Nic.receive (Machine.remote_nic m) = None)

let test_nic_large_frame_costs_more () =
  let m = make_machine () in
  Nic.transmit (Machine.nic m) (Bytes.make 100 'x');
  let small = Machine.cycles m in
  Nic.transmit (Machine.nic m) (Bytes.make 100_000 'x');
  let large = Machine.cycles m - small in
  Alcotest.(check bool) "bandwidth scales" true (large > 100 * small / 2)

let test_iommu_blocks_protected () =
  let m = make_machine () in
  Iommu.set_protected (Machine.iommu m) (fun f -> f = 5);
  (* DMA into frame 4 fine, frame 5 blocked. *)
  Iommu.dma_write (Machine.iommu m) (Machine.mem m) ~addr:0x4000L (Bytes.make 16 'a');
  Alcotest.(check bool) "blocked" true
    (try
       Iommu.dma_write (Machine.iommu m) (Machine.mem m) ~addr:0x5000L (Bytes.make 16 'a');
       false
     with Iommu.Dma_blocked 5 -> true);
  (* A transfer that *crosses into* a protected frame is also blocked. *)
  Alcotest.(check bool) "straddle blocked" true
    (try
       Iommu.dma_write (Machine.iommu m) (Machine.mem m) ~addr:0x4ff8L (Bytes.make 16 'a');
       false
     with Iommu.Dma_blocked 5 -> true)

let test_tpm_deterministic () =
  let a = Tpm.create ~seed:"machine-1" in
  let b = Tpm.create ~seed:"machine-1" in
  let c = Tpm.create ~seed:"machine-2" in
  Alcotest.(check bytes) "same seed same key" (Tpm.storage_key a) (Tpm.storage_key b);
  Alcotest.(check bool) "different machines differ" false
    (Bytes.equal (Tpm.storage_key a) (Tpm.storage_key c))

let test_tpm_nvram () =
  let t = Tpm.create ~seed:"x" in
  Tpm.nvram_store t "sealed-vg-key" (Bytes.of_string "blob");
  (match Tpm.nvram_load t "sealed-vg-key" with
  | Some b -> Alcotest.(check string) "blob" "blob" (Bytes.to_string b)
  | None -> Alcotest.fail "missing");
  Alcotest.(check bool) "absent" true (Tpm.nvram_load t "nope" = None)

let test_console () =
  let c = Console.create () in
  Console.write c "kernel: boot";
  Console.write c "rootkit: stolen=s3cret";
  Alcotest.(check bool) "finds secret" true (Console.contains c "s3cret");
  Alcotest.(check bool) "no false positive" false (Console.contains c "absent");
  Alcotest.(check int) "two lines" 2 (List.length (Console.lines c));
  Console.clear c;
  Alcotest.(check int) "cleared" 0 (List.length (Console.lines c))

let prop_phys_roundtrip =
  QCheck2.Test.make ~name:"phys memory word round-trips" ~count:500
    QCheck2.Gen.(pair (int_bound 4000) (map Int64.of_int int))
    (fun (word_index, v) ->
      let m = Phys_mem.create ~frames:16 in
      let addr = Int64.of_int (word_index * 8) in
      Phys_mem.write m ~addr ~len:8 v;
      Phys_mem.read m ~addr ~len:8 = v)

let prop_phys_bulk_matches_word =
  QCheck2.Test.make ~name:"bulk reads agree with word reads" ~count:200
    QCheck2.Gen.(pair (int_bound 2000) (string_size ~gen:(char_range '\000' '\255') (int_range 1 64)))
    (fun (off, s) ->
      let m = Phys_mem.create ~frames:16 in
      let addr = Int64.of_int off in
      Phys_mem.write_bytes m ~addr (Bytes.of_string s);
      let bulk = Phys_mem.read_bytes m ~addr ~len:(String.length s) in
      let by_word = Bytes.create (String.length s) in
      String.iteri
        (fun i _ ->
          Bytes.set by_word i
            (Char.chr
               (Int64.to_int (Phys_mem.read m ~addr:(Int64.add addr (Int64.of_int i)) ~len:1))))
        s;
      Bytes.equal bulk by_word && Bytes.to_string bulk = s)

let prop_disk_persistence =
  QCheck2.Test.make ~name:"disk sectors persist independently" ~count:100
    QCheck2.Gen.(list_size (int_range 1 20) (pair (int_bound 63) (string_size ~gen:printable (int_range 1 100))))
    (fun writes ->
      let d = Disk.create ~sectors:64 () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (sector, data) ->
          Disk.write_sector d sector (Bytes.of_string data);
          Hashtbl.replace model sector data)
        writes;
      Hashtbl.fold
        (fun sector data ok ->
          ok
          && Bytes.to_string (Bytes.sub (Disk.read_sector d sector) 0 (String.length data))
             = data)
        model true)

(* ------------------------------------------------------------------ *)
(* Bulk copies against a byte-at-a-time reference                      *)

(* Every bulk primitive must agree with the byte accessors it stands
   for: the same bytes, the same fault, and the charges of one modelled
   copy — one [Cost.copy_cycles len], plus one TLB miss per page
   translated (the TLB is flushed first) up to and including a faulting
   page.  The window is six pages at [copy_base]; bit [i] of [mapped]
   maps page [i] to frame [copy_frame i].  The blit forms copy at a
   random offset [off] into a larger buffer whose other bytes must stay
   untouched. *)

let copy_pages = 6
let copy_base = 0x400000L
let copy_frame i = 10 + i

let copy_case_gen =
  QCheck2.Gen.(
    let* start = int_bound (3 * 4096) in
    let* len = int_bound (3 * 4096) in
    let* mapped = int_bound ((1 lsl copy_pages) - 1) in
    let* off = int_bound 64 in
    let* seed = int_bound 1_000_000 in
    return (start, len, mapped, off, seed))

let print_copy_case (start, len, mapped, off, seed) =
  Printf.sprintf "start=%d len=%d mapped=0x%x off=%d seed=%d" start len mapped off seed

(* A buffer of [off + len + 7] bytes holding [data] at [off], the rest
   a fill byte; and the [len] bytes at [off] of such a buffer, if every
   other byte still holds the fill. *)
let fill = '\xa5'

let framed ~off data =
  let b = Bytes.make (off + Bytes.length data + 7) fill in
  Bytes.blit data 0 b off (Bytes.length data);
  b

let unframe ~off ~len b =
  let rest_intact = ref true in
  Bytes.iteri (fun i c -> if (i < off || i >= off + len) && c <> fill then rest_intact := false) b;
  if !rest_intact then Some (Bytes.sub b off len) else None

let pattern seed i = Char.chr (((seed * 7) + (i * 13) + (i / 4096)) land 0xff)

let copy_machine ~mapped ~seed =
  let m = bare_machine ~frames:64 ~seed:"copy" in
  for i = 0 to copy_pages - 1 do
    if mapped land (1 lsl i) <> 0 then
      Pagetable.map (Machine.current_pt m)
        ~vpage:(Int64.add (Int64.shift_right_logical copy_base 12) (Int64.of_int i))
        { frame = copy_frame i; perm = perm_user_rw };
    for b = 0 to 4095 do
      Phys_mem.write (Machine.mem m)
        ~addr:(Int64.of_int ((copy_frame i * 4096) + b))
        ~len:1
        (Int64.of_int (Char.code (pattern seed ((i * 4096) + b))))
    done
  done;
  Machine.flush_tlb m;
  m

(* The window's frames, read a byte at a time. *)
let window_frames m =
  String.init (copy_pages * 4096) (fun i ->
      Char.chr
        (Int64.to_int
           (Phys_mem.read (Machine.mem m)
              ~addr:(Int64.of_int ((copy_frame (i / 4096) * 4096) + (i mod 4096)))
              ~len:1)))

let pages_translated ~start ~len ~mapped =
  if len = 0 then 0
  else begin
    let first = start / 4096 and last = (start + len - 1) / 4096 in
    let rec go p =
      if p > last then last - first + 1
      else if mapped land (1 lsl p) = 0 then p - first + 1
      else go (p + 1)
    in
    go first
  end

let expected_copy_cycles ~start ~len ~mapped =
  Cost.copy_cycles len + (Cost.tlb_miss * pages_translated ~start ~len ~mapped)

let fault_outcome f =
  match f () with v -> Ok v | exception Machine.Page_fault { va; _ } -> Error va

let read_by_bytes m va len =
  fault_outcome (fun () ->
      Bytes.init len (fun i ->
          Char.chr (Int64.to_int (Machine.read_virt m (Int64.add va (Int64.of_int i)) ~len:1))))

let write_by_bytes m va data =
  fault_outcome (fun () ->
      Bytes.iteri
        (fun i c ->
          Machine.write_virt m (Int64.add va (Int64.of_int i)) ~len:1 (Int64.of_int (Char.code c)))
        data)

let prop_virt_read_matches_bytes =
  QCheck2.Test.make ~name:"bulk virtual read = byte reads" ~count:120 ~print:print_copy_case
    copy_case_gen (fun (start, len, mapped, off, seed) ->
      let m = copy_machine ~mapped ~seed in
      let va = Int64.add copy_base (Int64.of_int start) in
      let dst = framed ~off (Bytes.make len fill) in
      let c0 = Machine.cycles m in
      let into = fault_outcome (fun () -> Machine.read_virt_into m va dst ~off ~len) in
      let cycles = Machine.cycles m - c0 in
      let reference = read_by_bytes m va len in
      let into = Result.map (fun () -> unframe ~off ~len dst) into in
      into = Result.map Option.some reference
      && fault_outcome (fun () -> Machine.read_bytes_virt m va ~len) = reference
      && cycles = expected_copy_cycles ~start ~len ~mapped)

let prop_virt_write_matches_bytes =
  QCheck2.Test.make ~name:"bulk virtual write = byte writes" ~count:120 ~print:print_copy_case
    copy_case_gen (fun (start, len, mapped, off, seed) ->
      let m = copy_machine ~mapped ~seed and ref_m = copy_machine ~mapped ~seed in
      let va = Int64.add copy_base (Int64.of_int start) in
      let data = Bytes.init len (fun i -> pattern (seed + 1) i) in
      let c0 = Machine.cycles m in
      let bulk =
        fault_outcome (fun () -> Machine.write_virt_from m va (framed ~off data) ~off ~len)
      in
      let cycles = Machine.cycles m - c0 in
      bulk = write_by_bytes ref_m va data
      && window_frames m = window_frames ref_m
      && cycles = expected_copy_cycles ~start ~len ~mapped)

(* Physical bulk access over a six-frame memory: ranges may run off the
   end, where the bulk and byte forms must fail at the same address. *)
let phys_outcome f =
  match f () with v -> Ok v | exception Phys_mem.Bad_physical_address a -> Error a

let prop_phys_bulk_matches_bytes =
  QCheck2.Test.make ~name:"bulk physical read/write = byte access" ~count:150
    ~print:print_copy_case copy_case_gen (fun (start, len, _, off, seed) ->
      let frames = copy_pages in
      let addr = Int64.of_int (start + (seed mod (3 * 4096))) in
      let data = Bytes.init len (fun i -> pattern seed i) in
      let bulk = Phys_mem.create ~frames and by_byte = Phys_mem.create ~frames in
      let read_by_bytes mem =
        phys_outcome (fun () ->
            Bytes.init len (fun i ->
                Char.chr
                  (Int64.to_int (Phys_mem.read mem ~addr:(Int64.add addr (Int64.of_int i)) ~len:1))))
      in
      let wrote =
        phys_outcome (fun () -> Phys_mem.blit_from bulk ~addr (framed ~off data) ~off ~len)
      in
      let ref_wrote =
        phys_outcome (fun () ->
            Bytes.iteri
              (fun i c ->
                Phys_mem.write by_byte ~addr:(Int64.add addr (Int64.of_int i)) ~len:1
                  (Int64.of_int (Char.code c)))
              data)
      in
      let dump mem =
        String.init (frames * 4096) (fun i ->
            Char.chr (Int64.to_int (Phys_mem.read mem ~addr:(Int64.of_int i) ~len:1)))
      in
      let dst = framed ~off (Bytes.make len fill) in
      let read_into = phys_outcome (fun () -> Phys_mem.blit_to bulk ~addr dst ~off ~len) in
      let reference = read_by_bytes bulk in
      wrote = ref_wrote
      && dump bulk = dump by_byte
      && Result.map (fun () -> unframe ~off ~len dst) read_into = Result.map Option.some reference
      && phys_outcome (fun () -> Phys_mem.read_bytes bulk ~addr ~len) = reference)

(* memcpy_virt has memmove semantics: overlapping ranges, in either
   direction, end with the destination holding the source's original
   bytes. *)
let test_memcpy_virt_overlap () =
  List.iter
    (fun (src, dst) ->
      let m = copy_machine ~mapped:0b111111 ~seed:7 in
      let src = Int64.add copy_base (Int64.of_int src)
      and dst = Int64.add copy_base (Int64.of_int dst) in
      let len = 9000 in
      let original = Machine.read_bytes_virt m src ~len in
      Machine.memcpy_virt m ~dst ~src ~len;
      match read_by_bytes m dst len with
      | Ok copied -> Alcotest.(check bytes) "destination holds the source" original copied
      | Error _ -> Alcotest.fail "window is fully mapped")
    [ (1000, 4000); (5000, 4300) ]

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "vg_machine"
    [
      ( "phys_mem",
        [
          Alcotest.test_case "read/write" `Quick test_phys_rw;
          Alcotest.test_case "bounds" `Quick test_phys_bounds;
          Alcotest.test_case "bulk cross-frame" `Quick test_phys_bulk_cross_frame;
          Alcotest.test_case "zero frame" `Quick test_phys_zero_frame;
        ] );
      ( "pagetable",
        Alcotest.test_case "map/lookup/unmap" `Quick test_pagetable_basic
        :: Alcotest.test_case "reverse lookup" `Quick test_pagetable_reverse_lookup
        :: Alcotest.test_case "remap updates refs" `Quick test_pagetable_remap_updates_refs
        :: Alcotest.test_case "copy independent" `Quick test_pagetable_copy_independent
        :: qcheck [ prop_pagetable_refcounts ] );
      ( "translation",
        [
          Alcotest.test_case "kernel mapping" `Quick test_translate_kernel;
          Alcotest.test_case "user privilege" `Quick test_translate_user_privilege;
          Alcotest.test_case "write protection" `Quick test_translate_write_protect;
          Alcotest.test_case "missing page" `Quick test_translate_missing;
          Alcotest.test_case "TLB staleness and flush" `Quick test_tlb_staleness_and_flush;
          Alcotest.test_case "context switch" `Quick test_context_switch_flushes_and_charges;
          Alcotest.test_case "bulk cross-page" `Quick test_bulk_virt_cross_page;
        ] );
      ( "bulk-copy",
        Alcotest.test_case "memcpy_virt overlap" `Quick test_memcpy_virt_overlap
        :: qcheck
             [
               prop_phys_bulk_matches_bytes;
               prop_virt_read_matches_bytes;
               prop_virt_write_matches_bytes;
             ] );
      ( "radix-pagetable",
        Alcotest.test_case "basic walk" `Quick test_radix_basic
        :: Alcotest.test_case "sparse levels" `Quick test_radix_sparse_levels
        :: Alcotest.test_case "kernel-half folding" `Quick test_radix_kernel_half_folding
        :: qcheck [ prop_radix_equivalent_to_abstract ] );
      ( "hardware-properties",
        qcheck [ prop_phys_roundtrip; prop_phys_bulk_matches_word; prop_disk_persistence ] );
      ( "devices",
        [
          Alcotest.test_case "disk round-trip + cost" `Quick test_disk_round_trip_and_cost;
          Alcotest.test_case "disk bad sector" `Quick test_disk_bad_sector;
          Alcotest.test_case "nic pair" `Quick test_nic_pair;
          Alcotest.test_case "nic bandwidth" `Quick test_nic_large_frame_costs_more;
          Alcotest.test_case "iommu protection" `Quick test_iommu_blocks_protected;
          Alcotest.test_case "tpm determinism" `Quick test_tpm_deterministic;
          Alcotest.test_case "tpm nvram" `Quick test_tpm_nvram;
          Alcotest.test_case "console" `Quick test_console;
        ] );
    ]
