(* The load-time image verifier, attacked and trusted.

   Each invariant class gets a dedicated "evil pass": a deliberately
   miscompiled or post-link-mutated image that the verifier must reject
   with the right invariant, function and instruction location.  The
   flip side is the no-false-positive property: everything the real
   pipeline emits — at every optimisation level, over random programs —
   must prove clean. *)

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)

(* One function exercising all four memory-operand shapes: load, store,
   atomic, and both pointers of memcpy. *)
let mem_mix_program () =
  let b = Builder.create () in
  Builder.func b "mem_mix" ~params:[ "p"; "q" ];
  let v = Builder.load b (Reg "p") in
  Builder.store b ~src:v ~addr:(Reg "q") ();
  let _ = Builder.atomic_rmw b Add ~addr:(Reg "p") (Imm 1L) in
  Builder.memcpy b ~dst:(Reg "q") ~src:(Reg "p") ~len:(Imm 16L);
  Builder.ret b (Some v);
  Builder.program b

(* Two functions laid out back to back: forged direct jumps and
   boundary fall-throughs need a neighbour to cross into. *)
let two_func_program () =
  let b = Builder.create () in
  Builder.func b "leaf" ~params:[ "p" ];
  let v = Builder.load b (Reg "p") in
  Builder.ret b (Some v);
  Builder.func b "main" ~params:[ "p" ];
  let r = Builder.call b "leaf" [ Reg "p" ] in
  Builder.ret b (Some r);
  Builder.program b

(* A store stashed in a block no path reaches. *)
let dead_store_program () =
  let b = Builder.create () in
  Builder.func b "dead" ~params:[ "p" ];
  Builder.ret b (Some (Imm 0L));
  Builder.block b "limbo";
  Builder.store b ~src:(Imm 1L) ~addr:(Reg "p") ();
  Builder.ret b (Some (Imm 0L));
  Builder.program b

let compile_vg ?(optimize = false) program =
  (Pipeline.compile_kernel_code ~mode:Pipeline.Virtual_ghost ~optimize program)
    .Pipeline.linked

(* ------------------------------------------------------------------ *)
(* The evil sandbox pass: instrument every memory operation except the
   [skip]-th one (in program order), then lower with CFI like the real
   pipeline.  A compiler bug that drops exactly one mask.              *)

let evil_instrument ~skip (program : Ir.program) : Ir.program =
  let count = ref (-1) in
  let rewrite (i : Ir.instr) =
    match i with
    | Load _ | Store _ | Atomic_rmw _ | Memcpy _ ->
        incr count;
        if !count = skip then [ i ] else Sandbox_pass.instrument_instr i
    | _ -> [ i ]
  in
  let block (blk : Ir.block) =
    { blk with instrs = List.concat_map rewrite blk.instrs }
  in
  let func (f : Ir.func) = { f with blocks = List.map block f.blocks } in
  { Ir.funcs = List.map func program.Ir.funcs }

let link_evil ~skip program =
  Linker.link (Codegen.compile ~cfi:true (evil_instrument ~skip program))

let is_mem_instr : Linker.instr -> bool = function
  | LLoad _ | LStore _ | LAtomic _ | LMemcpy _ -> true
  | _ -> false

(* Dropping the mask on memory op [skip] must produce only Mask
   violations, all located at one slot that really holds a memory
   instruction of [mem_mix]. *)
let test_evil_mask_dropped () =
  (* ops 0..3: load, store, atomic, memcpy (the memcpy has two operands
     behind one instruction, hence two violations at one slot). *)
  List.iter
    (fun skip ->
      let image = link_evil ~skip (mem_mix_program ()) in
      match Image_verify.check image with
      | Ok () -> Alcotest.failf "op %d: dropped mask not caught" skip
      | Error vs ->
          let expected = if skip = 3 then 2 else 1 in
          Alcotest.(check int)
            (Printf.sprintf "op %d: violation count" skip)
            expected (List.length vs);
          List.iter
            (fun (v : Image_verify.violation) ->
              Alcotest.(check bool)
                (Printf.sprintf "op %d: mask invariant" skip)
                true
                (v.invariant = Image_verify.Mask);
              Alcotest.(check string)
                (Printf.sprintf "op %d: right function" skip)
                "mem_mix" v.func;
              Alcotest.(check bool)
                (Printf.sprintf "op %d: slot %d holds the memory op" skip v.slot)
                true
                (is_mem_instr image.Linker.lcode.(v.slot)))
            vs)
    [ 0; 1; 2; 3 ];
  (* And the honest pass over the same program proves clean. *)
  Alcotest.(check bool) "honest image proves" true
    (Image_verify.check (compile_vg (mem_mix_program ())) = Ok ())

(* ------------------------------------------------------------------ *)
(* Post-link mutations: a hostile cache rewriting one slot             *)

let with_mutable_arrays (image : Linker.image) =
  {
    image with
    Linker.lcode = Array.copy image.Linker.lcode;
    Linker.label_of = Array.copy image.Linker.label_of;
    Linker.ret_label_of = Array.copy image.Linker.ret_label_of;
  }

let find_slot image p =
  let found = ref (-1) in
  Array.iteri
    (fun i instr -> if !found < 0 && p instr then found := i)
    image.Linker.lcode;
  if !found < 0 then Alcotest.fail "fixture: expected instruction not found";
  !found

let fid_of image name =
  match Linker.find_func image name with
  | Some i -> i
  | None -> Alcotest.failf "fixture: no function %s" name

let find_slot_in image fid p =
  let found = ref (-1) in
  Array.iteri
    (fun i instr ->
      if !found < 0 && image.Linker.owner_of.(i) = fid && p instr then found := i)
    image.Linker.lcode;
  if !found < 0 then Alcotest.fail "fixture: expected instruction not found";
  !found

let test_evil_unchecked_return () =
  let image = with_mutable_arrays (compile_vg (Fixtures.rec_sum_program ())) in
  let slot =
    find_slot image (function Linker.LRetChecked _ -> true | _ -> false)
  in
  (match image.Linker.lcode.(slot) with
  | Linker.LRetChecked { value; _ } -> image.Linker.lcode.(slot) <- Linker.LRet value
  | _ -> assert false);
  match Image_verify.check image with
  | Ok () -> Alcotest.fail "unchecked return not caught"
  | Error [ v ] ->
      Alcotest.(check bool) "cfi-exit invariant" true
        (v.invariant = Image_verify.Cfi_exit);
      Alcotest.(check string) "right function" "sum" v.func;
      Alcotest.(check int) "right slot" slot v.slot
  | Error vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

let test_evil_entry_label_removed () =
  let image = with_mutable_arrays (compile_vg (Fixtures.rec_sum_program ())) in
  let fid =
    match Linker.find_func image "sum" with Some i -> i | None -> Alcotest.fail "sum?"
  in
  let entry = image.Linker.funcs.(fid).Linker.f_entry in
  image.Linker.lcode.(entry) <- Linker.LBin { dst = 0; op = Ir.Or; a = Imm 0L; b = Imm 0L };
  image.Linker.label_of.(entry) <- Linker.no_label;
  match Image_verify.check image with
  | Ok () -> Alcotest.fail "missing entry label not caught"
  | Error vs ->
      Alcotest.(check bool) "cfi-label violation at the entry slot" true
        (List.exists
           (fun (v : Image_verify.violation) ->
             v.invariant = Image_verify.Cfi_label && v.func = "sum" && v.slot = entry)
           vs)

let test_evil_stray_label () =
  let image = with_mutable_arrays (compile_vg (Fixtures.rec_sum_program ())) in
  let slot =
    find_slot image (function
      | Linker.LBin { op = Ir.Sub; _ } -> true
      | _ -> false)
  in
  image.Linker.lcode.(slot) <- Linker.LCfiLabel Cfi_pass.shared_label;
  image.Linker.label_of.(slot) <- Int32.to_int Cfi_pass.shared_label;
  match Image_verify.check image with
  | Ok () -> Alcotest.fail "stray label not caught"
  | Error vs ->
      Alcotest.(check bool) "stray cfi-label flagged at its slot" true
        (List.exists
           (fun (v : Image_verify.violation) ->
             v.invariant = Image_verify.Cfi_label && v.func = "sum" && v.slot = slot)
           vs)

let test_evil_label_metadata_mismatch () =
  (* The executor trusts [label_of] without reading the code: forging
     the metadata alone must already be fatal. *)
  let image = with_mutable_arrays (compile_vg (Fixtures.rec_sum_program ())) in
  let slot =
    find_slot image (function
      | Linker.LBin { op = Ir.Sub; _ } -> true
      | _ -> false)
  in
  image.Linker.label_of.(slot) <- Int32.to_int Cfi_pass.shared_label;
  match Image_verify.check image with
  | Ok () -> Alcotest.fail "forged label_of not caught"
  | Error vs ->
      Alcotest.(check bool) "metadata mismatch flagged at its slot" true
        (List.exists
           (fun (v : Image_verify.violation) ->
             v.invariant = Image_verify.Cfi_label && v.slot = slot)
           vs)

let test_evil_privileged_op () =
  let image = with_mutable_arrays (compile_vg (Fixtures.rec_sum_program ())) in
  let slot =
    find_slot image (function
      | Linker.LBin { op = Ir.Sub; _ } -> true
      | _ -> false)
  in
  image.Linker.lcode.(slot) <- Linker.LIoWrite { port = Imm 0x3f8L; src = Imm 0L };
  match Image_verify.check image with
  | Ok () -> Alcotest.fail "raw port write not caught"
  | Error [ v ] ->
      Alcotest.(check bool) "privileged invariant" true
        (v.invariant = Image_verify.Privileged);
      Alcotest.(check string) "right function" "sum" v.func;
      Alcotest.(check int) "right slot" slot v.slot
  | Error vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

let test_evil_unvetted_extern () =
  let image = with_mutable_arrays (compile_vg (Fixtures.rec_sum_program ())) in
  let slot =
    find_slot image (function
      | Linker.LBin { op = Ir.Sub; _ } -> true
      | _ -> false)
  in
  image.Linker.lcode.(slot) <-
    Linker.LCallExtern { dst = -1; name = "host.escape"; args = [||] };
  match Image_verify.check image with
  | Ok () -> Alcotest.fail "unvetted extern call not caught"
  | Error vs ->
      Alcotest.(check bool) "privileged violation at its slot" true
        (List.exists
           (fun (v : Image_verify.violation) ->
             v.invariant = Image_verify.Privileged && v.slot = slot)
           vs)

(* The executor runs [pc := target] on direct branches without a frame
   switch: a jump from one function into another would execute the
   target's code against the jumper's registers.  The linker refuses to
   emit that, but a forged cached image never relinks. *)
let test_evil_cross_function_jump () =
  let image = with_mutable_arrays (compile_vg (two_func_program ())) in
  let leaf = fid_of image "leaf" and main = fid_of image "main" in
  let slot =
    find_slot_in image main (function Linker.LRetChecked _ -> true | _ -> false)
  in
  image.Linker.lcode.(slot) <-
    Linker.LJmp (image.Linker.funcs.(leaf).Linker.f_entry + 1);
  match Image_verify.check image with
  | Ok () -> Alcotest.fail "cross-function jump not caught"
  | Error [ v ] ->
      Alcotest.(check bool) "control invariant" true
        (v.invariant = Image_verify.Control);
      Alcotest.(check string) "right function" "main" v.func;
      Alcotest.(check int) "right slot" slot v.slot
  | Error vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

let test_evil_jump_outside_image () =
  let image = with_mutable_arrays (compile_vg (Fixtures.rec_sum_program ())) in
  let slot = find_slot image (function Linker.LJmp _ -> true | _ -> false) in
  image.Linker.lcode.(slot) <- Linker.LJmp (Array.length image.Linker.lcode + 7);
  match Image_verify.check image with
  | Ok () -> Alcotest.fail "out-of-bounds jump not caught"
  | Error [ v ] ->
      Alcotest.(check bool) "control invariant" true
        (v.invariant = Image_verify.Control);
      Alcotest.(check int) "right slot" slot v.slot
  | Error vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

let test_evil_boundary_fallthrough () =
  (* An LJz at a function's last slot: taken it stays inside, not taken
     it falls straight through into the next function's entry. *)
  let image = with_mutable_arrays (compile_vg (two_func_program ())) in
  let leaf = fid_of image "leaf" in
  let slot =
    find_slot_in image leaf (function Linker.LRetChecked _ -> true | _ -> false)
  in
  image.Linker.lcode.(slot) <-
    Linker.LJz { cond = Imm 0L; target = image.Linker.funcs.(leaf).Linker.f_entry };
  match Image_verify.check image with
  | Ok () -> Alcotest.fail "boundary fall-through not caught"
  | Error [ v ] ->
      Alcotest.(check bool) "control invariant" true
        (v.invariant = Image_verify.Control);
      Alcotest.(check string) "right function" "leaf" v.func;
      Alcotest.(check int) "right slot" slot v.slot
  | Error vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

let test_evil_dead_block_unmasked_store () =
  (* The must-dataflow gives unreachable blocks the empty fact set, not
     top: an unmasked store hidden in dead code must still be flagged. *)
  let image = link_evil ~skip:0 (dead_store_program ()) in
  (match Image_verify.check image with
  | Ok () -> Alcotest.fail "unmasked store in dead block not caught"
  | Error vs ->
      Alcotest.(check bool) "mask violation at a store slot in 'dead'" true
        (List.exists
           (fun (v : Image_verify.violation) ->
             v.invariant = Image_verify.Mask
             && v.func = "dead"
             && is_mem_instr image.Linker.lcode.(v.slot))
           vs));
  (* The honestly instrumented dead block proves clean: its mask window
     travels with it, no reachable facts needed. *)
  Alcotest.(check bool) "honest dead block proves" true
    (Image_verify.check (compile_vg (dead_store_program ())) = Ok ())

(* ------------------------------------------------------------------ *)
(* The Spec invariant: speculation-hardened images                     *)

let compile_mitigated mitigation program =
  (Pipeline.compile_kernel_code ~mode:Pipeline.Virtual_ghost ~mitigation program)
    .Pipeline.linked

let spec_violations = function
  | Ok () -> []
  | Error vs ->
      List.filter
        (fun (v : Image_verify.violation) -> v.invariant = Image_verify.Spec)
        vs

let test_spec_fence_missing () =
  (* An image compiled without the fence pass carries classic mask
     windows and no lfences: checked as a [Fence] image, every memory
     operand must be flagged Spec (and nothing else fails — the
     architectural mask is still proven). *)
  let unfenced = compile_mitigated Mitigation.Off (mem_mix_program ()) in
  (match Image_verify.check ~mitigation:Mitigation.Fence unfenced with
  | Ok () -> Alcotest.fail "unfenced image accepted as fence-hardened"
  | Error vs ->
      (* load + store + atomic + memcpy (one fence guards both
         pointers) = 4 unfenced accesses *)
      Alcotest.(check int) "one Spec violation per unfenced access" 4
        (List.length (spec_violations (Error vs)));
      Alcotest.(check int) "nothing but Spec violations" (List.length vs)
        (List.length (spec_violations (Error vs))));
  (* The honestly fenced pipeline output proves clean under the same
     demand, and still proves the plain invariants under [Off]. *)
  let fenced = compile_mitigated Mitigation.Fence (mem_mix_program ()) in
  Alcotest.(check bool) "fenced image proves under fence" true
    (Image_verify.check ~mitigation:Mitigation.Fence fenced = Ok ());
  Alcotest.(check bool) "fenced image proves under off" true
    (Image_verify.check fenced = Ok ())

let test_spec_predicated_window_rejected () =
  (* Safe-mask demands the branchless nine-instruction window: the
     classic predicated window proves the architectural mask but is
     exactly the Spectre-v1 gadget, so it must be a Spec violation. *)
  let predicated = compile_mitigated Mitigation.Off (mem_mix_program ()) in
  (match Image_verify.check ~mitigation:Mitigation.Safe_mask predicated with
  | Ok () -> Alcotest.fail "predicated windows accepted as safe-mask"
  | Error vs ->
      Alcotest.(check bool) "Spec violations reported" true
        (spec_violations (Error vs) <> []));
  let branchless = compile_mitigated Mitigation.Safe_mask (mem_mix_program ()) in
  Alcotest.(check bool) "branchless image proves under safe-mask" true
    (Image_verify.check ~mitigation:Mitigation.Safe_mask branchless = Ok ());
  (* Either window form grants the Mask fact under any mitigation. *)
  Alcotest.(check bool) "branchless image proves under off" true
    (Image_verify.check branchless = Ok ())

(* ------------------------------------------------------------------ *)
(* The verifying cache path                                            *)

let test_cache_rejects_malformed_signed_image () =
  (* Correctly signed, yet de-instrumented: the HMAC passes, the
     verifier must still refuse — with the structured reason, not just
     a signature failure. *)
  let cache = Trans_cache.create ~key:(Bytes.of_string "vm-secret") in
  let evil = link_evil ~skip:1 (mem_mix_program ()) in
  Trans_cache.add cache ~name:"evil" ~instrumented:true evil;
  (match Trans_cache.find cache ~name:"evil" with
  | Error (Trans_cache.Rejected_by_verifier vs) ->
      Alcotest.(check bool) "mask violation reported" true
        (List.exists
           (fun (v : Image_verify.violation) -> v.invariant = Image_verify.Mask)
           vs)
  | Error e -> Alcotest.failf "wrong error: %s" (Trans_cache.describe_find_error e)
  | Ok _ -> Alcotest.fail "signed-but-malformed image accepted");
  (* The honest instrumented image round-trips through the same path. *)
  let honest = compile_vg (mem_mix_program ()) in
  Trans_cache.add cache ~name:"honest" ~instrumented:true honest;
  (match Trans_cache.find cache ~name:"honest" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "honest image refused: %s" (Trans_cache.describe_find_error e));
  (* And byte tampering is still a signature failure, checked first. *)
  Trans_cache.tamper cache ~name:"honest";
  Alcotest.(check bool) "tamper is a signature error" true
    (Trans_cache.find cache ~name:"honest" = Error Trans_cache.Bad_signature)

let test_cache_rejects_mitigation_mismatch () =
  (* A kernel booted with safe-mask must refuse an honestly signed
     translation compiled for another speculation configuration: the
     blob's recorded mitigation is part of what the verifier re-proves,
     not advisory metadata. *)
  let cache = Trans_cache.create ~key:(Bytes.of_string "vm-secret") in
  Trans_cache.set_mitigation cache Mitigation.Safe_mask;
  let stale = compile_mitigated Mitigation.Off (mem_mix_program ()) in
  Trans_cache.add cache ~name:"stale" ~instrumented:true
    ~mitigation:Mitigation.Off stale;
  (match Trans_cache.find cache ~name:"stale" with
  | Error (Trans_cache.Rejected_by_verifier vs) ->
      Alcotest.(check bool) "refused with a Spec violation" true
        (List.exists
           (fun (v : Image_verify.violation) ->
             v.invariant = Image_verify.Spec)
           vs)
  | Error e -> Alcotest.failf "wrong error: %s" (Trans_cache.describe_find_error e)
  | Ok _ -> Alcotest.fail "off-compiled blob accepted by safe-mask kernel");
  (* The matching translation round-trips. *)
  let hardened = compile_mitigated Mitigation.Safe_mask (mem_mix_program ()) in
  Trans_cache.add cache ~name:"hardened" ~instrumented:true
    ~mitigation:Mitigation.Safe_mask hardened;
  match Trans_cache.find cache ~name:"hardened" with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "matching blob refused: %s" (Trans_cache.describe_find_error e)

(* ------------------------------------------------------------------ *)
(* No false positives                                                  *)

let test_fixtures_prove_clean () =
  List.iter
    (fun (name, program) ->
      List.iter
        (fun optimize ->
          match Image_verify.check (compile_vg ~optimize program) with
          | Ok () -> ()
          | Error (v :: _) ->
              Alcotest.failf "%s (optimize=%b): %s" name optimize
                (Format.asprintf "%a" Image_verify.pp_violation v)
          | Error [] -> assert false)
        [ false; true ])
    [
      ("mem_mix", mem_mix_program ());
      ("rec_sum", Fixtures.rec_sum_program ());
      ("two_func", two_func_program ());
      ("dead_store", dead_store_program ());
      ("kernel_image", Vg_kernel.Kernel_image.program ());
    ]

let test_report_shape () =
  let r = Image_verify.report (compile_vg (mem_mix_program ())) in
  Alcotest.(check bool) "image ok" true r.Image_verify.image_ok;
  match r.Image_verify.per_func with
  | [ fr ] ->
      Alcotest.(check string) "function name" "mem_mix" fr.Image_verify.fr_name;
      (* load + store + atomic + memcpy dst + memcpy src *)
      Alcotest.(check int) "proven memory operands" 5 fr.Image_verify.fr_mem_ops;
      Alcotest.(check bool) "has checked exits" true (fr.Image_verify.fr_cfi_exits >= 1);
      Alcotest.(check (list string)) "no violations" []
        (List.map (fun (v : Image_verify.violation) -> v.message) fr.Image_verify.fr_violations)
  | frs -> Alcotest.failf "expected one function report, got %d" (List.length frs)

let prop_pipeline_always_verifies =
  QCheck2.Test.make
    ~name:"real pipeline output verifies cleanly (all opt levels)" ~count:300
    QCheck2.Gen.(pair (int_bound 1_000_000) bool)
    (fun (seed, optimize) ->
      let program = Vg_testgen.Testgen.gen_program seed in
      match Verify.check program with
      | Error _ -> false (* the generator must produce well-formed IR *)
      | Ok () ->
          let linked = compile_vg ~optimize program in
          Image_verify.check linked = Ok ())

let () =
  Alcotest.run "vg_image_verify"
    [
      ( "evil-pass",
        [
          Alcotest.test_case "dropped mask caught per memory op" `Quick
            test_evil_mask_dropped;
          Alcotest.test_case "unchecked return caught" `Quick test_evil_unchecked_return;
          Alcotest.test_case "missing entry label caught" `Quick
            test_evil_entry_label_removed;
          Alcotest.test_case "stray label caught" `Quick test_evil_stray_label;
          Alcotest.test_case "forged label metadata caught" `Quick
            test_evil_label_metadata_mismatch;
          Alcotest.test_case "raw port write caught" `Quick test_evil_privileged_op;
          Alcotest.test_case "unvetted extern call caught" `Quick
            test_evil_unvetted_extern;
          Alcotest.test_case "cross-function jump caught" `Quick
            test_evil_cross_function_jump;
          Alcotest.test_case "out-of-bounds jump caught" `Quick
            test_evil_jump_outside_image;
          Alcotest.test_case "boundary fall-through caught" `Quick
            test_evil_boundary_fallthrough;
          Alcotest.test_case "unmasked store in dead block caught" `Quick
            test_evil_dead_block_unmasked_store;
        ] );
      ( "spec-invariant",
        [
          Alcotest.test_case "missing lfence caught per access" `Quick
            test_spec_fence_missing;
          Alcotest.test_case "predicated window refused under safe-mask" `Quick
            test_spec_predicated_window_rejected;
        ] );
      ( "cache",
        [
          Alcotest.test_case "signed-but-malformed image refused" `Quick
            test_cache_rejects_malformed_signed_image;
          Alcotest.test_case "mitigation mismatch refused" `Quick
            test_cache_rejects_mitigation_mismatch;
        ] );
      ( "no-false-positives",
        [
          Alcotest.test_case "fixtures prove clean" `Quick test_fixtures_prove_clean;
          Alcotest.test_case "report shape" `Quick test_report_shape;
          QCheck_alcotest.to_alcotest prop_pipeline_always_verifies;
        ] );
    ]
