(* Tests for the SVA virtual instruction set: builder, verifier,
   pretty-printer and reference interpreter. *)

(* ------------------------------------------------------------------ *)
(* Test environment: a tiny flat memory at address 0x1000.             *)

let make_mem_env () =
  let mem = Bytes.make 65536 '\000' in
  let off addr = Int64.to_int (Int64.sub addr 0x1000L) in
  let load addr (width : Ir.width) =
    let i = off addr in
    match width with
    | W8 -> Int64.of_int (Char.code (Bytes.get mem i))
    | W16 -> Int64.of_int (Bytes.get_uint16_le mem i)
    | W32 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le mem i)) 0xffffffffL
    | W64 -> Bytes.get_int64_le mem i
  in
  let store addr (width : Ir.width) v =
    let i = off addr in
    match width with
    | W8 -> Bytes.set mem i (Char.chr (Int64.to_int (Int64.logand v 0xffL)))
    | W16 -> Bytes.set_uint16_le mem i (Int64.to_int (Int64.logand v 0xffffL))
    | W32 -> Bytes.set_int32_le mem i (Int64.to_int32 v)
    | W64 -> Bytes.set_int64_le mem i v
  in
  let memcpy ~dst ~src ~len =
    Bytes.blit mem (off src) mem (off dst) (Int64.to_int len)
  in
  let env =
    {
      Interp.load;
      store;
      memcpy;
      io_read = (fun port -> Int64.add port 100L);
      io_write = (fun _ _ -> ());
      extern = (fun name _ -> failwith ("unexpected extern " ^ name));
      resolve_sym = (fun s -> failwith ("unresolved " ^ s));
      func_of_addr = (fun _ -> None);
      charge = (fun _ -> ());
      fence = (fun () -> ());
    }
  in
  (env, mem)

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

(* avoid astring dep: simple substring helper *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_pp () =
  let p = Fixtures.rec_sum_program () in
  let text = Pp.program_to_string p in
  List.iter
    (fun frag -> Alcotest.(check bool) ("contains " ^ frag) true (contains text frag))
    [ "define @sum(n)"; "icmp eq"; "call @sum"; "ret" ]

let test_builder_unterminated () =
  let b = Builder.create () in
  Builder.func b "f" ~params:[];
  Alcotest.(check bool) "raises" true
    (try
       ignore (Builder.program b);
       false
     with Failure _ -> true)

let test_builder_double_terminate () =
  let b = Builder.create () in
  Builder.func b "f" ~params:[];
  Builder.ret b None;
  Alcotest.(check bool) "raises" true
    (try
       Builder.ret b None;
       false
     with Failure _ -> true)

(* ------------------------------------------------------------------ *)
(* Verifier                                                            *)

let test_verify_ok () =
  match Verify.check (Fixtures.rec_sum_program ()) with
  | Ok () -> ()
  | Error es ->
      Alcotest.failf "unexpected errors: %s"
        (String.concat "; " (List.map (Format.asprintf "%a" Verify.pp_error) es))

let block label instrs term : Ir.block = { label; instrs; term }

let test_verify_unknown_branch () =
  let f : Ir.func = { name = "f"; params = []; blocks = [ block "entry" [] (Br "nope") ] } in
  match Verify.check { funcs = [ f ] } with
  | Ok () -> Alcotest.fail "should have failed"
  | Error es -> Alcotest.(check bool) "mentions block" true
      (List.exists (fun (e : Verify.error) -> contains e.message "nope") es)

let test_verify_undefined_register () =
  let f : Ir.func =
    { name = "f"; params = []; blocks = [ block "entry" [] (Ret (Some (Reg "x"))) ] }
  in
  (* Registers in terminators are not currently checked; check uses in
     instructions instead. *)
  let g : Ir.func =
    {
      name = "g";
      params = [];
      blocks =
        [ block "entry" [ Bin { dst = "y"; op = Add; a = Reg "ghost"; b = Imm 1L } ] (Ret None) ];
    }
  in
  ignore f;
  match Verify.check { funcs = [ g ] } with
  | Ok () -> Alcotest.fail "should have failed"
  | Error es ->
      Alcotest.(check bool) "mentions register" true
        (List.exists (fun (e : Verify.error) -> contains e.message "ghost") es)

let test_verify_unknown_callee () =
  let f : Ir.func =
    {
      name = "f";
      params = [];
      blocks = [ block "entry" [ Call { dst = None; callee = "mystery"; args = [] } ] (Ret None) ];
    }
  in
  match Verify.check { funcs = [ f ] } with
  | Ok () -> Alcotest.fail "should have failed"
  | Error es ->
      Alcotest.(check bool) "mentions callee" true
        (List.exists (fun (e : Verify.error) -> contains e.message "mystery") es)

let test_verify_extern_callee_ok () =
  let f : Ir.func =
    {
      name = "f";
      params = [];
      blocks =
        [
          block "entry"
            [
              Call { dst = None; callee = "extern.printf"; args = [] };
              Call { dst = None; callee = "sva.random"; args = [] };
            ]
            (Ret None);
        ];
    }
  in
  Alcotest.(check bool) "externals allowed" true (Verify.check { funcs = [ f ] } = Ok ())

let test_verify_duplicate_function () =
  let f : Ir.func = { name = "f"; params = []; blocks = [ block "entry" [] (Ret None) ] } in
  match Verify.check { funcs = [ f; f ] } with
  | Ok () -> Alcotest.fail "should have failed"
  | Error es ->
      Alcotest.(check bool) "duplicate" true
        (List.exists (fun (e : Verify.error) -> contains e.message "duplicate") es)

let test_verify_duplicate_label () =
  let f : Ir.func =
    {
      name = "f";
      params = [];
      blocks = [ block "entry" [] (Br "entry"); block "entry" [] (Ret None) ];
    }
  in
  match Verify.check { funcs = [ f ] } with
  | Ok () -> Alcotest.fail "should have failed"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)

let test_interp_recursion () =
  let env, _ = make_mem_env () in
  let result = Interp.run env (Fixtures.rec_sum_program ()) "sum" [| 100L |] in
  Alcotest.(check int64) "sum 1..100" 5050L result

let test_interp_memory () =
  let b = Builder.create () in
  Builder.func b "f" ~params:[];
  Builder.store b ~width:W32 ~src:(Imm 0xdeadbeefL) ~addr:(Imm 0x1010L) ();
  let v = Builder.load b ~width:W32 (Imm 0x1010L) in
  Builder.ret b (Some v);
  let env, mem = make_mem_env () in
  let result = Interp.run env (Builder.program b) "f" [||] in
  Alcotest.(check int64) "load back" 0xdeadbeefL result;
  Alcotest.(check int) "byte in memory" 0xef (Char.code (Bytes.get mem 0x10))

let test_interp_widths () =
  let b = Builder.create () in
  Builder.func b "f" ~params:[ "x" ];
  Builder.store b ~width:W8 ~src:(Reg "x") ~addr:(Imm 0x1000L) ();
  let v = Builder.load b ~width:W8 (Imm 0x1000L) in
  Builder.ret b (Some v);
  let env, _ = make_mem_env () in
  Alcotest.(check int64) "w8 truncates" 0x34L
    (Interp.run env (Builder.program b) "f" [| 0x1234L |])

let test_interp_memcpy () =
  let b = Builder.create () in
  Builder.func b "f" ~params:[];
  Builder.store b ~src:(Imm 0x1122334455667788L) ~addr:(Imm 0x1000L) ();
  Builder.memcpy b ~dst:(Imm 0x1100L) ~src:(Imm 0x1000L) ~len:(Imm 8L);
  let v = Builder.load b (Imm 0x1100L) in
  Builder.ret b (Some v);
  let env, _ = make_mem_env () in
  Alcotest.(check int64) "copied" 0x1122334455667788L
    (Interp.run env (Builder.program b) "f" [||])

let test_interp_atomic () =
  let b = Builder.create () in
  Builder.func b "f" ~params:[];
  Builder.store b ~src:(Imm 41L) ~addr:(Imm 0x1000L) ();
  let old = Builder.atomic_rmw b Add ~addr:(Imm 0x1000L) (Imm 1L) in
  let now = Builder.load b (Imm 0x1000L) in
  let sum = Builder.bin b Add old now in
  Builder.ret b (Some sum);
  let env, _ = make_mem_env () in
  (* old = 41, new = 42 -> 83 *)
  Alcotest.(check int64) "rmw" 83L (Interp.run env (Builder.program b) "f" [||])

let test_interp_indirect_call () =
  let b = Builder.create () in
  Builder.func b "double" ~params:[ "x" ];
  let d = Builder.bin b Add (Reg "x") (Reg "x") in
  Builder.ret b (Some d);
  Builder.func b "main" ~params:[];
  let r = Builder.call_indirect b (Sym "double") [ Imm 21L ] in
  Builder.ret b (Some r);
  let program = Builder.program b in
  let env, _ = make_mem_env () in
  let env =
    {
      env with
      Interp.resolve_sym = (fun s -> if s = "double" then 0x4242L else failwith s);
      func_of_addr = (fun a -> if a = 0x4242L then Some "double" else None);
    }
  in
  Alcotest.(check int64) "indirect" 42L (Interp.run env program "main" [||])

let test_interp_extern () =
  let b = Builder.create () in
  Builder.func b "main" ~params:[];
  let r = Builder.call b "extern.magic" [ Imm 2L; Imm 3L ] in
  Builder.ret b (Some r);
  let env, _ = make_mem_env () in
  let env =
    { env with Interp.extern = (fun name args ->
          Alcotest.(check string) "name" "extern.magic" name;
          Int64.mul args.(0) args.(1)) }
  in
  Alcotest.(check int64) "extern result" 6L (Interp.run env (Builder.program b) "main" [||])

let test_interp_io () =
  let b = Builder.create () in
  Builder.func b "main" ~params:[];
  Builder.io_write b ~port:(Imm 0x60L) (Imm 1L);
  let v = Builder.io_read b (Imm 0x60L) in
  Builder.ret b (Some v);
  let env, _ = make_mem_env () in
  Alcotest.(check int64) "io read" 196L (Interp.run env (Builder.program b) "main" [||])

let expect_trap f =
  try
    ignore (f ());
    Alcotest.fail "expected Trap"
  with Interp.Trap _ -> ()

let test_interp_div_by_zero () =
  let b = Builder.create () in
  Builder.func b "main" ~params:[];
  let v = Builder.bin b Udiv (Imm 1L) (Imm 0L) in
  Builder.ret b (Some v);
  let env, _ = make_mem_env () in
  expect_trap (fun () -> Interp.run env (Builder.program b) "main" [||])

let test_interp_unreachable () =
  let b = Builder.create () in
  Builder.func b "main" ~params:[];
  Builder.unreachable b;
  let env, _ = make_mem_env () in
  expect_trap (fun () -> Interp.run env (Builder.program b) "main" [||])

let test_interp_fuel () =
  let b = Builder.create () in
  Builder.func b "main" ~params:[];
  Builder.br b "spin";
  Builder.block b "spin";
  Builder.br b "spin";
  let env, _ = make_mem_env () in
  expect_trap (fun () -> Interp.run env ~fuel:1000 (Builder.program b) "main" [||])

let test_interp_arity_mismatch () =
  let env, _ = make_mem_env () in
  expect_trap (fun () -> Interp.run env (Fixtures.rec_sum_program ()) "sum" [| 1L; 2L |])

(* ------------------------------------------------------------------ *)
(* Semantics properties                                                *)

let gen_i64 = QCheck2.Gen.(map Int64.of_int int)

let prop_binop_semantics =
  QCheck2.Test.make ~name:"eval_binop matches Int64" ~count:1000
    QCheck2.Gen.(pair gen_i64 gen_i64)
    (fun (a, b) ->
      Interp.eval_binop Add a b = Int64.add a b
      && Interp.eval_binop Sub a b = Int64.sub a b
      && Interp.eval_binop Mul a b = Int64.mul a b
      && Interp.eval_binop And a b = Int64.logand a b
      && Interp.eval_binop Or a b = Int64.logor a b
      && Interp.eval_binop Xor a b = Int64.logxor a b
      && (b = 0L || Interp.eval_binop Udiv a b = Int64.unsigned_div a b))

let prop_shift_masks_count =
  QCheck2.Test.make ~name:"shifts take count mod 64" ~count:200
    QCheck2.Gen.(pair gen_i64 (int_bound 200))
    (fun (a, n) ->
      let n64 = Int64.of_int n in
      Interp.eval_binop Shl a n64 = Int64.shift_left a (n mod 64)
      && Interp.eval_binop Lshr a n64 = Int64.shift_right_logical a (n mod 64))

let prop_cmp_semantics =
  QCheck2.Test.make ~name:"eval_cmp unsigned/signed split" ~count:1000
    QCheck2.Gen.(pair gen_i64 gen_i64)
    (fun (a, b) ->
      Interp.eval_cmp Ult a b = (if Int64.unsigned_compare a b < 0 then 1L else 0L)
      && Interp.eval_cmp Slt a b = (if Int64.compare a b < 0 then 1L else 0L)
      && Interp.eval_cmp Eq a b = (if a = b then 1L else 0L))

let prop_truncate =
  QCheck2.Test.make ~name:"truncate keeps low bits" ~count:500 gen_i64 (fun v ->
      Interp.truncate W8 v = Int64.logand v 0xffL
      && Interp.truncate W16 v = Int64.logand v 0xffffL
      && Interp.truncate W32 v = Int64.logand v 0xffffffffL
      && Interp.truncate W64 v = v)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "vg_ir"
    [
      ( "builder",
        [
          Alcotest.test_case "pretty printing" `Quick test_pp;
          Alcotest.test_case "unterminated block" `Quick test_builder_unterminated;
          Alcotest.test_case "double terminate" `Quick test_builder_double_terminate;
        ] );
      ( "verify",
        [
          Alcotest.test_case "accepts good program" `Quick test_verify_ok;
          Alcotest.test_case "unknown branch" `Quick test_verify_unknown_branch;
          Alcotest.test_case "undefined register" `Quick test_verify_undefined_register;
          Alcotest.test_case "unknown callee" `Quick test_verify_unknown_callee;
          Alcotest.test_case "extern callee ok" `Quick test_verify_extern_callee_ok;
          Alcotest.test_case "duplicate function" `Quick test_verify_duplicate_function;
          Alcotest.test_case "duplicate label" `Quick test_verify_duplicate_label;
        ] );
      ( "interp",
        [
          Alcotest.test_case "recursion" `Quick test_interp_recursion;
          Alcotest.test_case "memory" `Quick test_interp_memory;
          Alcotest.test_case "widths" `Quick test_interp_widths;
          Alcotest.test_case "memcpy" `Quick test_interp_memcpy;
          Alcotest.test_case "atomic rmw" `Quick test_interp_atomic;
          Alcotest.test_case "indirect call" `Quick test_interp_indirect_call;
          Alcotest.test_case "extern call" `Quick test_interp_extern;
          Alcotest.test_case "io" `Quick test_interp_io;
          Alcotest.test_case "div by zero traps" `Quick test_interp_div_by_zero;
          Alcotest.test_case "unreachable traps" `Quick test_interp_unreachable;
          Alcotest.test_case "fuel exhaustion" `Quick test_interp_fuel;
          Alcotest.test_case "arity mismatch" `Quick test_interp_arity_mismatch;
        ] );
      ( "semantics-properties",
        qcheck
          [ prop_binop_semantics; prop_shift_masks_count; prop_cmp_semantics; prop_truncate ]
      );
    ]
