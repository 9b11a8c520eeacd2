open Ir

let collatz_program () =
  let b = Builder.create () in
  Builder.func b "collatz" ~params:[ "n" ];
  Builder.store b ~src:(Imm 0L) ~addr:(Imm 0x2000L) ();
  Builder.store b ~src:(Reg "n") ~addr:(Imm 0x2008L) ();
  Builder.br b "loop";
  Builder.block b "loop";
  let n = Builder.load b (Imm 0x2008L) in
  let at_one = Builder.cmp b Ule n (Imm 1L) in
  Builder.cbr b at_one "done" "step";
  Builder.block b "step";
  let odd = Builder.bin b And n (Imm 1L) in
  let half = Builder.bin b Lshr n (Imm 1L) in
  let tripled = Builder.bin b Mul n (Imm 3L) in
  let plus1 = Builder.bin b Add tripled (Imm 1L) in
  let next = Builder.select b odd plus1 half in
  Builder.store b ~src:next ~addr:(Imm 0x2008L) ();
  let count = Builder.load b (Imm 0x2000L) in
  let count' = Builder.bin b Add count (Imm 1L) in
  Builder.store b ~src:count' ~addr:(Imm 0x2000L) ();
  Builder.br b "loop";
  Builder.block b "done";
  let count = Builder.load b (Imm 0x2000L) in
  Builder.ret b (Some count);
  Builder.program b

let rec_sum_program () =
  let b = Builder.create () in
  Builder.func b "sum" ~params:[ "n" ];
  let is_zero = Builder.cmp b Eq (Reg "n") (Imm 0L) in
  Builder.cbr b is_zero "base" "rec";
  Builder.block b "base";
  Builder.ret b (Some (Imm 0L));
  Builder.block b "rec";
  let n1 = Builder.bin b Sub (Reg "n") (Imm 1L) in
  let sub = Builder.call b "sum" [ n1 ] in
  let total = Builder.bin b Add (Reg "n") sub in
  Builder.ret b (Some total);
  Builder.program b

let iterfib_program () =
  let b = Builder.create () in
  Builder.func b "main" ~params:[ "n" ];
  Builder.store b ~src:(Imm 0L) ~addr:(Imm 0x2100L) ();
  Builder.store b ~src:(Imm 1L) ~addr:(Imm 0x2108L) ();
  Builder.store b ~src:(Reg "n") ~addr:(Imm 0x2110L) ();
  Builder.br b "loop";
  Builder.block b "loop";
  let i = Builder.load b (Imm 0x2110L) in
  let finished = Builder.cmp b Eq i (Imm 0L) in
  Builder.cbr b finished "done" "step";
  Builder.block b "step";
  let a = Builder.load b (Imm 0x2100L) in
  let fb = Builder.load b (Imm 0x2108L) in
  let c = Builder.bin b Add a fb in
  Builder.store b ~src:fb ~addr:(Imm 0x2100L) ();
  Builder.store b ~src:c ~addr:(Imm 0x2108L) ();
  let i' = Builder.bin b Sub i (Imm 1L) in
  Builder.store b ~src:i' ~addr:(Imm 0x2110L) ();
  Builder.br b "loop";
  Builder.block b "done";
  let r = Builder.load b (Imm 0x2108L) in
  Builder.ret b (Some r);
  Builder.program b

let memcpy_loop_program () =
  let b = Builder.create () in
  Builder.func b "main" ~params:[ "n" ];
  Builder.store b ~src:(Reg "n") ~addr:(Imm 0x2110L) ();
  Builder.br b "loop";
  Builder.block b "loop";
  let i = Builder.load b (Imm 0x2110L) in
  let finished = Builder.cmp b Eq i (Imm 0L) in
  Builder.cbr b finished "done" "step";
  Builder.block b "step";
  Builder.memcpy b ~dst:(Imm 0x4000L) ~src:(Imm 0x8000L) ~len:(Imm 256L);
  let i' = Builder.bin b Sub i (Imm 1L) in
  Builder.store b ~src:i' ~addr:(Imm 0x2110L) ();
  Builder.br b "loop";
  Builder.block b "done";
  Builder.ret b (Some (Imm 0L));
  Builder.program b
