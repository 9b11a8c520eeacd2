type pending_block = {
  label : Ir.label;
  mutable rev_instrs : Ir.instr list;
  mutable term : Ir.terminator option;
}

type pending_func = {
  name : string;
  params : Ir.reg list;
  mutable rev_blocks : pending_block list; (* completed blocks, reversed *)
  mutable current : pending_block;
}

type t = {
  mutable rev_funcs : pending_func list; (* completed funcs, reversed *)
  mutable current_func : pending_func option;
  mutable counter : int;
}

let create () = { rev_funcs = []; current_func = None; counter = 0 }

let finish_block (f : pending_func) =
  match f.current.term with
  | None -> failwith (Printf.sprintf "Builder: block %s not terminated" f.current.label)
  | Some _ -> f.rev_blocks <- f.current :: f.rev_blocks

let seal_func b =
  match b.current_func with
  | None -> ()
  | Some f ->
      finish_block f;
      b.rev_funcs <- f :: b.rev_funcs;
      b.current_func <- None

let func b name ~params =
  seal_func b;
  let entry = { label = "entry"; rev_instrs = []; term = None } in
  b.current_func <- Some { name; params; rev_blocks = []; current = entry }

let current b =
  match b.current_func with
  | None -> failwith "Builder: no open function"
  | Some f -> f

let block b label =
  let f = current b in
  finish_block f;
  f.current <- { label; rev_instrs = []; term = None }

let fresh b prefix =
  b.counter <- b.counter + 1;
  Printf.sprintf "%%%s%d" prefix b.counter

let emit b instr =
  let f = current b in
  (match f.current.term with
  | Some _ -> failwith "Builder: emitting into a terminated block"
  | None -> ());
  f.current.rev_instrs <- instr :: f.current.rev_instrs

let bin b op a v =
  let dst = fresh b "t" in
  emit b (Ir.Bin { dst; op; a; b = v });
  Ir.Reg dst

let cmp b op a v =
  let dst = fresh b "c" in
  emit b (Ir.Cmp { dst; op; a; b = v });
  Ir.Reg dst

let select b cond if_true if_false =
  let dst = fresh b "s" in
  emit b (Ir.Select { dst; cond; if_true; if_false });
  Ir.Reg dst

let load b ?(width = Ir.W64) addr =
  let dst = fresh b "l" in
  emit b (Ir.Load { dst; addr; width });
  Ir.Reg dst

let store b ?(width = Ir.W64) ~src ~addr () = emit b (Ir.Store { src; addr; width })
let memcpy b ~dst ~src ~len = emit b (Ir.Memcpy { dst; src; len })

let atomic_rmw b ?(width = Ir.W64) op ~addr operand =
  let dst = fresh b "a" in
  emit b (Ir.Atomic_rmw { dst; op; addr; operand; width });
  Ir.Reg dst

let call b callee args =
  let dst = fresh b "r" in
  emit b (Ir.Call { dst = Some dst; callee; args });
  Ir.Reg dst

let call_void b callee args = emit b (Ir.Call { dst = None; callee; args })

let call_indirect b target args =
  let dst = fresh b "r" in
  emit b (Ir.Call_indirect { dst = Some dst; target; args });
  Ir.Reg dst

let io_read b port =
  let dst = fresh b "io" in
  emit b (Ir.Io_read { dst; port });
  Ir.Reg dst

let io_write b ~port src = emit b (Ir.Io_write { port; src })
let fence b = emit b Ir.Fence

let terminate b term =
  let f = current b in
  match f.current.term with
  | Some _ -> failwith "Builder: block already terminated"
  | None -> f.current.term <- Some term

let ret b v = terminate b (Ir.Ret v)
let br b label = terminate b (Ir.Br label)
let cbr b cond if_true if_false = terminate b (Ir.Cbr { cond; if_true; if_false })
let unreachable b = terminate b (Ir.Unreachable)

let program b =
  seal_func b;
  let finish_pending (f : pending_func) : Ir.func =
    let blocks =
      List.rev_map
        (fun (blk : pending_block) : Ir.block ->
          match blk.term with
          | None -> failwith "Builder: unterminated block"
          | Some term ->
              { Ir.label = blk.label; instrs = List.rev blk.rev_instrs; term })
        f.rev_blocks
    in
    { Ir.name = f.name; params = f.params; blocks }
  in
  { Ir.funcs = List.rev_map finish_pending b.rev_funcs }
