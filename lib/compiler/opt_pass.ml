(* Constant environment: register -> known constant, valid within one
   block, invalidated on redefinition. *)

let subst env (v : Ir.value) : Ir.value =
  match v with
  | Reg r -> (
      match Hashtbl.find_opt env r with Some c -> Ir.Imm c | None -> v)
  | Imm _ | Sym _ -> v

let const = function Ir.Imm i -> Some i | Ir.Reg _ | Ir.Sym _ -> None

(* A constant definition is represented as [dst = or c, 0] (the IR has
   no move instruction); the folder recognises the idiom on re-entry. *)
let const_def dst c : Ir.instr = Bin { dst; op = Or; a = Imm c; b = Imm 0L }

let fold_bin (op : Ir.binop) a b =
  match (const a, const b) with
  | Some x, Some y -> (
      (* Division by zero must keep trapping: do not fold it away. *)
      match op with
      | (Udiv | Urem) when y = 0L -> None
      | _ -> Some (Eval.eval_binop op x y))
  | _ -> (
      (* Algebraic identities with one constant side. *)
      match (op, const a, const b) with
      | (Add | Or | Xor | Shl | Lshr | Ashr | Sub), _, Some 0L -> const a
      | (Add | Or | Xor), Some 0L, _ -> const b
      | Mul, _, Some 1L -> const a
      | Mul, Some 1L, _ -> const b
      | (Mul | And), _, Some 0L -> Some 0L
      | (Mul | And), Some 0L, _ -> Some 0L
      | And, _, Some -1L -> const a
      | And, Some -1L, _ -> const b
      | _ -> None)

(* Identity results that are non-constant values (x+0 -> x). *)
let identity_value (op : Ir.binop) (a : Ir.value) (b : Ir.value) : Ir.value option =
  match (op, a, b) with
  | (Add | Or | Xor | Shl | Lshr | Ashr | Sub), x, Imm 0L -> Some x
  | (Add | Or | Xor), Imm 0L, x -> Some x
  | Mul, x, Imm 1L -> Some x
  | Mul, Imm 1L, x -> Some x
  | And, x, Imm (-1L) -> Some x
  | And, Imm (-1L), x -> Some x
  | _ -> None

let fold_block (b : Ir.block) : Ir.block =
  let env : (Ir.reg, int64) Hashtbl.t = Hashtbl.create 16 in
  let copies : (Ir.reg, Ir.value) Hashtbl.t = Hashtbl.create 16 in
  let kill dst =
    Hashtbl.remove env dst;
    Hashtbl.remove copies dst;
    (* Any copy pointing at [dst] is stale now. *)
    let stale =
      Hashtbl.fold
        (fun r v acc -> if v = Ir.Reg dst then r :: acc else acc)
        copies []
    in
    List.iter (Hashtbl.remove copies) stale
  in
  let subst_all v =
    let v = match v with
      | Ir.Reg r -> (
          match Hashtbl.find_opt copies r with Some src -> src | None -> v)
      | _ -> v
    in
    subst env v
  in
  let fold_instr (instr : Ir.instr) : Ir.instr =
    match instr with
    | Bin { dst; op; a; b } -> (
        let a = subst_all a and b = subst_all b in
        kill dst;
        match fold_bin op a b with
        | Some c ->
            Hashtbl.replace env dst c;
            const_def dst c
        | None -> (
            match identity_value op a b with
            | Some (Ir.Reg _ as v) ->
                Hashtbl.replace copies dst v;
                Bin { dst; op; a; b }
            | _ -> Bin { dst; op; a; b }))
    | Cmp { dst; op; a; b } -> (
        let a = subst_all a and b = subst_all b in
        kill dst;
        match (const a, const b) with
        | Some x, Some y ->
            let c = Eval.eval_cmp op x y in
            Hashtbl.replace env dst c;
            const_def dst c
        | _ -> Cmp { dst; op; a; b })
    | Select { dst; cond; if_true; if_false } -> (
        let cond = subst_all cond
        and if_true = subst_all if_true
        and if_false = subst_all if_false in
        kill dst;
        match const cond with
        | Some c -> (
            let chosen = if c <> 0L then if_true else if_false in
            match const chosen with
            | Some v ->
                Hashtbl.replace env dst v;
                const_def dst v
            | None ->
                (match chosen with
                | Ir.Reg _ -> Hashtbl.replace copies dst chosen
                | _ -> ());
                Select { dst; cond = Imm 1L; if_true = chosen; if_false = chosen })
        | None -> Select { dst; cond; if_true; if_false })
    | Load { dst; addr; width } ->
        let addr = subst_all addr in
        kill dst;
        Load { dst; addr; width }
    | Store { src; addr; width } ->
        Store { src = subst_all src; addr = subst_all addr; width }
    | Memcpy { dst; src; len } ->
        Memcpy { dst = subst_all dst; src = subst_all src; len = subst_all len }
    | Atomic_rmw { dst; op; addr; operand; width } ->
        let addr = subst_all addr and operand = subst_all operand in
        kill dst;
        Atomic_rmw { dst; op; addr; operand; width }
    | Call { dst; callee; args } ->
        let args = List.map subst_all args in
        Option.iter kill dst;
        Call { dst; callee; args }
    | Call_indirect { dst; target; args } ->
        let target = subst_all target and args = List.map subst_all args in
        Option.iter kill dst;
        Call_indirect { dst; target; args }
    | Io_read { dst; port } ->
        let port = subst_all port in
        kill dst;
        Io_read { dst; port }
    | Io_write { port; src } -> Io_write { port = subst_all port; src = subst_all src }
    | Fence -> Fence
  in
  let instrs = List.map fold_instr b.Ir.instrs in
  let term : Ir.terminator =
    match b.Ir.term with
    | Ret v -> Ret (Option.map subst_all v)
    | Cbr { cond; if_true; if_false } -> (
        let cond = subst_all cond in
        match const cond with
        | Some c -> Br (if c <> 0L then if_true else if_false)
        | None ->
            if if_true = if_false then Br if_true
            else Cbr { cond; if_true; if_false })
    | (Br _ | Unreachable) as t -> t
  in
  { b with instrs; term }

(* Remove blocks unreachable from the entry block. *)
let prune_unreachable (f : Ir.func) : Ir.func =
  match f.Ir.blocks with
  | [] -> f
  | entry :: _ ->
      let reachable = Hashtbl.create 16 in
      let rec visit label =
        if not (Hashtbl.mem reachable label) then begin
          Hashtbl.replace reachable label ();
          match Ir.find_block f label with
          | None -> ()
          | Some b -> (
              match b.Ir.term with
              | Br l -> visit l
              | Cbr { if_true; if_false; _ } ->
                  visit if_true;
                  visit if_false
              | Ret _ | Unreachable -> ())
        end
      in
      visit entry.Ir.label;
      { f with blocks = List.filter (fun (b : Ir.block) -> Hashtbl.mem reachable b.Ir.label) f.Ir.blocks }

(* Dead-code elimination: drop pure instructions whose destination is
   never read anywhere in the (post-pruning) function. *)
let eliminate_dead (f : Ir.func) : Ir.func =
  let used = Hashtbl.create 64 in
  let use (v : Ir.value) =
    match v with Reg r -> Hashtbl.replace used r () | Imm _ | Sym _ -> ()
  in
  let scan_instr (i : Ir.instr) =
    match i with
    | Bin { a; b; _ } | Cmp { a; b; _ } ->
        use a;
        use b
    | Select { cond; if_true; if_false; _ } ->
        use cond;
        use if_true;
        use if_false
    | Load { addr; _ } -> use addr
    | Store { src; addr; _ } ->
        use src;
        use addr
    | Memcpy { dst; src; len } ->
        use dst;
        use src;
        use len
    | Atomic_rmw { addr; operand; _ } ->
        use addr;
        use operand
    | Call { args; _ } -> List.iter use args
    | Call_indirect { target; args; _ } ->
        use target;
        List.iter use args
    | Io_read { port; _ } -> use port
    | Io_write { port; src } ->
        use port;
        use src
    | Fence -> ()
  in
  List.iter
    (fun (b : Ir.block) ->
      List.iter scan_instr b.Ir.instrs;
      match b.Ir.term with
      | Ret (Some v) -> use v
      | Cbr { cond; _ } -> use cond
      | Ret None | Br _ | Unreachable -> ())
    f.Ir.blocks;
  let keep (i : Ir.instr) =
    match i with
    | Bin { dst; _ } | Cmp { dst; _ } | Select { dst; _ } -> Hashtbl.mem used dst
    | Load _ | Store _ | Memcpy _ | Atomic_rmw _ | Call _ | Call_indirect _
    | Io_read _ | Io_write _ | Fence ->
        true
  in
  {
    f with
    blocks =
      List.map
        (fun (b : Ir.block) -> { b with Ir.instrs = List.filter keep b.Ir.instrs })
        f.Ir.blocks;
  }

let optimize_func f =
  let f = { f with Ir.blocks = List.map fold_block f.Ir.blocks } in
  let f = prune_unreachable f in
  eliminate_dead f

let optimize_program = Ir.map_funcs optimize_func
