let masked_return v =
  if Vg_util.U64.in_range v ~lo:Layout.ghost_start ~hi:Layout.ghost_end then
    Int64.logor v Layout.ghost_escape_bit
  else v

(* Fresh register names, numbered from 1 for each function. *)
let namer () =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Printf.sprintf "%%iago.%s%d" prefix !n

let mask_into fresh (dst : Ir.reg) : Ir.instr list =
  let above = fresh "ge" and below = fresh "lt" and inside = fresh "in" in
  let ored = fresh "or" in
  [
    Ir.Cmp { dst = above; op = Uge; a = Reg dst; b = Imm Layout.ghost_start };
    Ir.Cmp { dst = below; op = Ult; a = Reg dst; b = Imm Layout.ghost_end };
    Ir.Bin { dst = inside; op = And; a = Reg above; b = Reg below };
    Ir.Bin { dst = ored; op = Or; a = Reg dst; b = Imm Layout.ghost_escape_bit };
    Ir.Select { dst; cond = Reg inside; if_true = Reg ored; if_false = Reg dst };
  ]

let instrument_program ~mmap_callees program =
  let instrument_instr fresh (instr : Ir.instr) =
    match instr with
    | Call { dst = Some dst; callee; _ } when List.mem callee mmap_callees ->
        instr :: mask_into fresh dst
    | _ -> [ instr ]
  in
  Ir.map_funcs
    (fun f ->
      let fresh = namer () in
      {
        f with
        blocks =
          List.map
            (fun (b : Ir.block) ->
              { b with instrs = List.concat_map (instrument_instr fresh) b.instrs })
            f.Ir.blocks;
      })
    program
