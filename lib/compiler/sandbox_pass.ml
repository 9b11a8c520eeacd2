let masked_address addr =
  let addr =
    if Vg_util.U64.ge addr Layout.ghost_start then
      Int64.logor addr Layout.ghost_escape_bit
    else addr
  in
  if Layout.in_sva addr then 0L else addr

let added_instructions_per_operand = 7

(* Counter for fresh register names; instrumentation registers are
   prefixed "%sbx" so they can never collide with Builder-generated
   ("%t..") or hand-written registers. *)
let fresh_counter = ref 0

let fresh prefix =
  incr fresh_counter;
  Printf.sprintf "%%sbx.%s%d" prefix !fresh_counter

(* Emit the masking sequence for [addr]; returns the instructions (in
   order) and the value holding the safe address. *)
let mask_sequence (addr : Ir.value) : Ir.instr list * Ir.value =
  let is_high = fresh "hi" in
  let ored = fresh "or" in
  let escaped = fresh "esc" in
  let above_sva = fresh "asva" in
  let below_sva = fresh "bsva" in
  let in_sva = fresh "insva" in
  let safe = fresh "safe" in
  ( [
      Ir.Cmp { dst = is_high; op = Uge; a = addr; b = Imm Layout.ghost_start };
      Ir.Bin { dst = ored; op = Or; a = addr; b = Imm Layout.ghost_escape_bit };
      Ir.Select { dst = escaped; cond = Reg is_high; if_true = Reg ored; if_false = addr };
      Ir.Cmp { dst = above_sva; op = Uge; a = Reg escaped; b = Imm Layout.sva_start };
      Ir.Cmp { dst = below_sva; op = Ult; a = Reg escaped; b = Imm Layout.sva_end };
      Ir.Bin { dst = in_sva; op = And; a = Reg above_sva; b = Reg below_sva };
      Ir.Select { dst = safe; cond = Reg in_sva; if_true = Imm 0L; if_false = Reg escaped };
    ],
    Ir.Reg safe )

(* The speculation-safe variant: identical architectural semantics to
   [mask_sequence] ([masked_address]), but every step is an arithmetic
   data dependency of the final address — there is no predicated select
   a mispredictor could resolve the wrong way.  A transient load
   downstream of this sequence still sees the {e masked} address, so
   speculation leaks nothing the architectural access would not. *)
let safe_mask_sequence (addr : Ir.value) : Ir.instr list * Ir.value =
  let is_high = fresh "hi" in
  let high_mask = fresh "hm" in
  let escape = fresh "eb" in
  let escaped = fresh "esc" in
  let above_sva = fresh "asva" in
  let below_sva = fresh "bsva" in
  let in_sva = fresh "insva" in
  let keep_mask = fresh "km" in
  let safe = fresh "safe" in
  ( [
      Ir.Cmp { dst = is_high; op = Uge; a = addr; b = Imm Layout.ghost_start };
      (* 0 or -1: the comparison result widened to a full-width mask *)
      Ir.Bin { dst = high_mask; op = Sub; a = Imm 0L; b = Reg is_high };
      Ir.Bin { dst = escape; op = And; a = Reg high_mask; b = Imm Layout.ghost_escape_bit };
      Ir.Bin { dst = escaped; op = Or; a = addr; b = Reg escape };
      Ir.Cmp { dst = above_sva; op = Uge; a = Reg escaped; b = Imm Layout.sva_start };
      Ir.Cmp { dst = below_sva; op = Ult; a = Reg escaped; b = Imm Layout.sva_end };
      Ir.Bin { dst = in_sva; op = And; a = Reg above_sva; b = Reg below_sva };
      (* in_sva=1 -> 0 (zero the address); in_sva=0 -> -1 (keep it) *)
      Ir.Bin { dst = keep_mask; op = Sub; a = Reg in_sva; b = Imm 1L };
      Ir.Bin { dst = safe; op = And; a = Reg escaped; b = Reg keep_mask };
    ],
    Ir.Reg safe )

let safe_mask_instructions = 9

(* Total instructions between a window's first instruction and its
   memory access, per mitigation (the fence pass adds its lfence
   between the classic window and the access). *)

let sequence_for = function
  | Mitigation.Off | Mitigation.Fence -> mask_sequence
  | Mitigation.Safe_mask -> safe_mask_sequence

let instrument_instr ?(mitigation = Mitigation.Off) (instr : Ir.instr) :
    Ir.instr list =
  let mask_sequence = sequence_for mitigation in
  match instr with
  | Load { dst; addr; width } ->
      let seq, safe = mask_sequence addr in
      seq @ [ Ir.Load { dst; addr = safe; width } ]
  | Store { src; addr; width } ->
      let seq, safe = mask_sequence addr in
      seq @ [ Ir.Store { src; addr = safe; width } ]
  | Atomic_rmw { dst; op; addr; operand; width } ->
      let seq, safe = mask_sequence addr in
      seq @ [ Ir.Atomic_rmw { dst; op; addr = safe; operand; width } ]
  | Memcpy { dst; src; len } ->
      let dseq, dsafe = mask_sequence dst in
      let sseq, ssafe = mask_sequence src in
      dseq @ sseq @ [ Ir.Memcpy { dst = dsafe; src = ssafe; len } ]
  | Bin _ | Cmp _ | Select _ | Call _ | Call_indirect _ | Io_read _ | Io_write _
  | Fence ->
      [ instr ]

let instrument_block ?mitigation (b : Ir.block) : Ir.block =
  { b with instrs = List.concat_map (instrument_instr ?mitigation) b.instrs }

let instrument_func ?mitigation (f : Ir.func) : Ir.func =
  { f with blocks = List.map (instrument_block ?mitigation) f.blocks }

let instrument_program ?mitigation p =
  Ir.map_funcs (instrument_func ?mitigation) p
