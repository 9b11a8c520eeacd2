open Exec_env

(* The executor runs the linked, slot-allocated form (see {!Linker}).

   Frames live on one growable register-file stack [rf]: the running
   function's registers are [rf.(base) .. rf.(base + nregs - 1)].
   Definedness is tracked by generation stamps in the parallel [def]
   array — a register is defined iff its stamp equals the frame's
   generation — so pushing a frame needs no clearing.  The call stack
   is a flat int array, five fields per frame. *)

let stk_stride = 5

let run ?(fuel = 50_000_000) env (image : Linker.image) entry args =
  let fid =
    match Linker.find_func image entry with Some id -> id | None -> raise Not_found
  in
  let lcode = image.Linker.lcode in
  let funcs = image.Linker.funcs in
  let entry_of = image.Linker.entry_of in
  let ret_label_of = image.Linker.ret_label_of in
  let native = image.Linker.native in
  let ncode = Array.length lcode in
  let f0 = funcs.(fid) in
  if Array.length f0.Linker.f_params <> Array.length args then
    raise
      (Exec_trap
         (Printf.sprintf "call %s: arity mismatch (%d vs %d)" f0.Linker.f_name
            (Array.length f0.Linker.f_params) (Array.length args)));
  (* register-file stack + generation stamps *)
  let rf = ref (Array.make (max 64 f0.Linker.f_nregs) 0L) in
  let def = ref (Array.make (Array.length !rf) 0) in
  let ensure_rf need =
    if need > Array.length !rf then begin
      let n' = max (2 * Array.length !rf) need in
      let rf' = Array.make n' 0L and def' = Array.make n' 0 in
      Array.blit !rf 0 rf' 0 (Array.length !rf);
      Array.blit !def 0 def' 0 (Array.length !def);
      rf := rf';
      def := def'
    end
  in
  (* call stack: prev_base, prev_func, prev_gen, ret_pc, ret_dst *)
  let stack = ref (Array.make (8 * stk_stride) 0) in
  let sp = ref 0 in
  let base = ref 0 in
  let cur = ref fid in
  let gen_ctr = ref 1 in
  let gen = ref 1 in
  let scratch = Array.make image.Linker.max_args 0L in
  let cell = Bytes.create cell_bytes in
  let load a width =
    set cell address a;
    env.load cell width;
    get cell value
  in
  let store a width v =
    set cell address a;
    set cell value v;
    env.store cell width
  in
  let read slot =
    let i = !base + slot in
    if (!def).(i) = !gen then (!rf).(i)
    else
      raise
        (Exec_trap
           (Printf.sprintf "read of undefined register %s"
              funcs.(!cur).Linker.f_names.(slot)))
  in
  let write slot v =
    let i = !base + slot in
    (!rf).(i) <- v;
    (!def).(i) <- !gen
  in
  let v (o : Linker.operand) = match o with Imm x -> x | Slot s -> read s in
  (* Speculation hooks (no-ops at depth 0, where nothing below runs).
     [read_opt] is the non-trapping register view a transient window
     reads the architectural state through. *)
  let read_opt slot =
    let i = !base + slot in
    if (!def).(i) = !gen then Some (!rf).(i) else None
  in
  let open_window ~shadow ~pc =
    env.spec_window ();
    Spec_exec.transient_window ~image ~depth:env.spec_depth ~read:read_opt
      ~spec_load:env.spec_load ~shadow ~pc
  in
  let fuel = ref fuel in
  let pc = ref f0.Linker.f_entry in
  let result = ref 0L in
  let running = ref true in
  (* bind the entry frame straight from the caller's array (it may be
     wider than any in-image call site, so [scratch] cannot hold it) *)
  ensure_rf f0.Linker.f_nregs;
  Array.iteri (fun j p -> write p args.(j)) f0.Linker.f_params;
  let eval_args (a : Linker.operand array) =
    let n = Array.length a in
    for j = 0 to n - 1 do
      scratch.(j) <- v a.(j)
    done;
    n
  in
  let fresh_args (a : Linker.operand array) =
    (* external code may retain the array; never hand out [scratch] *)
    let n = eval_args a in
    Array.sub scratch 0 n
  in
  let do_call ~ret_dst ~target ~ret_pc ~nargs =
    let callee = entry_of.(target) in
    if callee < 0 then
      raise
        (Exec_trap
           (Printf.sprintf "call to %s which is not a function entry"
              (Linker.describe_slot image target)));
    let f = funcs.(callee) in
    let np = Array.length f.Linker.f_params in
    if np <> nargs then
      raise
        (Exec_trap
           (Printf.sprintf "call %s: arity mismatch (%d vs %d)" f.Linker.f_name np nargs));
    let s = !sp in
    if (s + 1) * stk_stride > Array.length !stack then begin
      let stack' = Array.make (2 * Array.length !stack) 0 in
      Array.blit !stack 0 stack' 0 (Array.length !stack);
      stack := stack'
    end;
    let st = !stack in
    let o = s * stk_stride in
    st.(o) <- !base;
    st.(o + 1) <- !cur;
    st.(o + 2) <- !gen;
    st.(o + 3) <- ret_pc;
    st.(o + 4) <- ret_dst;
    sp := s + 1;
    let base' = !base + funcs.(!cur).Linker.f_nregs in
    ensure_rf (base' + f.Linker.f_nregs);
    base := base';
    cur := callee;
    incr gen_ctr;
    gen := !gen_ctr;
    let params = f.Linker.f_params in
    for j = 0 to np - 1 do
      let i = base' + params.(j) in
      (!rf).(i) <- scratch.(j);
      (!def).(i) <- !gen
    done;
    pc := target
  in
  let pop_frame () =
    let s = !sp - 1 in
    sp := s;
    let st = !stack in
    let o = s * stk_stride in
    base := st.(o);
    cur := st.(o + 1);
    gen := st.(o + 2);
    (st.(o + 3), st.(o + 4))
  in
  let addr_of_index i = Native.addr_of_index native i in
  (* A checked control transfer: mask the target into kernel space, then
     demand a CFI label at the masked target (paper section 4.3.1).
     [label_of] makes the probe an array read instead of a pattern
     match; the caller has already paid {!Cfi_pass.check_extra_cycles}. *)
  let checked_target label target =
    let masked = Layout.mask_kernel_target target in
    match Native.index_of_addr native masked with
    | None ->
        raise
          (Cfi_violation
             (Printf.sprintf "control transfer to %s outside translated code"
                (Vg_util.U64.to_hex masked)))
    | Some idx ->
        if image.Linker.label_of.(idx) = label then idx
        else
          raise
            (Cfi_violation
               (Printf.sprintf "target %s does not carry the expected CFI label"
                  (Vg_util.U64.to_hex masked)))
  in
  let do_return vopt =
    (match vopt with Some o -> result := v o | None -> result := 0L);
    if !sp = 0 then running := false
    else begin
      let ret_pc, ret_dst = pop_frame () in
      match env.tamper_return with
      | None ->
          if ret_pc >= ncode then
            raise
              (Exec_trap
                 (Printf.sprintf "return to %s outside image"
                    (Vg_util.U64.to_hex (addr_of_index ret_pc))));
          if ret_dst >= 0 then write ret_dst !result;
          pc := ret_pc
      | Some f -> (
          let ret_addr = f (addr_of_index ret_pc) in
          match Native.index_of_addr native ret_addr with
          | Some idx ->
              if ret_dst >= 0 then write ret_dst !result;
              pc := idx
          | None ->
              raise
                (Exec_trap
                   (Printf.sprintf "return to %s outside image"
                      (Vg_util.U64.to_hex ret_addr))))
    end
  in
  let do_return_checked label vopt =
    (match vopt with Some o -> result := v o | None -> result := 0L);
    if !sp = 0 then running := false
    else begin
      let ret_pc, ret_dst = pop_frame () in
      env.charge Obs.Tag.Cfi Cfi_pass.check_extra_cycles;
      let target =
        match env.tamper_return with
        | None ->
            (* fast path: the pre-resolved probe covers untampered
               returns to a labelled slot whose address the mask leaves
               unchanged *)
            if ret_pc < ncode && ret_label_of.(ret_pc) = label then ret_pc
            else checked_target label (addr_of_index ret_pc)
        | Some f -> checked_target label (f (addr_of_index ret_pc))
      in
      if ret_dst >= 0 then write ret_dst !result;
      pc := target
    end
  in
  while !running do
    decr fuel;
    if !fuel <= 0 then raise (Exec_trap "out of fuel");
    let p = !pc in
    if p < 0 || p >= ncode then
      raise (Exec_trap (Printf.sprintf "pc %d out of code bounds" p));
    env.charge Obs.Tag.Exec 1;
    match lcode.(p) with
    | LMov { dst; src } ->
        write dst (v src);
        pc := p + 1
    | LBin { dst; op; a; b } ->
        (try write dst (Eval.eval_binop op (v a) (v b))
         with Eval.Trap m -> raise (Exec_trap m));
        pc := p + 1
    | LCmp { dst; op; a; b } ->
        write dst (Eval.eval_cmp op (v a) (v b));
        pc := p + 1
    | LSelect { dst; cond; if_true; if_false } ->
        let c = v cond in
        write dst (if c <> 0L then v if_true else v if_false);
        (* the mispredicted select transiently forwards the other arm *)
        if env.spec_depth > 0 then begin
          let wrong = if c <> 0L then if_false else if_true in
          match
            (match wrong with
            | Linker.Imm x -> Some x
            | Linker.Slot s -> read_opt s)
          with
          | Some wv -> open_window ~shadow:(Some (dst, wv)) ~pc:(p + 1)
          | None -> ()
        end;
        pc := p + 1
    | LLoad { dst; addr; width } ->
        write dst (Eval.truncate width (load (v addr) width));
        pc := p + 1
    | LStore { src; addr; width } ->
        store (v addr) width (Eval.truncate width (v src));
        pc := p + 1
    | LMemcpy { dst; src; len } ->
        let len_v = v len in
        (* Copy cost scales with length, as it would on hardware. *)
        env.charge Obs.Tag.Copy (Int64.to_int (Vg_util.U64.div len_v 8L));
        env.memcpy ~dst:(v dst) ~src:(v src) ~len:len_v;
        pc := p + 1
    | LAtomic { dst; op; addr; operand_; width } ->
        let a = v addr in
        let old = Eval.truncate width (load a width) in
        (try store a width (Eval.truncate width (Eval.eval_binop op old (v operand_)))
         with Eval.Trap m -> raise (Exec_trap m));
        write dst old;
        pc := p + 1
    | LJmp target -> pc := target
    | LJz { cond; target } ->
        let c = v cond in
        (* the mispredicted branch transiently runs the other direction *)
        if env.spec_depth > 0 then
          open_window ~shadow:None ~pc:(if c = 0L then p + 1 else target);
        if c = 0L then pc := target else pc := p + 1
    | LCall { dst; target; args } ->
        let nargs = eval_args args in
        do_call ~ret_dst:dst ~target ~ret_pc:(p + 1) ~nargs
    | LCallExtern { dst; name; args } ->
        let res = env.extern name (fresh_args args) in
        if dst >= 0 then write dst res;
        pc := p + 1
    | LCallIndirect { dst; target; args } -> (
        let addr = v target in
        let nargs = eval_args args in
        match Native.index_of_addr native addr with
        | Some idx -> do_call ~ret_dst:dst ~target:idx ~ret_pc:(p + 1) ~nargs
        | None ->
            let res = env.call_foreign addr (Array.sub scratch 0 nargs) in
            if dst >= 0 then write dst res;
            pc := p + 1)
    | LCallIndirectChecked { dst; target; args; label } ->
        let addr = v target in
        let nargs = eval_args args in
        env.charge Obs.Tag.Cfi Cfi_pass.check_extra_cycles;
        let idx = checked_target label addr in
        (* The label slot is the function entry; execution starts there
           and falls through it. *)
        do_call ~ret_dst:dst ~target:idx ~ret_pc:(p + 1) ~nargs
    | LRet value -> do_return value
    | LRetChecked { value; label } -> do_return_checked label value
    | LCfiLabel _ -> pc := p + 1
    | LIoRead { dst; port } ->
        write dst (env.io_read (v port));
        pc := p + 1
    | LIoWrite { port; src } ->
        env.io_write (v port) (v src);
        pc := p + 1
    | LFence ->
        env.charge Obs.Tag.Spec Fence_pass.fence_cycles;
        pc := p + 1
    | LHalt -> raise (Exec_trap "halt / unreachable executed")
  done;
  !result
