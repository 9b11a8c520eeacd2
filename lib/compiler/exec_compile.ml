(* Closure-compiled execution engine — the one the kernel runs module
   code on.

   [compile] translates a linked image once, at load time, into an
   array of OCaml closures — one per code slot — with every operand,
   call target, arity check and error message pre-resolved at
   translation time.  Steady-state execution is then a chain of tail
   calls through the closure array: the per-instruction constructor
   match and operand decode of the slot executor disappear entirely.

   The contract is byte-identical observable behaviour with the
   slot-file executor: the same [charge] calls with the same
   {!Obs.Tag} attribution in the same order, the same exceptions with
   the same messages, the same fuel accounting, the same
   [tamper_return] consultation, and the same generation-stamped
   register-file stack semantics.  Every closure body below is a
   transliteration of the corresponding slot-executor match arm —
   down to application shapes, so that OCaml's argument evaluation
   order (and therefore trap order on undefined registers) is
   preserved.

   Superinstruction fusion: three hot adjacent pairs are additionally
   compiled into a single closure that inlines both instruction bodies
   back to back (each keeping its own fuel tick and [Exec] charge, so
   cycle streams and out-of-fuel trajectories are unchanged):

   - cmp+branch   — an [LCmp] whose successor is an [LJz] consuming
     its destination: the branch tests the freshly computed flag
     without a register-file round trip through the dispatcher;
   - mask+load / load+mask — an [LBin And/Or] feeding the address of
     the adjacent [LLoad] (the sandbox masking idiom), or an [LLoad]
     feeding an adjacent masking [LBin];
   - push+call    — every static [LCall] pre-resolves callee, arity,
     parameter slots and frame sizes at translation time, so argument
     push and control transfer are one closure with no runtime symbol
     or entry lookups (ill-formed call sites compile to closures that
     raise the identical [Exec_trap] only if actually executed).

   The closure compiler is *outside* the TCB: it runs only on images
   that already passed {!Image_verify} (enforced by
   {!Trans_cache.find_compiled}, the kernel's only route to a compiled
   artifact), and its behaviour is pinned against the slot executor by
   the cycle goldens and the three-way differential fuzz rather than
   trusted. *)

(* The register file is a flat byte buffer of unboxed 64-bit values
   rather than an [int64 array]: a boxed-int64 array store pays the
   caml_modify write barrier on every register write, and every value
   written would be a fresh heap box.  Closures keep values unboxed
   from register read to register write by feeding reads straight into
   inlined primitives ({!binop}, {!cmpop}) rather than through closure
   calls, which would box every argument and result.  Call arguments
   are staged the same way, in the [scratch] byte buffer, and boxed
   only for code outside the image.

   A state outlives its run: [run] hands it back to the image's spare
   list when the run returns normally, and the next run takes it with
   its grown register file, definedness stamps and frame stack, so a
   warm call allocates none of them.  Its generation counter carries
   on from the last run, so a slot defined by an earlier run never
   matches the current generation and still reads as undefined.  A run
   that raises drops its state. *)
type state = {
  mutable rf : Bytes.t;
  mutable def : int array;
  mutable stack : int array;
  mutable sp : int;
  mutable base : int;
  mutable cur : int;
  mutable gen_ctr : int;
  mutable gen : int;
  mutable fuel : int;
  mutable pc : int;
  ret : Bytes.t;  (* the value the last return produced, unboxed *)
  mutable running : bool;
  scratch : Bytes.t;  (* call arguments, unboxed, 8 bytes each *)
  cell : Bytes.t;  (* the memory callbacks' exchange cell, unboxed *)
  mutable env : Exec_env.env;
  (* hot env callbacks hoisted out of the record hop: one load instead
     of two on every tick / memory access *)
  mutable charge : Obs.Tag.t -> int -> unit;
  mutable mem_load : Bytes.t -> Ir.width -> unit;
  mutable mem_store : Bytes.t -> Ir.width -> unit;
  mutable spec_depth : int;  (* hoisted: checked on every resolved conditional *)
  (* Tick accounting.  With [each] (charges observed) every tick is
     its own [Exec] charge.  Without it the ticks since the last
     payment are [paid - fuel], paid in one charge by [flush] before
     any callback, raise or return. *)
  mutable each : bool;
  mutable paid : int;
}

type stats = { slots : int; fused_pairs : int; static_calls : int }

(* Recognised shape of one {!Sandbox_pass.mask_sequence} in linked
   code: cmp / or / select / cmp / cmp / and / select computing a safe
   address into [g_s].  Field names follow the pass ([h]igh, [o]red,
   [e]scaped, [a]bove/[b]elow sva, [i]n-sva, [s]afe). *)
type guard = {
  g_a : Linker.operand;  (* the original address operand *)
  g_c1 : int64;
  g_h : int;
  g_c2 : int64;
  g_o : int;
  g_e : int;
  g_c3 : int64;
  g_av : int;
  g_c4 : int64;
  g_bv : int;
  g_iv : int;
  g_t : int64;
  g_s : int;
}

let guard_dsts g = [ g.g_h; g.g_o; g.g_e; g.g_av; g.g_bv; g.g_iv; g.g_s ]

type t = {
  image : Linker.image;
  code : (state -> unit) array;  (* ncode + 1 entries; the last one is
                                    the fall-off-the-end trap *)
  stats : stats;
  mutable spares : state list;  (* states of runs that returned *)
}

let image t = t.image
let stats t = t.stats

(* call stack layout, as in the slot executor:
   prev_base, prev_func, prev_gen, ret_pc, ret_dst *)
let stk_stride = 5

(* The tick that runs out of fuel is not charged; its decrement is not
   stored either, so [paid - fuel] counts only charged ticks (the state
   dies with the raise). *)
let[@inline] tick st =
  let f = st.fuel - 1 in
  if f <= 0 then raise (Exec_env.Exec_trap "out of fuel");
  st.fuel <- f;
  if st.each then st.charge Obs.Tag.Exec 1

(* Pay the pending ticks: the clock is exact from here on. *)
let[@inline] flush st =
  if not st.each then begin
    let n = st.paid - st.fuel in
    if n > 0 then begin
      st.paid <- st.fuel;
      st.charge Obs.Tag.Exec n
    end
  end

(* After a callback that can run arbitrary code: it may have armed or
   disarmed the hub. *)
let recheck st =
  let each = st.env.Exec_env.observed () in
  if each <> st.each then begin
    st.each <- each;
    st.paid <- st.fuel
  end

let[@inline] charge st tag n =
  flush st;
  st.charge tag n

let[@inline] mem_load st a w =
  flush st;
  Exec_env.set st.cell Exec_env.address a;
  st.mem_load st.cell w;
  Exec_env.get st.cell Exec_env.value

let[@inline] mem_store st a w v =
  flush st;
  Exec_env.set st.cell Exec_env.address a;
  Exec_env.set st.cell Exec_env.value v;
  st.mem_store st.cell w

(* Pure operations as inlined matches over primitives (a closure per
   operator would box operands and result).  Same arithmetic as
   {!Eval.eval_binop} / {!Eval.eval_cmp} without polymorphic equality,
   same trap messages (the slot executor rewraps [Eval.Trap] into
   [Exec_trap]; the division arms raise [Exec_trap] directly with the
   identical text). *)
let[@inline] binop (op : Ir.binop) a b =
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | Udiv ->
      if Int64.equal b 0L then raise (Exec_env.Exec_trap "udiv by zero")
      else Int64.unsigned_div a b
  | Urem ->
      if Int64.equal b 0L then raise (Exec_env.Exec_trap "urem by zero")
      else Int64.unsigned_rem a b
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Shl -> Int64.shift_left a (Int64.to_int (Int64.logand b 63L))
  | Lshr -> Int64.shift_right_logical a (Int64.to_int (Int64.logand b 63L))
  | Ashr -> Int64.shift_right a (Int64.to_int (Int64.logand b 63L))

let[@inline] holds (op : Ir.cmp) a b =
  match op with
  | Eq -> Int64.equal a b
  | Ne -> not (Int64.equal a b)
  | Ult -> Int64.unsigned_compare a b < 0
  | Ule -> Int64.unsigned_compare a b <= 0
  | Ugt -> Int64.unsigned_compare a b > 0
  | Uge -> Int64.unsigned_compare a b >= 0
  | Slt -> Int64.compare a b < 0
  | Sle -> Int64.compare a b <= 0

let trunc (width : Ir.width) : int64 -> int64 =
  match width with
  | W8 -> fun v -> Int64.logand v 0xffL
  | W16 -> fun v -> Int64.logand v 0xffffL
  | W32 -> fun v -> Int64.logand v 0xffffffffL
  | W64 -> fun v -> v

(* Register-file accesses use unchecked primitives: slot indices come
   from the linker (always < the owning function's [f_nregs]) and
   [ensure_rf] maintains capacity >= base + nregs at every push, so the
   bounds hold by construction on any linker-produced image — and the
   kernel only ever compiles verifier-accepted images. *)
external rf_get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external rf_set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] write st slot v =
  let i = st.base + slot in
  rf_set st.rf (i lsl 3) v;
  Array.unsafe_set st.def i st.gen

(* [write st dst (binop op a b)] and [write st dst (cmpop op a b)] with
   the write inside every arm: an [int64] that a match yields is boxed
   where its arms join, one written in each arm is not. *)
let[@inline] write_binop st dst (op : Ir.binop) a b =
  match op with
  | Add -> write st dst (Int64.add a b)
  | Sub -> write st dst (Int64.sub a b)
  | Mul -> write st dst (Int64.mul a b)
  | Udiv ->
      if Int64.equal b 0L then raise (Exec_env.Exec_trap "udiv by zero")
      else write st dst (Int64.unsigned_div a b)
  | Urem ->
      if Int64.equal b 0L then raise (Exec_env.Exec_trap "urem by zero")
      else write st dst (Int64.unsigned_rem a b)
  | And -> write st dst (Int64.logand a b)
  | Or -> write st dst (Int64.logor a b)
  | Xor -> write st dst (Int64.logxor a b)
  | Shl -> write st dst (Int64.shift_left a (Int64.to_int (Int64.logand b 63L)))
  | Lshr -> write st dst (Int64.shift_right_logical a (Int64.to_int (Int64.logand b 63L)))
  | Ashr -> write st dst (Int64.shift_right a (Int64.to_int (Int64.logand b 63L)))

let[@inline] write_cmp st dst op a b =
  if holds op a b then write st dst 1L else write st dst 0L

let ensure_rf st need =
  if need > Array.length st.def then begin
    let n' = max (2 * Array.length st.def) need in
    let rf' = Bytes.make (n' lsl 3) '\000' and def' = Array.make n' 0 in
    Bytes.blit st.rf 0 rf' 0 (Bytes.length st.rf);
    Array.blit st.def 0 def' 0 (Array.length st.def);
    st.rf <- rf';
    st.def <- def'
  end

let push_frame st ~caller_nregs ~callee ~callee_nregs ~params ~np ~ret_pc
    ~ret_dst =
  let s = st.sp in
  if (s + 1) * stk_stride > Array.length st.stack then begin
    let stack' = Array.make (2 * Array.length st.stack) 0 in
    Array.blit st.stack 0 stack' 0 (Array.length st.stack);
    st.stack <- stack'
  end;
  let stk = st.stack in
  let o = s * stk_stride in
  stk.(o) <- st.base;
  stk.(o + 1) <- st.cur;
  stk.(o + 2) <- st.gen;
  stk.(o + 3) <- ret_pc;
  stk.(o + 4) <- ret_dst;
  st.sp <- s + 1;
  let base' = st.base + caller_nregs in
  ensure_rf st (base' + callee_nregs);
  st.base <- base';
  st.cur <- callee;
  st.gen_ctr <- st.gen_ctr + 1;
  st.gen <- st.gen_ctr;
  for j = 0 to np - 1 do
    let i = base' + Array.unsafe_get params j in
    rf_set st.rf (i lsl 3) (rf_get st.scratch (j lsl 3));
    Array.unsafe_set st.def i st.gen
  done

(* Restores the caller's frame and returns the popped record's offset
   in [stack]; the caller reads ret_pc and ret_dst from there. *)
let pop_frame st =
  let s = st.sp - 1 in
  st.sp <- s;
  let stk = st.stack in
  let o = s * stk_stride in
  st.base <- stk.(o);
  st.cur <- stk.(o + 1);
  st.gen <- stk.(o + 2);
  o

(* Box the staged arguments for code outside the image (externs,
   foreign calls), which may retain the array. *)
let boxed_args st n = Array.init n (fun j -> rf_get st.scratch (j lsl 3))

let compile (image : Linker.image) : t =
  let lcode = image.Linker.lcode in
  let funcs = image.Linker.funcs in
  let entry_of = image.Linker.entry_of in
  let ret_label_of = image.Linker.ret_label_of in
  let label_of = image.Linker.label_of in
  let native = image.Linker.native in
  let ncode = Array.length lcode in
  let code = Array.make (ncode + 1) (fun (_ : state) -> ()) in
  let fused_pairs = ref 0 in
  let static_calls = ref 0 in
  (* operand readers: immediates close over the value, slots over the
     definedness probe (error messages name the register through the
     runtime current function, exactly as the slot executor does).
     [rslot] is the direct-call form used by the shape-specialised
     closures below; the cold undefined-register path stays out of line
     so the probe itself inlines. *)
  let undef_slot st s =
    raise
      (Exec_env.Exec_trap
         (Printf.sprintf "read of undefined register %s"
            funcs.(st.cur).Linker.f_names.(s)))
  in
  (* definedness first, so the read itself is a plain unboxed load with
     no join against the trapping path *)
  let[@inline] rslot st s =
    let i = st.base + s in
    if Array.unsafe_get st.def i <> st.gen then undef_slot st s;
    rf_get st.rf (i lsl 3)
  in
  let rd (o : Linker.operand) : state -> int64 =
    match o with
    | Imm x -> fun _ -> x
    | Slot s -> fun st -> rslot st s
  in
  let[@inline] operand st (o : Linker.operand) =
    match o with Imm x -> x | Slot s -> rslot st s
  in
  (* Stage call arguments into [scratch], left to right (trap order on
     undefined registers is the slot executor's). *)
  let eval_args st (args : Linker.operand array) =
    let n = Array.length args in
    for j = 0 to n - 1 do
      rf_set st.scratch (j lsl 3) (operand st (Array.unsafe_get args j))
    done;
    n
  in
  (* dispatch: every translated target index is < ncode by linker
     construction, and [next] tops out at the fall-off-the-end trap slot,
     so the bounds check on the closure array is dead *)
  let[@inline] goto j st = (Array.unsafe_get code j) st in
  (* --- sandbox-guard superinstruction --------------------------- *)
  (* The seven-instruction masking sequence every sandboxed memory
     access carries is the hottest code in any ghost-compiled image.
     Recognise it structurally (any constants; the dataflow wiring and
     operators must match, all destinations distinct so the local
     value-forwarding below cannot be aliased away from register-file
     semantics) and compile the whole sequence into one closure: seven
     fuel ticks and seven register writes exactly as the slot executor
     performs them — charge-call granularity is observable through
     {!Obs} sinks and must not change — but with intermediate values
     forwarded in OCaml locals, no definedness probes on registers
     written earlier in the same sequence, and no dispatch between the
     slots.  The only operand that can trap is the initial address
     read, in first position, exactly as unfused. *)
  let rec distinct = function
    | [] -> true
    | x :: rest -> (not (List.mem (x : int) rest)) && distinct rest
  in
  let guard_at i : guard option =
    if i + 6 >= ncode then None
    else
      match
        ( lcode.(i),
          lcode.(i + 1),
          lcode.(i + 2),
          lcode.(i + 3),
          lcode.(i + 4),
          lcode.(i + 5),
          lcode.(i + 6) )
      with
      | ( LCmp { dst = h; op = Uge; a; b = Imm c1 },
          LBin { dst = o; op = Or; a = a2; b = Imm c2 },
          LSelect { dst = e; cond = Slot hc; if_true = Slot ot; if_false = f },
          LCmp { dst = av; op = Uge; a = Slot e1; b = Imm c3 },
          LCmp { dst = bv; op = Ult; a = Slot e2; b = Imm c4 },
          LBin { dst = iv; op = And; a = Slot av1; b = Slot bv1 },
          LSelect { dst = s; cond = Slot iv1; if_true = Imm t; if_false = Slot e3 }
        )
        when a2 = a && f = a && hc = h && ot = o && e1 = e && e2 = e && e3 = e
             && av1 = av && bv1 = bv && iv1 = iv
             && distinct [ h; o; e; av; bv; iv; s ]
             && (match a with
                | Slot sa -> not (List.mem sa [ h; o; e; av; bv; iv; s ])
                | Imm _ -> true) ->
          Some
            {
              g_a = a;
              g_c1 = c1;
              g_h = h;
              g_c2 = c2;
              g_o = o;
              g_e = e;
              g_c3 = c3;
              g_av = av;
              g_c4 = c4;
              g_bv = bv;
              g_iv = iv;
              g_t = t;
              g_s = s;
            }
      | _ -> None
  in
  (* Speculation hooks, matching the slot executor window for window: the
     compiled engine must pollute the same cache lines at the same
     resolution points, or cross-engine cycle parity breaks the moment
     a later architectural access hits (or misses) a line only one
     engine warmed. *)
  let read_opt st s =
    let i = st.base + s in
    if Array.unsafe_get st.def i = st.gen then Some (rf_get st.rf (i lsl 3))
    else None
  in
  let open_window st ~shadow ~pc =
    flush st;
    st.env.Exec_env.spec_window ();
    Spec_exec.transient_window ~image ~depth:st.spec_depth
      ~read:(read_opt st) ~spec_load:st.env.Exec_env.spec_load ~shadow ~pc
  in
  (* Seven ticks, seven writes, values forwarded in locals; the fused
     access that follows reads the safe address back from [g_s].  [at]
     is the guard's first slot index — fusion must not lose the
     transient windows the two selects open when executed one by one. *)
  let[@inline] guard_body ~at g st a =
    let h = if Int64.unsigned_compare a g.g_c1 >= 0 then 1L else 0L in
    write st g.g_h h;
    tick st;
    let o = Int64.logor a g.g_c2 in
    write st g.g_o o;
    tick st;
    let e = if Int64.equal h 0L then a else o in
    write st g.g_e e;
    if st.spec_depth > 0 then
      open_window st
        ~shadow:(Some (g.g_e, if Int64.equal h 0L then o else a))
        ~pc:(at + 3);
    tick st;
    let av = if Int64.unsigned_compare e g.g_c3 >= 0 then 1L else 0L in
    write st g.g_av av;
    tick st;
    let bv = if Int64.unsigned_compare e g.g_c4 < 0 then 1L else 0L in
    write st g.g_bv bv;
    tick st;
    let iv = Int64.logand av bv in
    write st g.g_iv iv;
    tick st;
    write st g.g_s (if Int64.equal iv 0L then e else g.g_t);
    if st.spec_depth > 0 then
      open_window st
        ~shadow:(Some (g.g_s, if Int64.equal iv 0L then g.g_t else e))
        ~pc:(at + 7)
  in
  let run_guard ~at g : state -> unit =
    match g.g_a with
    | Linker.Imm v ->
        fun st ->
          tick st;
          guard_body ~at g st v
    | Slot sa ->
        fun st ->
          tick st;
          guard_body ~at g st (rslot st sa)
  in
  (* the safe address a guard just wrote, read back without a probe *)
  let[@inline] safe st g = rf_get st.rf ((st.base + g.g_s) lsl 3) in
  let checked_target label target =
    let masked = Layout.mask_kernel_target target in
    match Native.index_of_addr native masked with
    | None ->
        raise
          (Exec_env.Cfi_violation
             (Printf.sprintf "control transfer to %s outside translated code"
                (Vg_util.U64.to_hex masked)))
    | Some idx ->
        if label_of.(idx) = label then idx
        else
          raise
            (Exec_env.Cfi_violation
               (Printf.sprintf "target %s does not carry the expected CFI label"
                  (Vg_util.U64.to_hex masked)))
  in
  let do_call_dyn st ~ret_dst ~target ~ret_pc ~nargs =
    let callee = entry_of.(target) in
    if callee < 0 then
      raise
        (Exec_env.Exec_trap
           (Printf.sprintf "call to %s which is not a function entry"
              (Linker.describe_slot image target)));
    let f = funcs.(callee) in
    let np = Array.length f.Linker.f_params in
    if np <> nargs then
      raise
        (Exec_env.Exec_trap
           (Printf.sprintf "call %s: arity mismatch (%d vs %d)" f.Linker.f_name
              np nargs));
    push_frame st ~caller_nregs:funcs.(st.cur).Linker.f_nregs ~callee
      ~callee_nregs:f.Linker.f_nregs ~params:f.Linker.f_params ~np ~ret_pc
      ~ret_dst;
    st.pc <- target
  in
  (* [st.ret] already holds the returned value *)
  let do_return st =
    if st.sp = 0 then st.running <- false
    else begin
      let o = pop_frame st in
      let ret_pc = st.stack.(o + 3) and ret_dst = st.stack.(o + 4) in
      match st.env.Exec_env.tamper_return with
      | None ->
          if ret_pc >= ncode then
            raise
              (Exec_env.Exec_trap
                 (Printf.sprintf "return to %s outside image"
                    (Vg_util.U64.to_hex (Native.addr_of_index native ret_pc))));
          if ret_dst >= 0 then write st ret_dst (rf_get st.ret 0);
          st.pc <- ret_pc
      | Some f -> (
          flush st;
          let ret_addr = f (Native.addr_of_index native ret_pc) in
          match Native.index_of_addr native ret_addr with
          | Some idx ->
              if ret_dst >= 0 then write st ret_dst (rf_get st.ret 0);
              st.pc <- idx
          | None ->
              raise
                (Exec_env.Exec_trap
                   (Printf.sprintf "return to %s outside image"
                      (Vg_util.U64.to_hex ret_addr))))
    end
  in
  let do_return_checked st label =
    if st.sp = 0 then st.running <- false
    else begin
      let o = pop_frame st in
      let ret_pc = st.stack.(o + 3) and ret_dst = st.stack.(o + 4) in
      charge st Obs.Tag.Cfi Cfi_pass.check_extra_cycles;
      let target =
        match st.env.Exec_env.tamper_return with
        | None ->
            if ret_pc < ncode && ret_label_of.(ret_pc) = label then ret_pc
            else checked_target label (Native.addr_of_index native ret_pc)
        | Some f ->
            flush st;
            checked_target label (f (Native.addr_of_index native ret_pc))
      in
      if ret_dst >= 0 then write st ret_dst (rf_get st.ret 0);
      st.pc <- target
    end
  in
  let compile_at i : state -> unit =
    let next = i + 1 in
    let successor = if next < ncode then Some lcode.(next) else None in
    let guard_fused : (state -> unit) option =
      match guard_at i with
      | None -> None
      | Some g when i + 7 < ncode -> (
          let gb = run_guard ~at:i g in
          let after = i + 8 in
          match lcode.(i + 7) with
          | LLoad { dst; addr = Slot sa; width } when sa = g.g_s ->
              fused_pairs := !fused_pairs + 7;
              Some
                (match width with
                | Ir.W64 ->
                    fun st ->
                      gb st;
                      tick st;
                      write st dst (mem_load st (safe st g) Ir.W64);
                      goto after st
                | w ->
                    let tr = trunc w in
                    fun st ->
                      gb st;
                      tick st;
                      write st dst (tr (mem_load st (safe st g) w));
                      goto after st)
          | LStore { src; addr = Slot sa; width } when sa = g.g_s ->
              fused_pairs := !fused_pairs + 7;
              let rsrc = rd src in
              Some
                (match width with
                | Ir.W64 ->
                    fun st ->
                      gb st;
                      tick st;
                      mem_store st (safe st g) Ir.W64 (rsrc st);
                      goto after st
                | w ->
                    let tr = trunc w in
                    fun st ->
                      gb st;
                      tick st;
                      mem_store st (safe st g) w (tr (rsrc st));
                      goto after st)
          | LAtomic { dst; op; addr = Slot sa; operand_; width }
            when sa = g.g_s ->
              fused_pairs := !fused_pairs + 7;
              let rop = rd operand_ in
              let tr = trunc width in
              Some
                (fun st ->
                  gb st;
                  tick st;
                  let sa = safe st g in
                  let old = tr (mem_load st sa width) in
                  mem_store st sa width (tr (binop op old (rop st)));
                  write st dst old;
                  goto after st)
          | LCmp _ -> (
              (* a memcpy carries two back-to-back guards (dst then
                 src); the destination's safe slot must not be
                 clobbered by the source's sequence *)
              match guard_at (i + 7) with
              | Some g2
                when i + 14 < ncode
                     && not (List.mem g.g_s (guard_dsts g2)) -> (
                  match lcode.(i + 14) with
                  | LMemcpy { dst = Slot d; src = Slot s2; len }
                    when d = g.g_s && s2 = g2.g_s ->
                      fused_pairs := !fused_pairs + 14;
                      let gb2 = run_guard ~at:(i + 7) g2 in
                      let after = i + 15 in
                      Some
                        (match len with
                        | Imm len_v ->
                            let copy_cycles =
                              Int64.to_int (Vg_util.U64.div len_v 8L)
                            in
                            fun st ->
                              gb st;
                              gb2 st;
                              tick st;
                              charge st Obs.Tag.Copy copy_cycles;
                              st.env.Exec_env.memcpy ~dst:(safe st g)
                                ~src:(safe st g2) ~len:len_v;
                              goto after st
                        | _ ->
                            let rlen = rd len in
                            fun st ->
                              gb st;
                              gb2 st;
                              tick st;
                              let len_v = rlen st in
                              charge st Obs.Tag.Copy
                                (Int64.to_int (Vg_util.U64.div len_v 8L));
                              st.env.Exec_env.memcpy ~dst:(safe st g)
                                ~src:(safe st g2) ~len:len_v;
                              goto after st)
                  | _ -> None)
              | _ -> None)
          | _ -> None)
      | Some _ -> None
    in
    match guard_fused with
    | Some f -> f
    | None -> (
    match (lcode.(i), successor) with
    (* --- superinstruction: cmp+branch ----------------------------- *)
    | LCmp { dst; op; a; b }, Some (LJz { cond = Slot c; target })
      when c = dst -> (
        incr fused_pairs;
        let fall = i + 2 in
        (* the outcome travels as a [bool]: an [int64] argument to this
           out-of-line function would be boxed *)
        let finish st c =
          write st dst (if c then 1L else 0L);
          tick st;
          let taken = not c in
          if st.spec_depth > 0 then
            open_window st ~shadow:None ~pc:(if taken then fall else target);
          if taken then goto target st else goto fall st
        in
        match (a, b) with
        | Slot sa, Slot sb ->
            fun st ->
              tick st;
              finish st (holds op (rslot st sa) (rslot st sb))
        | Slot sa, Imm vb ->
            fun st ->
              tick st;
              finish st (holds op (rslot st sa) vb)
        | Imm va, Slot sb ->
            fun st ->
              tick st;
              finish st (holds op va (rslot st sb))
        | Imm va, Imm vb ->
            let c = holds op va vb in
            fun st ->
              tick st;
              finish st c)
    (* --- superinstruction: mask+load ------------------------------ *)
    | ( LBin { dst = m; op = (Ir.And | Ir.Or) as op; a; b },
        Some (LLoad { dst = ldst; addr = Slot am; width }) )
      when am = m -> (
        incr fused_pairs;
        let tr = trunc width in
        let fall = i + 2 in
        (* the masked address was written one instruction ago in this
           very closure: read it back without the definedness probe *)
        let finish st =
          tick st;
          write st ldst
            (tr (mem_load st (rf_get st.rf ((st.base + m) lsl 3)) width));
          goto fall st
        in
        match (a, b) with
        | Slot sa, Slot sb ->
            fun st ->
              tick st;
              write_binop st m op (rslot st sa) (rslot st sb);
              finish st
        | Slot sa, Imm vb ->
            fun st ->
              tick st;
              write_binop st m op (rslot st sa) vb;
              finish st
        | Imm va, Slot sb ->
            fun st ->
              tick st;
              write_binop st m op va (rslot st sb);
              finish st
        | Imm va, Imm vb ->
            fun st ->
              tick st;
              write_binop st m op va vb;
              finish st)
    (* --- superinstruction: load+mask ------------------------------ *)
    | ( LLoad { dst = l; addr; width },
        Some (LBin { dst = bdst; op = (Ir.And | Ir.Or) as bop; a = ba; b = bb })
      )
      when ba = Linker.Slot l || bb = Linker.Slot l ->
        incr fused_pairs;
        let raddr = rd addr
        and rba = rd ba
        and rbb = rd bb
        and tr = trunc width in
        fun st ->
          tick st;
          write st l (tr (mem_load st (raddr st) width));
          tick st;
          write_binop st bdst bop (rba st) (rbb st);
          goto (i + 2) st
    (* --- single instructions -------------------------------------- *)
    | LMov { dst; src }, _ -> (
        match src with
        | Imm x ->
            fun st ->
              tick st;
              write st dst x;
              goto next st
        | Slot s ->
            fun st ->
              tick st;
              write st dst (rslot st s);
              goto next st)
    | LBin { dst; op; a; b }, _ -> (
        match (a, b) with
        | Slot sa, Slot sb ->
            fun st ->
              tick st;
              write_binop st dst op (rslot st sa) (rslot st sb);
              goto next st
        | Slot sa, Imm vb ->
            fun st ->
              tick st;
              write_binop st dst op (rslot st sa) vb;
              goto next st
        | Imm va, Slot sb ->
            fun st ->
              tick st;
              write_binop st dst op va (rslot st sb);
              goto next st
        | Imm va, Imm vb ->
            fun st ->
              tick st;
              write_binop st dst op va vb;
              goto next st)
    | LCmp { dst; op; a; b }, _ -> (
        match (a, b) with
        | Slot sa, Slot sb ->
            fun st ->
              tick st;
              write_cmp st dst op (rslot st sa) (rslot st sb);
              goto next st
        | Slot sa, Imm vb ->
            fun st ->
              tick st;
              write_cmp st dst op (rslot st sa) vb;
              goto next st
        | Imm va, Slot sb ->
            fun st ->
              tick st;
              write_cmp st dst op va (rslot st sb);
              goto next st
        | Imm va, Imm vb ->
            fun st ->
              tick st;
              write_cmp st dst op va vb;
              goto next st)
    | LSelect { dst; cond; if_true; if_false }, _ ->
        let rcond = rd cond and rt_ = rd if_true and rf_ = rd if_false in
        fun st ->
          tick st;
          let c = rcond st in
          write st dst (if Int64.equal c 0L then rf_ st else rt_ st);
          if st.spec_depth > 0 then begin
            let wrong = if Int64.equal c 0L then if_true else if_false in
            match
              (match wrong with
              | Linker.Imm x -> Some x
              | Linker.Slot s -> read_opt st s)
            with
            | Some wv -> open_window st ~shadow:(Some (dst, wv)) ~pc:next
            | None -> ()
          end;
          goto next st
    | LLoad { dst; addr; width }, _ -> (
        match (addr, width) with
        | Slot sa, W64 ->
            fun st ->
              tick st;
              write st dst (mem_load st (rslot st sa) Ir.W64);
              goto next st
        | Imm va, W64 ->
            fun st ->
              tick st;
              write st dst (mem_load st va Ir.W64);
              goto next st
        | Slot sa, w ->
            let tr = trunc w in
            fun st ->
              tick st;
              write st dst (tr (mem_load st (rslot st sa) w));
              goto next st
        | Imm va, w ->
            let tr = trunc w in
            fun st ->
              tick st;
              write st dst (tr (mem_load st va w));
              goto next st)
    | LStore { src; addr; width }, _ -> (
        match width with
        | W64 -> (
            match (addr, src) with
            | Slot sa, Slot ss ->
                fun st ->
                  tick st;
                  mem_store st (rslot st sa) Ir.W64 (rslot st ss);
                  goto next st
            | Slot sa, Imm vs ->
                fun st ->
                  tick st;
                  mem_store st (rslot st sa) Ir.W64 vs;
                  goto next st
            | Imm va, Slot ss ->
                fun st ->
                  tick st;
                  mem_store st va Ir.W64 (rslot st ss);
                  goto next st
            | Imm va, Imm vs ->
                fun st ->
                  tick st;
                  mem_store st va Ir.W64 vs;
                  goto next st)
        | w ->
            let rsrc = rd src and raddr = rd addr in
            let tr = trunc w in
            fun st ->
              tick st;
              mem_store st (raddr st) w (tr (rsrc st));
              goto next st)
    | LMemcpy { dst; src; len }, _ -> (
        let rdst = rd dst and rsrc = rd src in
        match len with
        | Imm len_v ->
            (* constant length: the Copy surcharge is a translation-time
               constant *)
            let copy_cycles = Int64.to_int (Vg_util.U64.div len_v 8L) in
            fun st ->
              tick st;
              charge st Obs.Tag.Copy copy_cycles;
              st.env.Exec_env.memcpy ~dst:(rdst st) ~src:(rsrc st) ~len:len_v;
              goto next st
        | _ ->
            let rlen = rd len in
            fun st ->
              tick st;
              let len_v = rlen st in
              charge st Obs.Tag.Copy (Int64.to_int (Vg_util.U64.div len_v 8L));
              st.env.Exec_env.memcpy ~dst:(rdst st) ~src:(rsrc st) ~len:len_v;
              goto next st)
    | LAtomic { dst; op; addr; operand_; width }, _ ->
        let raddr = rd addr and rop = rd operand_ in
        let tr = trunc width in
        fun st ->
          tick st;
          let a = raddr st in
          let old = tr (mem_load st a width) in
          mem_store st a width (tr (binop op old (rop st)));
          write st dst old;
          goto next st
    | LJmp target, _ ->
        fun st ->
          tick st;
          goto target st
    | LJz { cond; target }, _ -> (
        match cond with
        | Slot s ->
            fun st ->
              tick st;
              let taken = Int64.equal (rslot st s) 0L in
              if st.spec_depth > 0 then
                open_window st ~shadow:None
                  ~pc:(if taken then next else target);
              if taken then goto target st else goto next st
        | Imm x ->
            let taken = Int64.equal x 0L in
            let arch = if taken then target else next
            and wrong = if taken then next else target in
            fun st ->
              tick st;
              if st.spec_depth > 0 then open_window st ~shadow:None ~pc:wrong;
              goto arch st)
    (* --- superinstruction: push+call ------------------------------ *)
    | LCall { dst; target; args }, _ -> (
        let nargs = Array.length args in
        let callee = entry_of.(target) in
        if callee < 0 then
          let msg =
            Printf.sprintf "call to %s which is not a function entry"
              (Linker.describe_slot image target)
          in
          fun st ->
            tick st;
            ignore (eval_args st args);
            raise (Exec_env.Exec_trap msg)
        else
          let f = funcs.(callee) in
          let np = Array.length f.Linker.f_params in
          if np <> nargs then
            let msg =
              Printf.sprintf "call %s: arity mismatch (%d vs %d)"
                f.Linker.f_name np nargs
            in
            fun st ->
              tick st;
              ignore (eval_args st args);
              raise (Exec_env.Exec_trap msg)
          else begin
            incr static_calls;
            let params = f.Linker.f_params in
            let callee_nregs = f.Linker.f_nregs in
            fun st ->
              tick st;
              ignore (eval_args st args);
              push_frame st ~caller_nregs:funcs.(st.cur).Linker.f_nregs ~callee
                ~callee_nregs ~params ~np ~ret_pc:next ~ret_dst:dst;
              goto target st
          end)
    | LCallExtern { dst; name; args }, _ ->
        fun st ->
          tick st;
          let n = eval_args st args in
          flush st;
          let res = st.env.Exec_env.extern name (boxed_args st n) in
          recheck st;
          if dst >= 0 then write st dst res;
          goto next st
    | LCallIndirect { dst; target; args }, _ ->
        let rtarget = rd target in
        fun st -> (
          tick st;
          let addr = rtarget st in
          let nargs = eval_args st args in
          match Native.index_of_addr native addr with
          | Some idx ->
              do_call_dyn st ~ret_dst:dst ~target:idx ~ret_pc:next ~nargs;
              goto st.pc st
          | None ->
              flush st;
              let res =
                st.env.Exec_env.call_foreign addr (boxed_args st nargs)
              in
              recheck st;
              if dst >= 0 then write st dst res;
              goto next st)
    | LCallIndirectChecked { dst; target; args; label }, _ ->
        let rtarget = rd target in
        fun st ->
          tick st;
          let addr = rtarget st in
          let nargs = eval_args st args in
          charge st Obs.Tag.Cfi Cfi_pass.check_extra_cycles;
          let idx = checked_target label addr in
          do_call_dyn st ~ret_dst:dst ~target:idx ~ret_pc:next ~nargs;
          goto st.pc st
    | LRet value, _ ->
        let v = Option.value value ~default:(Linker.Imm 0L) in
        fun st ->
          tick st;
          rf_set st.ret 0 (operand st v);
          do_return st;
          if st.running then goto st.pc st
    | LRetChecked { value; label }, _ ->
        let v = Option.value value ~default:(Linker.Imm 0L) in
        fun st ->
          tick st;
          rf_set st.ret 0 (operand st v);
          do_return_checked st label;
          if st.running then goto st.pc st
    | LCfiLabel _, _ ->
        fun st ->
          tick st;
          goto next st
    | LIoRead { dst; port }, _ ->
        let rport = rd port in
        fun st ->
          tick st;
          let port = rport st in
          flush st;
          let v = st.env.Exec_env.io_read port in
          recheck st;
          write st dst v;
          goto next st
    | LIoWrite { port; src }, _ ->
        let rport = rd port and rsrc = rd src in
        fun st ->
          tick st;
          let v = rsrc st in
          let port = rport st in
          flush st;
          st.env.Exec_env.io_write port v;
          recheck st;
          goto next st
    | LFence, _ ->
        fun st ->
          tick st;
          charge st Obs.Tag.Spec Fence_pass.fence_cycles;
          goto next st
    | LHalt, _ ->
        fun st ->
          tick st;
          raise (Exec_env.Exec_trap "halt / unreachable executed"))
  in
  for i = 0 to ncode - 1 do
    code.(i) <- compile_at i
  done;
  (* falling off the end of the image is the interpreter's bounds trap *)
  code.(ncode) <-
    (fun st ->
      if st.fuel - 1 <= 0 then raise (Exec_env.Exec_trap "out of fuel");
      raise
        (Exec_env.Exec_trap (Printf.sprintf "pc %d out of code bounds" ncode)));
  {
    image;
    code;
    stats =
      { slots = ncode; fused_pairs = !fused_pairs; static_calls = !static_calls };
    spares = [];
  }

(* A spare state of [t] set up for a fresh run, or a new one.  Nested
   runs (an extern calling back into the image) and interleaved ones (an
   extern blocking in the scheduler while another fiber enters) each
   take their own. *)
let take_state t (env : Exec_env.env) ~fuel ~fid (f0 : Linker.func) =
  match t.spares with
  | st :: rest ->
      t.spares <- rest;
      ensure_rf st f0.Linker.f_nregs;
      st.sp <- 0;
      st.base <- 0;
      st.cur <- fid;
      st.gen_ctr <- st.gen_ctr + 1;
      st.gen <- st.gen_ctr;
      st.fuel <- fuel;
      st.pc <- f0.Linker.f_entry;
      st.running <- true;
      st.env <- env;
      st.charge <- env.Exec_env.charge;
      st.mem_load <- env.Exec_env.load;
      st.mem_store <- env.Exec_env.store;
      st.spec_depth <- env.Exec_env.spec_depth;
      st.each <- env.Exec_env.observed ();
      st.paid <- fuel;
      st
  | [] ->
      let nr = max 64 f0.Linker.f_nregs in
      {
        rf = Bytes.make (nr lsl 3) '\000';
        def = Array.make nr 0;
        stack = Array.make (8 * stk_stride) 0;
        sp = 0;
        base = 0;
        cur = fid;
        gen_ctr = 1;
        gen = 1;
        fuel;
        pc = f0.Linker.f_entry;
        ret = Bytes.make 8 '\000';
        running = true;
        scratch = Bytes.create (t.image.Linker.max_args lsl 3);
        cell = Bytes.create Exec_env.cell_bytes;
        env;
        charge = env.Exec_env.charge;
        mem_load = env.Exec_env.load;
        mem_store = env.Exec_env.store;
        spec_depth = env.Exec_env.spec_depth;
        each = env.Exec_env.observed ();
        paid = fuel;
      }

let start ~fuel (env : Exec_env.env) t entry args =
  let image = t.image in
  let fid =
    match Linker.find_func image entry with
    | Some id -> id
    | None -> raise Not_found
  in
  let funcs = image.Linker.funcs in
  let f0 = funcs.(fid) in
  if Array.length f0.Linker.f_params <> Array.length args then
    raise
      (Exec_env.Exec_trap
         (Printf.sprintf "call %s: arity mismatch (%d vs %d)" f0.Linker.f_name
            (Array.length f0.Linker.f_params) (Array.length args)));
  let st = take_state t env ~fuel ~fid f0 in
  (* bind the entry frame straight from the caller's array (it may be
     wider than any in-image call site, so [scratch] cannot hold it) *)
  Array.iteri (fun j p -> write st p args.(j)) f0.Linker.f_params;
  st

let loop t st =
  let ncode = Array.length t.image.Linker.lcode in
  while st.running do
    let p = st.pc in
    if p >= 0 && p < ncode then t.code.(p) st
    else begin
      if st.fuel - 1 <= 0 then raise (Exec_env.Exec_trap "out of fuel");
      raise (Exec_env.Exec_trap (Printf.sprintf "pc %d out of code bounds" p))
    end
  done

let run ?(fuel = 50_000_000) (env : Exec_env.env) t entry args =
  let st = start ~fuel env t entry args in
  match loop t st with
  | () ->
      flush st;
      t.spares <- st :: t.spares;
      rf_get st.ret 0
  | exception e ->
      flush st;
      raise e
