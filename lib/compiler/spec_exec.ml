(* Transient execution down a mispredicted path.

   Both execution engines (the slot-file executor oracle and the
   closure-compiled {!Exec_compile}) open a speculative window at every
   conditional they resolve — select or branch — when the machine runs
   with a non-zero speculation depth.  The window runs the wrong-path
   instruction stream against a shadow register overlay: values computed
   transiently never reach the architectural register file, stores never
   reach memory, and no cycles are charged (a real pipeline squashes the
   work).  The one thing that survives the squash is the cache: every
   transient load warms the line it touches, and that is exactly the
   side channel the Spectre gadget in [lib/attacks] measures.

   The window budget counts *macro-ops*, mirroring the superinstruction
   fusion of {!Exec_compile}: a whole sandbox-guard sequence plus the
   memory access it feeds — the unit the compiled engine executes as
   one closure — retires as one entry in the speculative window, and it
   retires atomically (a real machine does not squash half a fused
   op, so a window with one budget slot left still completes the whole
   guard+load, probe included).  A guard entered mid-way — e.g. a
   window opened at one of its own selects — has lost its fusion and
   its remaining slots count one by one. *)

(* The window dies silently: on budget exhaustion, an instruction with
   side effects speculation cannot have (calls, returns, I/O, fences,
   halt), an undefined register, a faulting transient load, or
   arithmetic that would trap. *)
exception Squash

let trunc (w : Ir.width) v =
  match w with
  | Ir.W8 -> Int64.logand v 0xffL
  | W16 -> Int64.logand v 0xffffL
  | W32 -> Int64.logand v 0xffffffffL
  | W64 -> v

(* Wrong-path arithmetic: same semantics as {!Eval}, but a division
   trap squashes the window instead of raising. *)
let ebin (op : Ir.binop) a b =
  match op with
  | Ir.Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | Udiv -> if Int64.equal b 0L then raise Squash else Int64.unsigned_div a b
  | Urem -> if Int64.equal b 0L then raise Squash else Int64.unsigned_rem a b
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Shl -> Int64.shift_left a (Int64.to_int (Int64.logand b 63L))
  | Lshr -> Int64.shift_right_logical a (Int64.to_int (Int64.logand b 63L))
  | Ashr -> Int64.shift_right a (Int64.to_int (Int64.logand b 63L))

let ecmp (op : Ir.cmp) a b =
  let t c = if c then 1L else 0L in
  match op with
  | Ir.Eq -> t (Int64.equal a b)
  | Ne -> t (not (Int64.equal a b))
  | Ult -> t (Int64.unsigned_compare a b < 0)
  | Ule -> t (Int64.unsigned_compare a b <= 0)
  | Ugt -> t (Int64.unsigned_compare a b > 0)
  | Uge -> t (Int64.unsigned_compare a b >= 0)
  | Slt -> t (Int64.compare a b < 0)
  | Sle -> t (Int64.compare a b <= 0)

let rec distinct = function
  | [] -> true
  | x :: rest -> (not (List.mem (x : int) rest)) && distinct rest

let transient_window ~(image : Linker.image) ~depth
    ~(read : int -> int64 option)
    ~(spec_load : int64 -> Ir.width -> int64 option)
    ~(shadow : (int * int64) option) ~pc:start_pc =
  if depth > 0 then begin
    let lcode = image.Linker.lcode in
    let ncode = Array.length lcode in
    (* shadow overlay: transient writes land here and shadow the
       architectural register file for the rest of the window *)
    let sh : (int, int64) Hashtbl.t = Hashtbl.create 16 in
    (match shadow with Some (s, v) -> Hashtbl.replace sh s v | None -> ());
    let rslot s =
      match Hashtbl.find_opt sh s with
      | Some v -> v
      | None -> ( match read s with Some v -> v | None -> raise Squash)
    in
    let rop (o : Linker.operand) =
      match o with Linker.Imm v -> v | Slot s -> rslot s
    in
    let wr s v = Hashtbl.replace sh s v in
    let pc = ref start_pc in
    (* One fused guard+access macro-op, if the code at [p] is the exact
       shape {!Exec_compile} fuses: the seven-instruction mask sequence
       feeding a load/store/atomic through its safe slot.  Executes the
       whole unit and returns true; returns false (no state change) if
       the shape does not match. *)
    let fused_guard p =
      if p + 7 >= ncode then false
      else
        match
          ( lcode.(p),
            lcode.(p + 1),
            lcode.(p + 2),
            lcode.(p + 3),
            lcode.(p + 4),
            lcode.(p + 5),
            lcode.(p + 6) )
        with
        | ( LCmp { dst = h; op = Uge; a; b = Imm c1 },
            LBin { dst = o; op = Or; a = a2; b = Imm c2 },
            LSelect { dst = e; cond = Slot hc; if_true = Slot ot; if_false = f },
            LCmp { dst = av; op = Uge; a = Slot e1; b = Imm c3 },
            LCmp { dst = bv; op = Ult; a = Slot e2; b = Imm c4 },
            LBin { dst = iv; op = And; a = Slot av1; b = Slot bv1 },
            LSelect
              { dst = s; cond = Slot iv1; if_true = Imm t; if_false = Slot e3 }
          )
          when a2 = a && f = a && hc = h && ot = o && e1 = e && e2 = e
               && e3 = e && av1 = av && bv1 = bv && iv1 = iv
               && distinct [ h; o; e; av; bv; iv; s ]
               && (match a with
                  | Slot sa -> not (List.mem sa [ h; o; e; av; bv; iv; s ])
                  | Imm _ -> true) -> (
            let access =
              match lcode.(p + 7) with
              | Linker.LLoad { dst; addr = Slot sa; width } when sa = s ->
                  Some (`Load (dst, width))
              | LStore { addr = Slot sa; _ } when sa = s -> Some `Store
              | LAtomic { dst; addr = Slot sa; width; _ } when sa = s ->
                  Some (`Atomic (dst, width))
              | _ -> None
            in
            match access with
            | None -> false
            | Some acc ->
                (* the guard's dataflow, with the constants the code
                   actually carries; every intermediate is shadowed so a
                   cracked re-entry sees consistent values *)
                let a = rop a in
                let hv = ecmp Uge a c1 in
                wr h hv;
                let ov = Int64.logor a c2 in
                wr o ov;
                let ev = if Int64.equal hv 0L then a else ov in
                wr e ev;
                let avv = ecmp Uge ev c3 in
                wr av avv;
                let bvv = ecmp Ult ev c4 in
                wr bv bvv;
                let ivv = Int64.logand avv bvv in
                wr iv ivv;
                let sv = if Int64.equal ivv 0L then ev else t in
                wr s sv;
                (match acc with
                | `Load (dst, width) -> (
                    match spec_load sv width with
                    | Some v -> wr dst (trunc width v)
                    | None -> raise Squash)
                | `Store -> ()
                | `Atomic (dst, width) -> (
                    (* the read half warms the line and shadows the old
                       value; the store half never happens *)
                    match spec_load sv width with
                    | Some v -> wr dst (trunc width v)
                    | None -> raise Squash));
                pc := p + 8;
                true)
        | _ -> false
    in
    let step p =
      match lcode.(p) with
      | Linker.LMov { dst; src } ->
          wr dst (rop src);
          pc := p + 1
      | LBin { dst; op; a; b } ->
          wr dst (ebin op (rop a) (rop b));
          pc := p + 1
      | LCmp { dst; op; a; b } ->
          wr dst (ecmp op (rop a) (rop b));
          pc := p + 1
      | LSelect { dst; cond; if_true; if_false } ->
          (* no nested misprediction: one wrong guess per window *)
          wr dst (rop (if Int64.equal (rop cond) 0L then if_false else if_true));
          pc := p + 1
      | LLoad { dst; addr; width } -> (
          match spec_load (rop addr) width with
          | Some v ->
              wr dst (trunc width v);
              pc := p + 1
          | None -> raise Squash)
      | LStore _ ->
          (* a transient store sits in the store buffer and dies with
             the squash: no memory write, no cache line *)
          pc := p + 1
      | LAtomic { dst; addr; width; _ } -> (
          match spec_load (rop addr) width with
          | Some v ->
              wr dst (trunc width v);
              pc := p + 1
          | None -> raise Squash)
      | LJmp target -> pc := target
      | LJz { cond; target } ->
          pc := (if Int64.equal (rop cond) 0L then target else p + 1)
      | LCfiLabel _ -> pc := p + 1
      | LMemcpy _ | LCall _ | LCallExtern _ | LCallIndirect _
      | LCallIndirectChecked _ | LRet _ | LRetChecked _ | LIoRead _
      | LIoWrite _ | LFence | LHalt ->
          raise Squash
    in
    try
      let used = ref 0 in
      while !used < depth do
        let p = !pc in
        if p < 0 || p >= ncode then raise Squash;
        if not (fused_guard p) then step p;
        incr used
      done
    with Squash -> ()
  end
