type t = {
  sva : Sva.t;
  machine : Machine.t;
  mode : Sva.mode;
  mitigation : Vg_compiler.Mitigation.t;
}

let create ?(mitigation = Vg_compiler.Mitigation.Off) sva =
  {
    sva;
    machine = Sva.machine sva;
    mode = Sva.mode sva;
    mitigation;
  }

let sva t = t.sva
let machine t = t.machine
let mode t = t.mode

(* The Spectre hardening the kernel was compiled under costs extra
   cycles per memory operand, exactly as the instrumented-IR path pays
   them: an lfence before every access under [Fence], or the two
   instructions by which the branchless mask exceeds the predicated
   window under [Safe_mask]. *)
let spec_surcharge t n =
  match t.mitigation with
  | Vg_compiler.Mitigation.Off -> ()
  | Vg_compiler.Mitigation.Fence ->
      Machine.charge ~tag:Obs.Tag.Spec t.machine
        (n * Vg_compiler.Fence_pass.fence_cycles)
  | Vg_compiler.Mitigation.Safe_mask ->
      Machine.charge ~tag:Obs.Tag.Spec t.machine
        (n * (Vg_compiler.Sandbox_pass.safe_mask_instructions - Cost.sandbox_mask))

let effective t addr =
  match t.mode with
  | Sva.Native_build -> addr
  | Sva.Virtual_ghost ->
      Machine.charge ~tag:Obs.Tag.Mask t.machine Cost.sandbox_mask;
      spec_surcharge t 1;
      Vg_compiler.Sandbox_pass.masked_address addr

(* A masked access that still faulted: under Virtual Ghost that means
   instrumented kernel code aimed at memory the sandbox denies it
   (e.g. a ghost address forced out of range) — a defence engaging, so
   it must not pass silently. *)
let fault t what addr =
  if t.mode = Sva.Virtual_ghost && Machine.tracing t.machine then
    Machine.emit t.machine
      (Obs.Event.Security
         {
           subsystem = "sandbox";
           detail = Printf.sprintf "masked kernel %s at %s faulted" what (U64.to_hex addr);
         })

(* Kernel accesses always run at kernel privilege; restore afterwards,
   exception or not, so interleaved user-level code is unaffected. *)
let as_kernel t f =
  let m = t.machine in
  let saved = Machine.privilege m in
  Machine.set_privilege m Machine.Kernel;
  match f () with
  | r ->
      Machine.set_privilege m saved;
      r
  | exception e ->
      Machine.set_privilege m saved;
      raise e

(* The word accessors switch privilege inline: a closure per access
   would be most of what one allocates. *)
let load t addr ~len =
  let ea = effective t addr in
  let m = t.machine in
  let saved = Machine.privilege m in
  Machine.set_privilege m Machine.Kernel;
  match Machine.read_virt m ea ~len with
  | v ->
      Machine.set_privilege m saved;
      v
  | exception (Machine.Page_fault _ | Phys_mem.Bad_physical_address _) ->
      fault t "load" addr;
      Machine.set_privilege m saved;
      0L
  | exception e ->
      Machine.set_privilege m saved;
      raise e

let store t addr ~len v =
  let ea = effective t addr in
  let m = t.machine in
  let saved = Machine.privilege m in
  Machine.set_privilege m Machine.Kernel;
  match Machine.write_virt m ea ~len v with
  | () -> Machine.set_privilege m saved
  | exception (Machine.Page_fault _ | Phys_mem.Bad_physical_address _) ->
      fault t "store" addr;
      Machine.set_privilege m saved
  | exception e ->
      Machine.set_privilege m saved;
      raise e

(* Bulk copies go page chunk by page chunk: each chunk is masked on its
   own and copied straight between memory and the caller's buffer.  A
   faulting chunk reads as zeros or drops its store, and the next chunk
   is still attempted.  A charged chunk pays its mask and its copy
   through the machine's charging accessors (at kernel privilege: see
   [as_kernel]).  A budgeted chunk is masked and copied through a quiet
   walk of the current tables at kernel privilege: its caller charges
   the whole copy as a fixed budget.  The result says whether every
   chunk went through. *)
let chunks t ~charged ~write addr buf ~off ~len =
  let m = t.machine in
  let ok = ref true and pos = ref 0 in
  while !pos < len do
    let va = Int64.add addr (Int64.of_int !pos) in
    let n = min (len - !pos) (4096 - Int64.to_int (Int64.logand va 0xfffL)) in
    let at = off + !pos in
    (try
       if charged then begin
         let ea = effective t va in
         if write then Machine.write_virt_from m ea buf ~off:at ~len:n
         else Machine.read_virt_into m ea buf ~off:at ~len:n
       end
       else begin
         let ea =
           match t.mode with
           | Sva.Native_build -> va
           | Sva.Virtual_ghost -> Vg_compiler.Sandbox_pass.masked_address va
         in
         let access = if write then Machine.Write else Machine.Read in
         let addr =
           Machine.translate_quiet m ~pt:(Machine.current_pt m) Machine.Kernel access ea
         in
         if write then Phys_mem.blit_from (Machine.mem m) ~addr buf ~off:at ~len:n
         else Phys_mem.blit_to (Machine.mem m) ~addr buf ~off:at ~len:n
       end
     with Machine.Page_fault _ | Phys_mem.Bad_physical_address _ ->
       ok := false;
       fault t (if write then "write" else "read") va;
       if not write then Bytes.fill buf at n '\000');
    pos := !pos + n
  done;
  !ok

let read_into t addr dst ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length dst - len then invalid_arg "Kmem.read_into";
  as_kernel t (fun () -> ignore (chunks t ~charged:true ~write:false addr dst ~off ~len))

let read_bytes t addr ~len =
  let out = Bytes.create len in
  read_into t addr out ~off:0 ~len;
  out

let write_bytes t addr src =
  as_kernel t (fun () ->
      ignore (chunks t ~charged:true ~write:true addr src ~off:0 ~len:(Bytes.length src)))

let read_budgeted t addr dst =
  chunks t ~charged:false ~write:false addr dst ~off:0 ~len:(Bytes.length dst)

let write_budgeted t addr src =
  chunks t ~charged:false ~write:true addr src ~off:0 ~len:(Bytes.length src)

(* [n * (mem_access + sandbox_mask)] split by distributivity so the
   mask surcharge is attributed separately; the total is unchanged. *)
let work t n =
  Machine.charge ~tag:Obs.Tag.Kernel_work t.machine (n * Cost.mem_access);
  match t.mode with
  | Sva.Native_build -> ()
  | Sva.Virtual_ghost ->
      Machine.charge ~tag:Obs.Tag.Mask t.machine (n * Cost.sandbox_mask);
      spec_surcharge t n

let fn_entry t =
  match t.mode with
  | Sva.Native_build -> ()
  | Sva.Virtual_ghost -> Machine.charge ~tag:Obs.Tag.Cfi t.machine Cost.cfi_call
