(* The numbered system-call ABI.


   One generated table drives everything: syscall numbers are the
   indices of [specs], and names, register arities and result codecs
   are read back out of it.  [Sysno.t] is private int — the only ways
   to make one are the [sys_*] values below, [Sysno.of_int] (bounds
   checked: the ring's raw wire numbers come in here) and
   [Sysno.of_name] — so a validated number is a type, not a
   convention.

   Results crossing the user/kernel boundary go through the single
   encode/decode convention defined at the bottom:

   - [Int_result]: non-negative payload, or [-Errno.to_int e] on
     error (the classic Unix convention).  [Errno.to_int] is injective
     (see [Errno.all]), so the round-trip is lossless.
   - [Addr_result]: addresses are full 64-bit values, so only the
     Linux [MAP_FAILED] window [-4096, -1] decodes as an errno;
     anything else — including ghost-region pointers high in the
     canonical hole — passes through verbatim. *)

type result_codec = Int_result | Addr_result

(* Where a call may come from, and what its trap does after the body. *)
type disposition = Anywhere | Trap_only | No_return

type desc = {
  name : string;
  arity : int;
  codec : result_codec;
  disposition : disposition;
}

(* Paths travel as (user VA, length) pairs and struct results are
   copied out to a buffer the caller names, so every call fits the four
   registers of a ring entry. *)
let specs =
  let d ?(codec = Int_result) ?(disposition = Anywhere) name arity =
    { name; arity; codec; disposition }
  in
  [|
    d "read" 3;
    d "write" 3;
    d "open" 3 (* path, path_len, flags *);
    d "close" 1;
    d "lseek" 2;
    d "unlink" 2 (* path, path_len *);
    d "mkdir" 2 (* path, path_len *);
    d "stat" 3 (* path, path_len, out *);
    d "rename" 4 (* src, src_len, dst, dst_len *);
    d "fstat" 2 (* fd, out *);
    d "dup2" 2;
    d "readdir" 4 (* path, path_len, out, capacity in dirents *);
    d "fsync" 0;
    d "getpid" 0;
    d "fork" 0 ~disposition:Trap_only;
    d "execve" 1 ~disposition:Trap_only (* image handle *);
    d "exit" 1 ~disposition:No_return;
    d "wait" 2 (* block, status out or 0 *);
    d "mmap" 1 ~codec:Addr_result;
    d "munmap" 2;
    d "allocgm" 2;
    d "freegm" 2;
    d "signal" 2;
    d "kill" 2;
    d "sigreturn" 0 ~codec:Addr_result;
    d "pipe" 1 (* out: two descriptors *);
    d "listen" 1;
    d "accept" 1;
    d "connect" 1;
    d "send" 3;
    d "recv" 3;
    d "select" 3 (* fds, count, out *);
    d "poll" 3 (* fds, count, out *);
    d "set_blocking" 2;
    d "ring_enter" 3 ~disposition:Trap_only;
  |]

module Sysno = struct
  type t = int

  let count = Array.length specs
  let of_int n = if n >= 0 && n < count then Some n else None
  let to_int n = n
  let equal = Int.equal
  let compare = Int.compare
  let hash (n : t) = Hashtbl.hash n
  let all = List.init count Fun.id
  let to_name n = specs.(n).name

  let of_name =
    let by_name = Hashtbl.create 64 in
    Array.iteri (fun i d -> Hashtbl.replace by_name d.name i) specs;
    fun name -> Hashtbl.find_opt by_name name
end

let describe (n : Sysno.t) = specs.(Sysno.to_int n)
let arity n = (describe n).arity
let codec n = (describe n).codec
let disposition n = (describe n).disposition
let ring_callable n = disposition n = Anywhere

let sysno n : Sysno.t =
  match Sysno.of_int n with
  | Some s -> s
  | None -> invalid_arg "Syscall_abi.sysno"

let sys_read = sysno 0
let sys_write = sysno 1
let sys_open = sysno 2
let sys_close = sysno 3
let sys_lseek = sysno 4
let sys_unlink = sysno 5
let sys_mkdir = sysno 6
let sys_stat = sysno 7
let sys_rename = sysno 8
let sys_fstat = sysno 9
let sys_dup2 = sysno 10
let sys_readdir = sysno 11
let sys_fsync = sysno 12
let sys_getpid = sysno 13
let sys_fork = sysno 14
let sys_execve = sysno 15
let sys_exit = sysno 16
let sys_wait = sysno 17
let sys_mmap = sysno 18
let sys_munmap = sysno 19
let sys_allocgm = sysno 20
let sys_freegm = sysno 21
let sys_signal = sysno 22
let sys_kill = sysno 23
let sys_sigreturn = sysno 24
let sys_pipe = sysno 25
let sys_listen = sysno 26
let sys_accept = sysno 27
let sys_connect = sysno 28
let sys_send = sysno 29
let sys_recv = sysno 30
let sys_select = sysno 31
let sys_poll = sysno 32
let sys_set_blocking = sysno 33
let sys_ring_enter = sysno 34

module Entry = struct
  type 'h t = {
    sysno : Sysno.t;
    name : string;
    arity : int;
    codec : result_codec;
    handler : 'h;
  }

  let make sysno handler =
    let d = describe sysno in
    { sysno; name = d.name; arity = d.arity; codec = d.codec; handler }
end

(* Result encoding.  Encode/decode happen at the OCaml level — the
   simulated machine's cost of moving a register is already inside the
   trap protocol — so these charge nothing. *)

let encode_int = function
  | Ok n -> Int64.of_int n
  | Error e -> Int64.of_int (-Errno.to_int e)

let decode_int v =
  if Int64.compare v 0L >= 0 then Ok (Int64.to_int v)
  else begin
    match Errno.of_int (Int64.to_int (Int64.neg v)) with
    | Some e -> Error e
    | None -> Error Errno.EINVAL (* unknown negative: malformed handler *)
  end

let encode_addr = function
  | Ok va -> va
  | Error e -> Int64.of_int (-Errno.to_int e)

let decode_addr v =
  if Int64.compare v (-4096L) >= 0 && Int64.compare v 0L < 0 then begin
    match Errno.of_int (Int64.to_int (Int64.neg v)) with
    | Some e -> Error e
    | None -> Error Errno.EINVAL
  end
  else Ok v

let encode codec r =
  match codec with
  | Int_result -> encode_int (Result.map Int64.to_int r)
  | Addr_result -> encode_addr r

let decode codec v =
  match codec with
  | Int_result -> Result.map Int64.of_int (decode_int v)
  | Addr_result -> decode_addr v
