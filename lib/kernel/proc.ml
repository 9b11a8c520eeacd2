type fd_kind =
  | File of { ino : int; mutable offset : int }
  | Pipe_read of Pipe_dev.t
  | Pipe_write of Pipe_dev.t
  | Sock_listen of int
  | Sock_conn of int
  | Console_out

type state = Running | Zombie of int

type t = {
  pid : int;
  mutable parent : int;
  pt : Pagetable.t;
  tid : int;
  fds : (int, fd_kind) Hashtbl.t;
  mutable next_fd : int;
  user_frames : (int64, int) Hashtbl.t;
  cow : (int64, unit) Hashtbl.t;
  mutable ghost_regions : (int64 * int) list;
  mutable mmap_cursor : int64;
  mutable state : state;
  signal_handlers : (int, int64) Hashtbl.t;
  code_map : (int64, int64 -> unit) Hashtbl.t;
  mutable image : Appimage.t option;
  blocking : (int, unit) Hashtbl.t;
  mutable policy : Syscall_policy.t option;
  mutable pending_signals : (t * int) list;
}

let mmap_base = 0x0000_2000_0000_0000L
let fd_limit = 1 lsl 20

let make ~pid ~parent ~pt ~tid =
  {
    pid;
    parent;
    pt;
    tid;
    fds = Hashtbl.create 16;
    next_fd = 3;
    user_frames = Hashtbl.create 64;
    cow = Hashtbl.create 16;
    ghost_regions = [];
    mmap_cursor = mmap_base;
    state = Running;
    signal_handlers = Hashtbl.create 8;
    code_map = Hashtbl.create 8;
    image = None;
    blocking = Hashtbl.create 4;
    policy = None;
    pending_signals = [];
  }

let add_fd t kind =
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  Hashtbl.replace t.fds fd kind;
  fd

let find_fd t fd = Hashtbl.find_opt t.fds fd

let remove_fd t fd =
  Hashtbl.remove t.fds fd;
  Hashtbl.remove t.blocking fd

let set_blocking t fd on =
  if on then Hashtbl.replace t.blocking fd () else Hashtbl.remove t.blocking fd

let is_blocking t fd = Hashtbl.mem t.blocking fd
let is_zombie t = match t.state with Zombie _ -> true | Running -> false
