(* One record replaces the optional-argument sprawl of
   [Machine.create] + [Kernel.boot].  Every default here is the
   corresponding historical default, so [Node.boot default] is
   cycle-identical to the bare two-call boot — golden-pinned by
   test/fleet. *)

type t = {
  cpus : int;
  phys_frames : int;
  disk_sectors : int;
  spec_depth : int;
  seed : string;
  obs : Obs.t option;
  mode : Sva.mode;
  spec_mitigation : Vg_compiler.Mitigation.t;
  frame_limit : int option;
}

let default =
  {
    cpus = 1;
    phys_frames = 32768;
    disk_sectors = 65536;
    spec_depth = 0;
    seed = "node";
    obs = None;
    mode = Sva.Virtual_ghost;
    spec_mitigation = Vg_compiler.Mitigation.Off;
    frame_limit = None;
  }

let with_cpus cpus t = { t with cpus }
let with_phys_frames phys_frames t = { t with phys_frames }
let with_disk_sectors disk_sectors t = { t with disk_sectors }
let with_spec_depth spec_depth t = { t with spec_depth }
let with_seed seed t = { t with seed }
let with_obs obs t = { t with obs = Some obs }
let with_mode mode t = { t with mode }
let with_spec_mitigation spec_mitigation t = { t with spec_mitigation }
let with_frame_limit limit t = { t with frame_limit = Some limit }

let create_machine t =
  Machine.create ~cpus:t.cpus ~phys_frames:t.phys_frames
    ~disk_sectors:t.disk_sectors ?obs:t.obs ~spec_depth:t.spec_depth
    ~seed:t.seed ()

let describe t =
  Printf.sprintf "%s cpus=%d frames=%d depth=%d mitigation=%s%s"
    (match t.mode with
    | Sva.Native_build -> "native"
    | Sva.Virtual_ghost -> "vg")
    t.cpus t.phys_frames t.spec_depth
    (Vg_compiler.Mitigation.to_string t.spec_mitigation)
    (match t.frame_limit with
    | None -> ""
    | Some l -> Printf.sprintf " frame_limit=%d" l)
