type t = {
  config : Node_config.t;
  machine : Machine.t;
  kernel : Kernel.t;
}

let boot_kernel (config : Node_config.t) machine =
  Kernel.boot ~frame_limit:config.frame_limit
    ~spec_mitigation:config.spec_mitigation ~mode:config.mode machine

let boot config =
  let machine = Node_config.create_machine config in
  { config; machine; kernel = boot_kernel config machine }

let reboot t = { t with kernel = boot_kernel t.config t.machine }

let config t = t.config
let machine t = t.machine
let kernel t = t.kernel
let net t = t.kernel.Kernel.net

let launch t ?image ?sfip ~ghosting body =
  Runtime.launch t.kernel ?image ?sfip ~ghosting body

let listen t ~port = Netstack.listen t.kernel.Kernel.net ~port

let www t ~path data =
  let fs = t.kernel.Kernel.fs in
  match Diskfs.create fs path with
  | Error e -> Error e
  | Ok ino -> (
      match Diskfs.write fs ~ino ~off:0 data with
      | Ok _ -> Ok ()
      | Error e -> Error e)
