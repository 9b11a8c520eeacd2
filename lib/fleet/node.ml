type t = {
  id : int;
  config : Node_config.t;
  machine : Machine.t;
  kernel : Kernel.t;
}

let boot ?(id = 0) (config : Node_config.t) =
  let machine = Node_config.create_machine config in
  let kernel =
    Kernel.boot ?frame_limit:config.Node_config.frame_limit
      ~spec_mitigation:config.Node_config.spec_mitigation
      ~mode:config.Node_config.mode machine
  in
  { id; config; machine; kernel }

let id t = t.id
let config t = t.config
let machine t = t.machine
let kernel t = t.kernel
let net t = t.kernel.Kernel.net
let mode t = t.config.Node_config.mode

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
