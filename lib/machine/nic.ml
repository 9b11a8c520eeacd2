let mtu = 1500

type t = {
  charge : int -> unit;
  rx : bytes Queue.t;
  mutable peer : t option;
}

let make charge = { charge; rx = Queue.create (); peer = None }

let pair ?(charge = fun _ -> ()) () =
  let a = make charge and b = make charge in
  a.peer <- Some b;
  b.peer <- Some a;
  (a, b)

let transmit t frame =
  match t.peer with
  | None -> invalid_arg "Nic.transmit: unconnected endpoint"
  | Some peer ->
      let len = Bytes.length frame in
      let packets = max 1 ((len + mtu - 1) / mtu) in
      t.charge ((len * Cost.nic_per_byte) + (packets * Cost.nic_per_packet));
      Queue.add (Bytes.copy frame) peer.rx

let receive t = if Queue.is_empty t.rx then None else Some (Queue.pop t.rx)
let pending t = Queue.length t.rx
