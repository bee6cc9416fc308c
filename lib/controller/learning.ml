open Packet

type t = {
  app : Api.app;
  (* (switch, mac) -> port *)
  locations : (int * Mac.t, int) Hashtbl.t;
  mutable installs : int;
  idle_timeout : float option;
}

let lookup t ~switch_id mac = Hashtbl.find_opt t.locations (switch_id, mac)

let create ?(idle_timeout = Some 60.0) () =
  let t_ref = ref None in
  let get () = Option.get !t_ref in
  let switch_up ctx ~switch_id ~ports:_ =
    (* restrict flooding to spanning-tree ports so cyclic topologies do
       not melt down *)
    let tree = Topo.Path.spanning_tree (Api.topology ctx) in
    match Hashtbl.find_opt tree switch_id with
    | Some ports -> Api.set_flood_ports ctx ~switch_id ports
    | None -> ()
  in
  let packet_in ctx ~switch_id ~port ~reason:_
      (payload : Openflow.Message.payload) =
    let t = get () in
    let h = payload.headers in
    (* learn the source *)
    if not (Mac.is_multicast h.eth_src) then
      Hashtbl.replace t.locations (switch_id, h.eth_src) port;
    (* forward or flood *)
    match
      if Mac.is_broadcast h.eth_dst || Mac.is_multicast h.eth_dst then None
      else Hashtbl.find_opt t.locations (switch_id, h.eth_dst)
    with
    | Some out_port ->
      t.installs <- t.installs + 1;
      Api.install ctx ~switch_id ~priority:10 ?idle_timeout:t.idle_timeout
        { Flow.Pattern.any with eth_dst = Some h.eth_dst }
        (Flow.Action.forward out_port);
      Api.packet_out ctx ~switch_id ~in_port:port
        [ Flow.Action.Output (Physical out_port) ]
        payload
    | None ->
      Api.flood ctx ~switch_id ~in_port:port payload
  in
  let app =
    { (Api.default_app "learning") with switch_up; packet_in }
  in
  let t =
    { app; locations = Hashtbl.create 64; installs = 0;
      idle_timeout }
  in
  t_ref := Some t;
  t

let app t = t.app
let installs t = t.installs
