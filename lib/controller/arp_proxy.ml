open Packet

type t = {
  app : Api.app;
  mutable answered : int;
  mutable unknown : int;
}

let arp_ethertype = 0x0806
let op_request = 1
let op_reply = 2

let create () =
  let t_ref = ref None in
  let get () = Option.get !t_ref in
  (* above every compiled table, which lies inside (0, Delta.span) *)
  let switch_up ctx ~switch_id ~ports:_ =
    Api.install ctx ~switch_id ~priority:(Netkat.Delta.span + 30000)
      ~cookie:0xa9
      { Flow.Pattern.any with eth_type = Some arp_ethertype }
      Flow.Action.to_controller
  in
  let packet_in ctx ~switch_id ~port ~reason:_
      (payload : Openflow.Message.payload) =
    let t = get () in
    let h = payload.headers in
    if h.eth_type = arp_ethertype && h.ip_proto = op_request then begin
      let target = h.ip4_dst in
      match
        Topo.Topology.host_ids (Api.topology ctx)
        |> List.find_opt (fun id -> Ipv4.of_host_id id = target)
      with
      | None -> t.unknown <- t.unknown + 1
      | Some owner ->
        t.answered <- t.answered + 1;
        let owner_mac = Mac.of_host_id owner in
        let reply =
          { payload with
            headers =
              { h with
                eth_src = owner_mac; eth_dst = h.eth_src;
                ip4_src = target; ip4_dst = h.ip4_src;
                ip_proto = op_reply } }
        in
        (* answer out the port the request came in on *)
        Api.packet_out ctx ~switch_id ~in_port:port
          [ Flow.Action.Output In_port_out ]
          reply
    end
  in
  let app = { (Api.default_app "arp-proxy") with switch_up; packet_in } in
  let t = { app; answered = 0; unknown = 0 } in
  t_ref := Some t;
  t

let app t = t.app
let answered t = t.answered
let unknown t = t.unknown
