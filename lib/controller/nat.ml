open Packet

type binding = {
  private_ip : Ipv4.t;
  private_port : int;
  public_port : int;
  dst_ip : Ipv4.t;
}

type t = {
  app : Api.app;
  gateway : int;            (** switch id performing translation *)
  public_ip : Ipv4.t;
  public_mac : Mac.t;
  inside : int list;        (** host ids behind the NAT *)
  mutable next_port : int;
  mutable bindings : binding list;
  mutable translations : int;
  idle_timeout : float;
}

(* above every compiled table, which lies inside (0, Delta.span) *)
let priority = Netkat.Delta.span + 20000

let inside_pred t ip = List.exists (fun h -> Ipv4.of_host_id h = ip) t.inside

let allocate_port t =
  let p = t.next_port in
  t.next_port <- t.next_port + 1;
  if t.next_port > 65000 then t.next_port <- 30000;
  p

let next_hop_port ctx ~from_switch ~to_host =
  match
    Topo.Path.shortest_path (Api.topology ctx)
      ~src:(Topo.Topology.Node.Switch from_switch)
      ~dst:(Topo.Topology.Node.Host to_host)
  with
  | Some (hop :: _) -> Some hop.Topo.Path.out_port
  | Some [] | None -> None

let host_of_ip ctx ip =
  Topo.Topology.host_ids (Api.topology ctx)
  |> List.find_opt (fun h -> Ipv4.of_host_id h = ip)

let create ~gateway ~public_ip ?(public_mac = Mac.of_string "02:0a:0a:0a:0a:01")
    ?(idle_timeout = 120.0) ~inside () =
  let t_ref = ref None in
  let get () = Option.get !t_ref in
  let switch_up ctx ~switch_id ~ports:_ =
    let t = get () in
    if switch_id <> t.gateway then begin
      (* the public address is routed toward the gateway everywhere *)
      match
        Topo.Path.shortest_path (Api.topology ctx)
          ~src:(Topo.Topology.Node.Switch switch_id)
          ~dst:(Topo.Topology.Node.Switch t.gateway)
      with
      | Some (hop :: _) ->
        Api.install ctx ~switch_id ~priority ~cookie:0x4a
          { Flow.Pattern.any with
            ip4_dst = Some (Ipv4.Prefix.host t.public_ip);
            eth_type = Some 0x0800 }
          (Flow.Action.forward hop.Topo.Path.out_port)
      | Some [] | None -> ()
    end;
    if switch_id = t.gateway then begin
      (* punt: outbound flows from inside hosts, and returns to the
         public address; sit above routing, below installed translations *)
      List.iter
        (fun h ->
          Api.install ctx ~switch_id ~priority ~cookie:0x4a
            { Flow.Pattern.any with
              ip4_src = Some (Ipv4.Prefix.host (Ipv4.of_host_id h));
              eth_type = Some 0x0800 }
            Flow.Action.to_controller)
        t.inside;
      Api.install ctx ~switch_id ~priority ~cookie:0x4a
        { Flow.Pattern.any with
          ip4_dst = Some (Ipv4.Prefix.host t.public_ip);
          eth_type = Some 0x0800 }
        Flow.Action.to_controller
    end
  in
  let packet_in ctx ~switch_id ~port:_ ~reason:_
      (payload : Openflow.Message.payload) =
    let t = get () in
    if switch_id <> t.gateway then ()
    else begin
      let h = payload.headers in
      if inside_pred t h.ip4_src && h.ip4_dst <> t.public_ip then begin
        (* outbound: allocate a binding and install both directions *)
        match host_of_ip ctx h.ip4_dst with
        | None -> ()
        | Some dst_host ->
          (match next_hop_port ctx ~from_switch:t.gateway ~to_host:dst_host with
           | None -> ()
           | Some out_port ->
             let public_port = allocate_port t in
             t.translations <- t.translations + 1;
             t.bindings <-
               { private_ip = h.ip4_src; private_port = h.tp_src;
                 public_port; dst_ip = h.ip4_dst }
               :: t.bindings;
             (* outbound translation *)
             Api.install ctx ~switch_id ~priority:(priority + 100)
               ~cookie:0x4a ~idle_timeout:t.idle_timeout
               { Flow.Pattern.any with
                 ip4_src = Some (Ipv4.Prefix.host h.ip4_src);
                 tp_src = Some h.tp_src; eth_type = Some 0x0800 }
               [ [ Flow.Action.Set_field (Fields.Ip4_src, t.public_ip);
                   Flow.Action.Set_field (Fields.Eth_src, t.public_mac);
                   Flow.Action.Set_field (Fields.Tp_src, public_port);
                   Flow.Action.Output (Physical out_port) ] ];
             (* inbound translation *)
             (match host_of_ip ctx h.ip4_src with
              | None -> ()
              | Some inside_host ->
                (match
                   next_hop_port ctx ~from_switch:t.gateway ~to_host:inside_host
                 with
                 | None -> ()
                 | Some back_port ->
                   Api.install ctx ~switch_id ~priority:(priority + 100)
                     ~cookie:0x4a ~idle_timeout:t.idle_timeout
                     { Flow.Pattern.any with
                       ip4_dst = Some (Ipv4.Prefix.host t.public_ip);
                       tp_dst = Some public_port; eth_type = Some 0x0800 }
                     [ [ Flow.Action.Set_field (Fields.Ip4_dst, h.ip4_src);
                         Flow.Action.Set_field
                           (Fields.Eth_dst, Mac.of_host_id inside_host);
                         Flow.Action.Set_field (Fields.Tp_dst, h.tp_src);
                         Flow.Action.Output (Physical back_port) ] ]));
             (* re-inject the first packet, translated *)
             Api.packet_out ctx ~switch_id ~in_port:payload.headers.in_port
               [ Flow.Action.Set_field (Fields.Ip4_src, t.public_ip);
                 Flow.Action.Set_field (Fields.Eth_src, t.public_mac);
                 Flow.Action.Set_field (Fields.Tp_src, public_port);
                 Flow.Action.Output (Physical out_port) ]
               payload)
      end
    end
  in
  let app = { (Api.default_app "nat") with switch_up; packet_in } in
  let t =
    { app; gateway; public_ip; public_mac; inside; next_port = 30000;
      bindings = []; translations = 0; idle_timeout }
  in
  t_ref := Some t;
  t

let app t = t.app
let translations t = t.translations
let bindings t = t.bindings
