open Packet

type t = {
  app : Api.app;
  vip : Ipv4.t;
  backends : int array;  (** host ids *)
  mutable flows : int;   (** distinct flows load-balanced *)
  picks : (int, int) Hashtbl.t;  (** backend host id -> flows assigned *)
  idle_timeout : float;
}

(* above every Delta stream numbered in (0, Delta.span) with no transform
   (Routing, Update.install_plain, Zen's loaders), but below Update's
   version bands, which start at 2 * Delta.span * v for v >= 1 *)
let priority = Netkat.Delta.span + 10000

(* the source MAC of the VIP's rewritten replies *)
let vip_mac = Mac.of_string "02:de:ad:be:ef:01"

let pick_backend t (h : Headers.t) =
  (* deterministic hash of the client flow identity *)
  let key = Hashtbl.hash (h.ip4_src, h.tp_src, h.ip4_dst, h.tp_dst) in
  t.backends.(key mod Array.length t.backends)

let create ~vip ?(idle_timeout = 60.0) ~backends () =
  if backends = [] then invalid_arg "Lb.create: no backends";
  let t_ref = ref None in
  let get () = Option.get !t_ref in
  (* punt first-packets of VIP flows to the controller, above the
     routing rules (which would otherwise drop or misroute VIP traffic) *)
  let switch_up ctx ~switch_id ~ports:_ =
    let t = get () in
    Api.install ctx ~switch_id ~priority ~cookie:0x1b
      { Flow.Pattern.any with ip4_dst = Some (Ipv4.Prefix.host t.vip) }
      Flow.Action.to_controller
  in
  let packet_in ctx ~switch_id ~port ~reason:_
      (payload : Openflow.Message.payload) =
    let t = get () in
    let h = payload.headers in
    if h.ip4_dst = t.vip then begin
      let backend = pick_backend t h in
      let dip = Ipv4.of_host_id backend in
      let dmac = Mac.of_host_id backend in
      (* next hop toward the backend from this switch *)
      match
        Topo.Path.shortest_path (Api.topology ctx)
          ~src:(Topo.Topology.Node.Switch switch_id)
          ~dst:(Topo.Topology.Node.Host backend)
      with
      | None | Some [] -> ()  (* backend unreachable: drop *)
      | Some (hop :: _) ->
        t.flows <- t.flows + 1;
        Hashtbl.replace t.picks backend
          (1 + Option.value ~default:0 (Hashtbl.find_opt t.picks backend));
        let fwd_pattern =
          { Flow.Pattern.any with
            ip4_dst = Some (Ipv4.Prefix.host t.vip);
            ip4_src = Some (Ipv4.Prefix.host h.ip4_src);
            tp_src = Some h.tp_src; eth_type = Some 0x0800 }
        in
        let fwd_actions : Flow.Action.group =
          [ [ Set_field (Fields.Ip4_dst, dip);
              Set_field (Fields.Eth_dst, dmac);
              Output (Physical hop.Topo.Path.out_port) ] ]
        in
        Api.install ctx ~switch_id ~priority:(priority + 100)
          ~idle_timeout:t.idle_timeout ~cookie:0x1b fwd_pattern fwd_actions;
        (* reverse: rewrite backend -> vip for this client *)
        let rev_pattern =
          { Flow.Pattern.any with
            ip4_src = Some (Ipv4.Prefix.host dip);
            ip4_dst = Some (Ipv4.Prefix.host h.ip4_src);
            tp_dst = Some h.tp_src; eth_type = Some 0x0800 }
        in
        (* the client's location: forward along the shortest path *)
        let client_fwd =
          match
            (* the reverse rule forwards toward the client's source MAC
               by shortest path if the client is a known host *)
            Topo.Topology.host_ids (Api.topology ctx)
            |> List.find_opt (fun id -> Ipv4.of_host_id id = h.ip4_src)
          with
          | None -> None
          | Some client ->
            (match
               Topo.Path.shortest_path (Api.topology ctx)
                 ~src:(Topo.Topology.Node.Switch switch_id)
                 ~dst:(Topo.Topology.Node.Host client)
             with
             | None | Some [] -> None
             | Some (chop :: _) -> Some chop.Topo.Path.out_port)
        in
        (match client_fwd with
         | None -> ()
         | Some client_port ->
           let rev_actions : Flow.Action.group =
             [ [ Set_field (Fields.Ip4_src, t.vip);
                 Set_field (Fields.Eth_src, vip_mac);
                 Output (Physical client_port) ] ]
           in
           Api.install ctx ~switch_id ~priority:(priority + 100)
             ~idle_timeout:t.idle_timeout ~cookie:0x1b rev_pattern
             rev_actions);
        (* re-inject the trigger packet along the installed path *)
        Api.packet_out ctx ~switch_id ~in_port:port
          [ Set_field (Fields.Ip4_dst, dip);
            Set_field (Fields.Eth_dst, dmac);
            Output (Physical hop.Topo.Path.out_port) ]
          payload
    end
  in
  let app = { Api.default_app with switch_up; packet_in } in
  let t =
    { app; vip; backends = Array.of_list backends; flows = 0;
      picks = Hashtbl.create 8; idle_timeout }
  in
  t_ref := Some t;
  t

let app t = t.app
let flows t = t.flows

let distribution t =
  Array.to_list t.backends
  |> List.map (fun b -> (b, Option.value ~default:0 (Hashtbl.find_opt t.picks b)))
