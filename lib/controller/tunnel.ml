open Packet

type lsp = {
  label : int;
  src_sw : int;
  dst_sw : int;
  path : Topo.Path.t;  (** switch-level path, [src_sw] to [dst_sw] *)
}

type t = {
  app : Api.app;
  mutable lsps : lsp list;
}

(* provisioning collects each switch's adds, newest first, and sends
   them as one batch per switch: one barrier and one ack per switch,
   not one per rule *)
let install plan ~switch_id pattern actions =
  let fm =
    Openflow.Message.add_flow ~priority:50 ~cookie:0x70 ~pattern ~actions ()
  in
  Hashtbl.replace plan switch_id
    (fm :: Option.value (Hashtbl.find_opt plan switch_id) ~default:[])

(* local delivery: each edge switch forwards its own hosts' traffic *)
let install_local_delivery plan topo sw =
  List.iter
    (fun (h, port) ->
      install plan ~switch_id:sw
        { Flow.Pattern.any with
          vlan = Some Fields.vlan_none;
          eth_dst = Some (Mac.of_host_id h) }
        (Flow.Action.forward port))
    (Topo.Topology.hosts_of_switch topo sw)

let install_lsp plan topo (l : lsp) =
  let dst_hosts = Topo.Topology.hosts_of_switch topo l.dst_sw in
  match l.path with
  | [] -> ()
  | first :: _ ->
    (* ingress: classify per destination host, push the tunnel label *)
    List.iter
      (fun (h, _) ->
        install plan ~switch_id:l.src_sw
          { Flow.Pattern.any with
            vlan = Some Fields.vlan_none;
            eth_dst = Some (Mac.of_host_id h) }
          [ [ Flow.Action.Set_field (Fields.Vlan, l.label);
              Flow.Action.Output (Physical first.Topo.Path.out_port) ] ])
      dst_hosts;
    (* core: label switching only *)
    List.iteri
      (fun i (h : Topo.Path.hop) ->
        if i > 0 then
          install plan
            ~switch_id:(Topo.Topology.Node.id h.node)
            { Flow.Pattern.any with vlan = Some l.label }
            (Flow.Action.forward h.out_port))
      l.path;
    (* egress: pop and deliver per host *)
    List.iter
      (fun (h, port) ->
        install plan ~switch_id:l.dst_sw
          { Flow.Pattern.any with
            vlan = Some l.label;
            eth_dst = Some (Mac.of_host_id h) }
          [ [ Flow.Action.Set_field (Fields.Vlan, Fields.vlan_none);
              Flow.Action.Output (Physical port) ] ])
      dst_hosts

let provision t ctx =
  let topo = Api.topology ctx in
  let edges =
    Topo.Topology.switch_ids topo
    |> List.filter (fun sw -> Topo.Topology.hosts_of_switch topo sw <> [])
  in
  let next_label = ref 100 in
  let plan = Hashtbl.create 16 in
  List.iter (install_local_delivery plan topo) edges;
  t.lsps <-
    List.concat_map
      (fun src_sw ->
        List.filter_map
          (fun dst_sw ->
            if src_sw = dst_sw then None
            else begin
              match
                Topo.Path.shortest_path topo
                  ~src:(Topo.Topology.Node.Switch src_sw)
                  ~dst:(Topo.Topology.Node.Switch dst_sw)
              with
              | None | Some [] -> None
              | Some path ->
                let label = !next_label in
                incr next_label;
                Some { label; src_sw; dst_sw; path }
            end)
          edges)
      edges;
  List.iter (install_lsp plan topo) t.lsps;
  List.iter
    (fun switch_id ->
      match Hashtbl.find_opt plan switch_id with
      | Some fms -> Api.send_flow_mods ctx ~switch_id (List.rev fms)
      | None -> ())
    (Topo.Topology.switch_ids topo)

let create () =
  let t_ref = ref None in
  let installed = ref false in
  let switch_up ctx ~switch_id:_ ~ports:_ =
    if not !installed then begin
      installed := true;
      provision (Option.get !t_ref) ctx
    end
  in
  let app = { Api.default_app with switch_up } in
  let t = { app; lsps = [] } in
  t_ref := Some t;
  t

let app t = t.app
let lsps t = t.lsps
