(* Tests for the tunnel app, waypoint verification, and the leaf-spine /
   jellyfish generators. *)

open Packet

(* ------------------------------------------------------------------ *)
(* Generators *)

let test_leaf_spine_shape () =
  let topo = Topo.Gen.leaf_spine ~leaves:4 ~spines:3 ~hosts_per_leaf:5 () in
  Alcotest.(check int) "switches" 7 (Topo.Topology.switch_count topo);
  Alcotest.(check int) "hosts" 20 (Topo.Topology.host_count topo);
  (* links: 4*3 fabric + 20 host *)
  Alcotest.(check int) "links" 32 (Topo.Topology.link_count topo);
  (* every spine connects to every leaf *)
  List.iter
    (fun s ->
      Alcotest.(check int)
        (Printf.sprintf "spine %d degree" s)
        4
        (List.length (Topo.Topology.ports topo (Topo.Topology.Node.Switch s))))
    [ 1; 2; 3 ]

let test_leaf_spine_paths () =
  let topo = Topo.Gen.leaf_spine ~leaves:3 ~spines:2 ~hosts_per_leaf:1 () in
  (* leaf-to-leaf is always 2 switch hops; ECMP width = #spines *)
  let paths =
    Topo.Path.all_shortest_paths topo ~src:(Topo.Topology.Node.Switch 3)
      ~dst:(Topo.Topology.Node.Switch 4)
  in
  Alcotest.(check int) "ECMP over both spines" 2 (List.length paths)

let test_jellyfish_connected_regular () =
  List.iter
    (fun seed ->
      let prng = Util.Prng.create seed in
      let topo = Topo.Gen.jellyfish ~switches:16 ~degree:3 ~prng () in
      (* connected *)
      let pred = Topo.Path.bfs topo ~src:(Topo.Topology.Node.Switch 1) in
      List.iter
        (fun n ->
          if not (Topo.Topology.Node.equal n (Topo.Topology.Node.Switch 1)) then
            Alcotest.(check bool)
              (Printf.sprintf "seed %d reaches %s" seed
                 (Topo.Topology.Node.to_string n))
              true (Hashtbl.mem pred n))
        (Topo.Topology.switches topo);
      (* near-regular: inter-switch degree close to the target *)
      List.iter
        (fun sw ->
          let inter =
            Topo.Topology.out_links topo sw
            |> List.filter (fun (l : Topo.Topology.link) ->
              Topo.Topology.Node.is_switch l.dst)
            |> List.length
          in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d degree %d" seed inter)
            true
            (inter >= 1 && inter <= 5))
        (Topo.Topology.switches topo))
    [ 1; 7; 42 ]

let test_of_spec_new () =
  Alcotest.(check int) "leafspine:4:2" 6
    (Topo.Topology.switch_count (Topo.Gen.of_spec "leafspine:4:2"));
  Alcotest.(check int) "jellyfish:10:3:5" 10
    (Topo.Topology.switch_count (Topo.Gen.of_spec "jellyfish:10:3:5"))

(* ------------------------------------------------------------------ *)
(* Tunnels *)

let test_tunnels_connectivity () =
  let topo = Topo.Gen.leaf_spine ~leaves:3 ~spines:2 ~hosts_per_leaf:2 () in
  let net = Zen.create topo in
  let tunnels = Controller.Tunnel.create () in
  let _rt = Zen.with_controller net [ Controller.Tunnel.app tunnels ] in
  Alcotest.(check int) "lsps = leaf pairs" 6
    (List.length (Controller.Tunnel.lsps tunnels));
  (* all pairs reachable through the label fabric *)
  Dataplane.Traffic.install_responders (Zen.network net);
  List.iter
    (fun (src, dst) ->
      let r =
        Dataplane.Traffic.ping (Zen.network net) ~src ~dst ~count:1
          ~interval:0.01
      in
      ignore (Zen.run ~until:(Zen.now net +. 0.5) net);
      Alcotest.(check int)
        (Printf.sprintf "ping %d->%d" src dst)
        1
        (List.length !(r.rtts)))
    [ (1, 2) (* same leaf *); (1, 3); (1, 6); (4, 2) ]

let test_tunnels_pop_label () =
  let topo = Topo.Gen.leaf_spine ~leaves:2 ~spines:1 ~hosts_per_leaf:1 () in
  let net = Zen.create topo in
  let tunnels = Controller.Tunnel.create () in
  let _rt = Zen.with_controller net [ Controller.Tunnel.app tunnels ] in
  let seen = ref (-1) in
  (Dataplane.Network.host (Zen.network net) 2).on_receive <-
    Some (fun pkt -> seen := pkt.hdr.vlan);
  Dataplane.Network.send_from (Zen.network net) ~host:1
    (Dataplane.Network.make_pkt ~src:1 ~dst:2 ());
  ignore (Zen.run ~until:(Zen.now net +. 0.5) net);
  Alcotest.(check int) "label popped at egress" Fields.vlan_none !seen

let test_tunnels_compress_core () =
  (* many hosts per leaf: the spine holds per-tunnel rules under the
     tunnel app but per-host rules under destination routing *)
  let leaves = 4 and spines = 2 and hosts_per_leaf = 8 in
  let topo = Topo.Gen.leaf_spine ~leaves ~spines ~hosts_per_leaf () in
  let net = Zen.create topo in
  let tunnels = Controller.Tunnel.create () in
  let _rt = Zen.with_controller net [ Controller.Tunnel.app tunnels ] in
  let spine_rules_tunnel =
    Flow.Table.size (Dataplane.Network.switch (Zen.network net) 1).table
  in
  let net2 = Zen.create (Topo.Gen.leaf_spine ~leaves ~spines ~hosts_per_leaf ()) in
  ignore
    (Zen.install_policy net2
       (Netkat.Builder.routing_policy (Zen.topology net2)));
  let spine_rules_routing =
    Flow.Table.size (Dataplane.Network.switch (Zen.network net2) 1).table
  in
  Alcotest.(check bool)
    (Printf.sprintf "spine: %d tunnel rules < %d routing rules"
       spine_rules_tunnel spine_rules_routing)
    true
    (spine_rules_tunnel < spine_rules_routing)

(* ------------------------------------------------------------------ *)
(* Waypoint verification *)

let test_waypoint () =
  (* linear chain: all h1 -> h3 traffic must traverse the middle switch *)
  let topo = Topo.Gen.linear ~switches:3 ~hosts_per_switch:1 () in
  let net = Zen.create topo in
  ignore (Zen.install_policy net (Netkat.Builder.routing_policy topo));
  let snap = Zen.snapshot net in
  (match Verify.Reach.waypoint snap ~src:1 ~dst:3 ~waypoint:2 with
   | `Enforced -> ()
   | `No_traffic -> Alcotest.fail "expected traffic"
   | `Violated _ -> Alcotest.fail "chain must pass s2");
  (* s1 is not on the h2 -> h3 path *)
  (match Verify.Reach.waypoint snap ~src:2 ~dst:3 ~waypoint:1 with
   | `Violated _ -> ()
   | `Enforced -> Alcotest.fail "s1 cannot be on the path"
   | `No_traffic -> Alcotest.fail "expected traffic");
  (* unreachable flow *)
  let empty_net = Zen.create (Topo.Gen.linear ~switches:3 ~hosts_per_switch:1 ()) in
  match Verify.Reach.waypoint (Zen.snapshot empty_net) ~src:1 ~dst:3 ~waypoint:2 with
  | `No_traffic -> ()
  | `Enforced | `Violated _ -> Alcotest.fail "no rules, no traffic"

let test_waypoint_ring_violation () =
  (* ring: two paths exist; pin routing to one side and check the other
     side's switch is NOT a waypoint *)
  let topo = Topo.Gen.ring ~switches:4 ~hosts_per_switch:1 () in
  let net = Zen.create topo in
  ignore (Zen.install_policy net (Netkat.Builder.routing_policy topo));
  let snap = Zen.snapshot net in
  (* h1 -> h3 goes via s2 or s4 depending on BFS; exactly one of the two
     waypoint checks must be enforced and the other violated *)
  let via_s2 = Verify.Reach.waypoint snap ~src:1 ~dst:3 ~waypoint:2 in
  let via_s4 = Verify.Reach.waypoint snap ~src:1 ~dst:3 ~waypoint:4 in
  let enforced x = x = `Enforced in
  Alcotest.(check bool) "exactly one side" true
    (enforced via_s2 <> enforced via_s4)

let suites =
  [ ( "topo.gen2",
      [ Alcotest.test_case "leaf-spine shape" `Quick test_leaf_spine_shape;
        Alcotest.test_case "leaf-spine ECMP" `Quick test_leaf_spine_paths;
        Alcotest.test_case "jellyfish connected" `Quick
          test_jellyfish_connected_regular;
        Alcotest.test_case "of_spec new" `Quick test_of_spec_new ] );
    ( "controller.tunnel",
      [ Alcotest.test_case "connectivity" `Quick test_tunnels_connectivity;
        Alcotest.test_case "label popped" `Quick test_tunnels_pop_label;
        Alcotest.test_case "core compression" `Quick
          test_tunnels_compress_core ] );
    ( "verify.waypoint",
      [ Alcotest.test_case "chain waypoint" `Quick test_waypoint;
        Alcotest.test_case "ring violation" `Quick
          test_waypoint_ring_violation ] ) ]
