(* Tests for the global compiler: programs with explicit link hops
   compiled to local policies via VLAN program counters, validated
   end-to-end in the simulated dataplane. *)

open Netkat
open Packet

(* linear:3 port map (Gen conventions):
   s1: 1->s2 2->h1 | s2: 1->s1 2->s3 3->h2 | s3: 1->s2 2->h3 *)

let match_h3 = Syntax.filter (Syntax.test Fields.Eth_dst (Mac.of_host_id 3))

let route_1_to_3 =
  Global.big_gseq
    [ Global.Local
        (Syntax.big_seq [ Syntax.at ~switch:1; match_h3; Syntax.forward 1 ]);
      Global.GLink ((1, 1), (2, 1));
      Global.Local (Syntax.big_seq [ match_h3; Syntax.forward 2 ]);
      Global.GLink ((2, 2), (3, 1));
      Global.Local (Syntax.big_seq [ match_h3; Syntax.forward 2 ]) ]

let test_normalize_traces () =
  let traces = Global.normalize route_1_to_3 in
  Alcotest.(check int) "one trace" 1 (List.length traces);
  Alcotest.(check int) "two link hops" 2
    (List.length (List.hd traces).Global.rest);
  (* unions multiply traces *)
  let two = Global.GUnion (route_1_to_3, route_1_to_3) in
  Alcotest.(check int) "union doubles" 2 (List.length (Global.normalize two))

let test_links_of_and_validate () =
  let topo = Topo.Gen.linear ~switches:3 ~hosts_per_switch:1 () in
  Alcotest.(check int) "two links named" 2
    (List.length (Global.links_of route_1_to_3));
  Alcotest.(check int) "all valid" 0
    (List.length (Global.validate topo route_1_to_3));
  let bogus =
    Global.GSeq (route_1_to_3, Global.GLink ((3, 9), (1, 9)))
  in
  Alcotest.(check int) "bogus link flagged" 1
    (List.length (Global.validate topo bogus))

let test_unsupported () =
  Alcotest.(check bool) "star over links" true
    (match Global.compile (Global.GStar (Global.GLink ((1, 1), (2, 1)))) with
     | exception Global.Unsupported _ -> true
     | _ -> false);
  Alcotest.(check bool) "vlan mod in stage" true
    (match Global.compile (Global.Local (Syntax.modify Fields.Vlan 5)) with
     | exception Global.Unsupported _ -> true
     | _ -> false);
  Alcotest.(check bool) "switch mod in stage" true
    (match Global.compile (Global.Local (Syntax.modify Fields.Switch 5)) with
     | exception Global.Unsupported _ -> true
     | _ -> false)

let test_end_to_end_source_route () =
  let topo = Topo.Gen.linear ~switches:3 ~hosts_per_switch:1 () in
  let net = Zen.create topo in
  ignore (Zen.install_policy net (Global.compile route_1_to_3));
  let seen = ref None in
  (Dataplane.Network.host (Zen.network net) 3).on_receive <-
    Some (fun pkt -> seen := Some pkt.hdr);
  Dataplane.Network.send_from (Zen.network net) ~host:1
    (Dataplane.Network.make_pkt ~src:1 ~dst:3 ());
  ignore (Zen.run net);
  (match !seen with
   | None -> Alcotest.fail "not delivered"
   | Some h ->
     Alcotest.(check int) "tag popped" Fields.vlan_none h.vlan);
  (* traffic for other destinations is dropped, not misrouted *)
  Dataplane.Network.send_from (Zen.network net) ~host:1
    (Dataplane.Network.make_pkt ~src:1 ~dst:2 ());
  ignore (Zen.run net);
  Alcotest.(check int) "h2 got nothing" 0
    (Dataplane.Network.host (Zen.network net) 2).received

let test_union_duplicates () =
  (* NetKAT union semantics: a union of two routes delivers two copies *)
  let topo = Topo.Gen.ring ~switches:4 ~hosts_per_switch:1 () in
  (* ring ports: s1: 1->s2 2->s4 3->h1; s2: 1->s1 2->s3 3->h2;
     s3: 1->s2 2->s4 3->h3; s4: 1->s3 2->s1 3->h4 *)
  let stage fwd = Syntax.seq match_h3 (Syntax.forward fwd) in
  let via_s2 =
    Global.big_gseq
      [ Global.Local (Syntax.seq (Syntax.at ~switch:1) (stage 1));
        Global.GLink ((1, 1), (2, 1));
        Global.Local (stage 2);
        Global.GLink ((2, 2), (3, 1));
        Global.Local (stage 3) ]
  in
  let via_s4 =
    Global.big_gseq
      [ Global.Local (Syntax.seq (Syntax.at ~switch:1) (stage 2));
        Global.GLink ((1, 2), (4, 2));
        Global.Local (stage 1);
        Global.GLink ((4, 1), (3, 2));
        Global.Local (stage 3) ]
  in
  let net = Zen.create topo in
  ignore (Zen.install_policy net (Global.compile (Global.GUnion (via_s2, via_s4))));
  Dataplane.Network.send_from (Zen.network net) ~host:1
    (Dataplane.Network.make_pkt ~src:1 ~dst:3 ());
  ignore (Zen.run net);
  Alcotest.(check int) "two copies via both paths" 2
    (Dataplane.Network.host (Zen.network net) 3).received

let test_path_program_waypoint () =
  (* ring: force h1 -> h3 the long way round (via s4) even though the
     via-s2 path is equally short; check with the dataplane AND the
     symbolic waypoint verifier *)
  let topo = Topo.Gen.ring ~switches:4 ~hosts_per_switch:1 () in
  let g =
    Global.path_program topo ~vias:[ 1; 4; 3 ] ~stage:match_h3
      ~final:(Syntax.forward 3)
  in
  let net = Zen.create topo in
  ignore (Zen.install_policy net (Global.compile g));
  Dataplane.Network.send_from (Zen.network net) ~host:1
    (Dataplane.Network.make_pkt ~src:1 ~dst:3 ());
  ignore (Zen.run net);
  Alcotest.(check int) "delivered" 1
    (Dataplane.Network.host (Zen.network net) 3).received;
  let snap = Zen.snapshot net in
  (match Verify.Reach.waypoint snap ~src:1 ~dst:3 ~waypoint:4 with
   | `Enforced -> ()
   | `No_traffic -> Alcotest.fail "verifier sees no traffic"
   | `Violated _ -> Alcotest.fail "waypoint s4 not enforced");
  match Verify.Reach.waypoint snap ~src:1 ~dst:3 ~waypoint:2 with
  | `Violated _ -> ()
  | `Enforced -> Alcotest.fail "s2 must not be on the path"
  | `No_traffic -> Alcotest.fail "verifier sees no traffic"

let test_service_chain_stage_applied () =
  (* the stage rewrites tp_dst at every via; two vias = the rewrite is
     observed (last writer wins, value proves stages executed) *)
  let topo = Topo.Gen.linear ~switches:3 ~hosts_per_switch:1 () in
  let chain =
    Global.big_gseq
      [ Global.Local
          (Syntax.big_seq
             [ Syntax.at ~switch:1; match_h3;
               Syntax.modify Fields.Tp_dst 1111; Syntax.forward 1 ]);
        Global.GLink ((1, 1), (2, 1));
        Global.Local
          (Syntax.big_seq
             [ Syntax.modify Fields.Tp_dst 2222; Syntax.forward 2 ]);
        Global.GLink ((2, 2), (3, 1));
        Global.Local (Syntax.forward 2) ]
  in
  let net = Zen.create topo in
  ignore (Zen.install_policy net (Global.compile chain));
  let seen = ref None in
  (Dataplane.Network.host (Zen.network net) 3).on_receive <-
    Some (fun pkt -> seen := Some pkt.hdr);
  Dataplane.Network.send_from (Zen.network net) ~host:1
    (Dataplane.Network.make_pkt ~tp_dst:80 ~src:1 ~dst:3 ());
  ignore (Zen.run net);
  match !seen with
  | None -> Alcotest.fail "not delivered"
  | Some h -> Alcotest.(check int) "both stages ran in order" 2222 h.tp_dst

let test_global_two_phase_no_loss () =
  (* re-chain a live flow between the two sides of a ring with the
     transitions of a global program: zero loss, waypoint flips *)
  let topo = Topo.Gen.ring ~switches:4 ~hosts_per_switch:1 () in
  let chain via =
    Global.path_program topo ~vias:[ 1; via; 3 ] ~stage:match_h3
      ~final:(Syntax.forward 3)
  in
  let net = Zen.create topo in
  let rt = Zen.with_controller net [] in
  let ctx = Controller.Runtime.ctx rt in
  let updater = Controller.Update.create ~drain:0.2 () in
  Controller.Update.transition updater ctx
    (Global (Global.compile ~base_tag:3000 (chain 4)));
  ignore (Zen.run ~until:(Zen.now net +. 0.2) net);
  let sent =
    Dataplane.Traffic.cbr (Zen.network net)
      { (Dataplane.Traffic.default_flow ~src:1 ~dst:3) with
        rate_pps = 1000.0; start = Zen.now net; stop = Zen.now net +. 1.5 }
  in
  Dataplane.Sim.schedule (Dataplane.Network.sim (Zen.network net)) ~delay:0.7
    (fun () ->
      Controller.Update.transition updater ctx
        (Global (Global.compile ~base_tag:4000 (chain 2))));
  ignore (Zen.run ~until:(Zen.now net +. 3.0) net);
  Alcotest.(check int) "zero loss" !sent
    (Dataplane.Network.host (Zen.network net) 3).received;
  match Verify.Reach.waypoint (Zen.snapshot net) ~src:1 ~dst:3 ~waypoint:2 with
  | `Enforced -> ()
  | `No_traffic | `Violated _ -> Alcotest.fail "chain did not flip to s2"

let test_desugar_agrees_on_teleport_semantics () =
  (* the desugared policy, interpreted denotationally, produces the same
     final located packet the simulation delivers *)
  let h0 =
    Headers.tcp ~switch:1 ~in_port:2 ~src_host:1 ~dst_host:3 ~tp_src:9
      ~tp_dst:80
  in
  let out = Semantics.eval (Global.desugar route_1_to_3) h0 in
  match Semantics.HSet.elements out with
  | [ h ] ->
    Alcotest.(check int) "ends at s3" 3 h.switch;
    Alcotest.(check int) "out the host port" 2 h.in_port
  | _ -> Alcotest.fail "expected exactly one output packet"

let suites =
  [ ( "netkat.global",
      [ Alcotest.test_case "normalize traces" `Quick test_normalize_traces;
        Alcotest.test_case "links_of / validate" `Quick
          test_links_of_and_validate;
        Alcotest.test_case "unsupported fragments" `Quick test_unsupported;
        Alcotest.test_case "source route end to end" `Quick
          test_end_to_end_source_route;
        Alcotest.test_case "union delivers both copies" `Quick
          test_union_duplicates;
        Alcotest.test_case "path program waypoint" `Quick
          test_path_program_waypoint;
        Alcotest.test_case "service chain stages" `Quick
          test_service_chain_stage_applied;
        Alcotest.test_case "global two-phase: zero loss" `Quick
          test_global_two_phase_no_loss;
        Alcotest.test_case "desugared teleport semantics" `Quick
          test_desugar_agrees_on_teleport_semantics ] ) ]
