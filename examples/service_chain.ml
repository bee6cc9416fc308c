(* Service chaining with the global compiler: a network-wide program
   with explicit link hops — "h1's web traffic to h3 must pass through
   the scrubber switch s4, getting remarked on the way" — compiled to
   ordinary per-switch flow tables via VLAN program counters, then
   verified (waypoint enforcement) and exercised (packets).

   Also demonstrates a live, per-packet-consistent policy change: the
   chain is rerouted through s2 with a two-phase update under traffic,
   losing nothing.

   Run with: dune exec examples/service_chain.exe *)

let pf = Format.printf

let match_web =
  Netkat.Syntax.conj
    (Netkat.Syntax.test Packet.Fields.Eth_dst (Packet.Mac.of_host_id 3))
    (Netkat.Syntax.test Packet.Fields.Tp_dst 80)

(* remark the traffic class as the "scrubber" action *)
let scrub = Netkat.Syntax.modify Packet.Fields.Ip_proto 99

let chain_via topo via =
  Netkat.Global.path_program topo ~vias:[ 1; via; 3 ]
    ~stage:(Netkat.Syntax.filter match_web)
    ~final:(Netkat.Syntax.seq scrub (Netkat.Syntax.forward 3))

let () =
  (* ring of 4: two ways from s1 to s3 — via s2 or via s4 *)
  let topo = Topo.Gen.ring ~switches:4 ~hosts_per_switch:1 () in
  pf "topology: 4-switch ring, host per switch@.";

  let program = chain_via topo 4 in
  (match Netkat.Global.validate topo program with
   | [] -> pf "global program names only real links@."
   | bad -> pf "BAD LINKS: %d@." (List.length bad));

  let local_policy = Netkat.Global.compile program in
  pf "compiled global program: %d AST nodes of local policy@."
    (Netkat.Syntax.size local_policy);

  let net = Zen.create topo in
  let rules = Zen.install_policy net local_policy in
  pf "installed %d rules@.@." rules;

  (* verify the chain before sending anything *)
  let snap = Zen.snapshot net in
  (match Verify.Reach.waypoint snap ~src:1 ~dst:3 ~waypoint:4 with
   | `Enforced -> pf "verified: all h1 -> h3 web traffic passes s4@."
   | `No_traffic -> pf "verified: NO TRAFFIC?!@."
   | `Violated w -> pf "VIOLATED: %d paths skip s4@." (List.length w));

  (* exercise it *)
  let seen = ref None in
  (Dataplane.Network.host (Zen.network net) 3).on_receive <-
    Some (fun pkt -> seen := Some pkt.hdr);
  Dataplane.Network.send_from (Zen.network net) ~host:1
    (Dataplane.Network.make_pkt ~tp_dst:80 ~src:1 ~dst:3 ());
  (* port-22 traffic is outside the chain: must die *)
  Dataplane.Network.send_from (Zen.network net) ~host:1
    (Dataplane.Network.make_pkt ~tp_dst:22 ~src:1 ~dst:3 ());
  ignore (Zen.run net);
  (match !seen with
   | Some h ->
     pf "measured: web packet delivered, scrubbed (proto=%d), untagged (vlan=%s)@."
       h.ip_proto
       (if h.vlan = Packet.Fields.vlan_none then "none" else string_of_int h.vlan)
   | None -> pf "measured: NOTHING DELIVERED?!@.");
  pf "measured: h3 received %d packet(s) total (port-22 probe dropped)@.@."
    (Dataplane.Network.host (Zen.network net) 3).received;

  (* ---- live re-chaining with a two-phase consistent update ---- *)
  pf "re-chaining through s2 under 2000 pps of live traffic...@.";
  let net2 = Zen.create (Topo.Gen.ring ~switches:4 ~hosts_per_switch:1 ()) in
  let topo2 = Zen.topology net2 in
  let rt = Zen.with_controller net2 [] in
  let ctx = Controller.Runtime.ctx rt in
  let updater = Controller.Update.create ~drain:0.3 () in
  Controller.Update.transition updater ctx
    (Global (Netkat.Global.compile ~base_tag:3000 (chain_via topo2 4)));
  ignore (Zen.run ~until:(Zen.now net2 +. 0.2) net2);
  let sent =
    Dataplane.Traffic.cbr (Zen.network net2)
      { (Dataplane.Traffic.default_flow ~src:1 ~dst:3) with
        rate_pps = 2000.0; start = Zen.now net2; stop = Zen.now net2 +. 2.0 }
  in
  Dataplane.Sim.schedule
    (Dataplane.Network.sim (Zen.network net2))
    ~delay:1.0
    (fun () ->
      Controller.Update.transition updater ctx
        (Global (Netkat.Global.compile ~base_tag:4000 (chain_via topo2 2))));
  ignore (Zen.run ~until:(Zen.now net2 +. 3.0) net2);
  let received = (Dataplane.Network.host (Zen.network net2) 3).received in
  pf "sent %d, delivered %d, lost %d during the consistent re-chain@." !sent
    received (!sent - received);
  match
    Verify.Reach.waypoint (Zen.snapshot net2) ~src:1 ~dst:3 ~waypoint:2
  with
  | `Enforced -> pf "verified: chain now passes s2@."
  | `No_traffic -> pf "verified: no traffic?!@."
  | `Violated _ -> pf "verified: VIOLATION@."