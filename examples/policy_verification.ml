(* Policy verification: slices and firewalls checked symbolically before
   any packet flows, then cross-checked against the simulated dataplane.

   The scenario: a campus network (random Waxman graph) shared by two
   tenants ("research" and "admin") plus a firewalled public segment.
   We verify:  (1) tenant isolation,  (2) intra-tenant connectivity,
   (3) the firewall holds exactly for the blocked flows,  (4) the
   tables are loop-free — and we demonstrate a catch: a buggy policy
   that leaks between slices is detected with a concrete witness.

   Run with: dune exec examples/policy_verification.exe *)

let pf = Format.printf

let () =
  let prng = Util.Prng.create 7 in
  let topo = Topo.Gen.waxman ~switches:12 ~hosts_per_switch:1 ~prng () in
  pf "campus: %d switches, %d hosts, %d links (Waxman seed 7)@.@."
    (Topo.Topology.switch_count topo) (Topo.Topology.host_count topo)
    (Topo.Topology.link_count topo);

  let research = Zen.Slice.make ~name:"research" ~hosts:[ 1; 2; 3; 4; 5 ] in
  let admin = Zen.Slice.make ~name:"admin" ~hosts:[ 6; 7; 8; 9 ] in
  let slices = [ research; admin ] in

  (* --- sliced network --------------------------------------------- *)
  let net = Zen.create topo in
  let rules = Zen.install_policy net (Zen.Slice.policy topo slices) in
  pf "sliced policy compiled to %d rules@." rules;

  let snap = Zen.snapshot net in
  (match Zen.Slice.verify_all snap slices with
   | [] -> pf "verified: research and admin are isolated@."
   | leaks ->
     List.iter
       (fun (a, b, pairs) ->
         pf "LEAK between %s and %s: %d witness flows@." a b
           (List.length pairs))
       leaks);
  List.iter
    (fun slice ->
      match Zen.Slice.verify_connectivity snap slice with
      | [] -> pf "verified: %s is internally connected@." slice.Zen.Slice.name
      | broken ->
        pf "BROKEN: %s has %d unreachable pairs@." slice.Zen.Slice.name
          (List.length broken))
    slices;
  pf "verified: loop-free: %b@.@." (Verify.Reach.loop_free snap = []);

  (* dataplane agrees *)
  pf "measured: ping h1 -> h5 (same slice): %d replies@."
    (List.length (Zen.ping net ~src:1 ~dst:5));
  pf "measured: ping h1 -> h6 (cross slice): %d replies@.@."
    (List.length (Zen.ping net ~src:1 ~dst:6));

  (* --- a buggy policy is caught ----------------------------------- *)
  (* the "bug": plain routing installed instead of the sliced policy *)
  let buggy = Zen.create topo in
  ignore (Zen.install_policy buggy (Netkat.Builder.ip_routing_policy topo));
  let bsnap = Zen.snapshot buggy in
  (match Zen.Slice.verify_isolation bsnap research admin with
   | [] -> pf "buggy policy passed?! (should not happen)@."
   | (src, dst) :: _ as leaks ->
     pf "bug caught: %d leaking flows; first witness: h%d -> h%d@."
       (List.length leaks) src dst);

  (* --- firewall on top of the sliced network ---------------------- *)
  let entries =
    [ (* no ssh into the admin servers from research hosts *)
      { Netkat.Builder.allow = false;
        src_ip = Some (Packet.Ipv4.of_host_id 1);
        dst_ip = Some (Packet.Ipv4.of_host_id 3);
        proto = Some 6; dst_port = Some 22 } ]
  in
  let fw_net = Zen.create topo in
  ignore (Zen.install_policy fw_net (Netkat.Builder.firewall topo entries));
  let fw_snap = Zen.snapshot fw_net in

  (* port-22 traffic from h1 to h3 must die; port 80 must pass *)
  let cube_port p =
    match
      Verify.Hsa.inter
        (Verify.Reach.flow_cube ~src:1 ~dst:3)
        (Verify.Hsa.eq Packet.Fields.Tp_dst p)
    with
    | Some c ->
      Verify.Hsa.inter c (Verify.Hsa.eq Packet.Fields.Ip_proto 6)
      |> Option.get
    | None -> assert false
  in
  let reaches cube =
    let r = Verify.Reach.walk fw_snap ~src:1 ~cube in
    List.exists (fun (d : Verify.Reach.delivery) -> d.host = 3) r.deliveries
  in
  pf "@.firewall verification:@.";
  pf "  h1 -> h3 tcp/22 delivered: %b (want false)@." (reaches (cube_port 22));
  pf "  h1 -> h3 tcp/80 delivered: %b (want true)@." (reaches (cube_port 80));

  (* and measured on the dataplane *)
  let send p =
    Dataplane.Network.send_from (Zen.network fw_net) ~host:1
      (Dataplane.Network.make_pkt ~tp_dst:p ~src:1 ~dst:3 ())
  in
  send 22;
  send 80;
  ignore (Zen.run fw_net);
  pf "  measured: h3 received %d packet(s) (want 1: only tcp/80)@."
    (Dataplane.Network.host (Zen.network fw_net) 3).received
