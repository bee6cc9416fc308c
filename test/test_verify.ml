(* Tests for the header-space algebra and symbolic reachability. *)

open Verify
open Packet

let iset xs = Hsa.IntSet.of_list xs

let cube_of tests : Hsa.cube =
  List.fold_left (fun c (f, k) -> Hsa.set_constr c f k) Hsa.top tests

(* ------------------------------------------------------------------ *)
(* Cube algebra *)

let test_inter_basic () =
  let a = Hsa.eq Fields.Tp_dst 80 in
  let b = Hsa.eq Fields.In_port 2 in
  (match Hsa.inter a b with
   | None -> Alcotest.fail "should intersect"
   | Some c ->
     Alcotest.(check bool) "contains the conj witness" true
       (Hsa.contains c
          (Headers.set (Headers.set Headers.default Fields.Tp_dst 80)
             Fields.In_port 2)));
  Alcotest.(check bool) "same field, different value: empty" true
    (Hsa.inter a (Hsa.eq Fields.Tp_dst 81) = None)

let test_inter_excl () =
  let not80 = cube_of [ (Fields.Tp_dst, Hsa.Excl (iset [ 80 ])) ] in
  (match Hsa.inter not80 (Hsa.eq Fields.Tp_dst 80) with
   | None -> ()
   | Some _ -> Alcotest.fail "80 ∩ ¬80 should be empty");
  match Hsa.inter not80 (Hsa.eq Fields.Tp_dst 81) with
  | Some c ->
    Alcotest.(check bool) "81 survives" true
      (Hsa.contains c (Headers.set Headers.default Fields.Tp_dst 81))
  | None -> Alcotest.fail "81 ∩ ¬80 nonempty"

let test_inter_excl_excl () =
  let a = cube_of [ (Fields.Vlan, Hsa.Excl (iset [ 1 ])) ] in
  let b = cube_of [ (Fields.Vlan, Hsa.Excl (iset [ 2 ])) ] in
  match Hsa.inter a b with
  | Some c ->
    let h v = Headers.set Headers.default Fields.Vlan v in
    Alcotest.(check bool) "1 excluded" false (Hsa.contains c (h 1));
    Alcotest.(check bool) "2 excluded" false (Hsa.contains c (h 2));
    Alcotest.(check bool) "3 inside" true (Hsa.contains c (h 3))
  | None -> Alcotest.fail "should be nonempty"

let test_subtract_partition () =
  (* (a \ b) ∪ (a ∩ b) = a, and the parts are disjoint — check by
     membership on a grid of concrete headers *)
  let a = cube_of [ (Fields.Tp_dst, Hsa.In (iset [ 1; 2; 3 ])) ] in
  let b = cube_of [ (Fields.Tp_dst, Hsa.In (iset [ 2; 3; 4 ]));
                    (Fields.Vlan, Hsa.In (iset [ 7 ])) ] in
  let parts = Hsa.subtract a b in
  let headers =
    List.concat_map
      (fun tp ->
        List.map
          (fun vl ->
            Headers.set (Headers.set Headers.default Fields.Tp_dst tp)
              Fields.Vlan vl)
          [ 6; 7 ])
      [ 1; 2; 3; 4 ]
  in
  List.iter
    (fun h ->
      let in_a = Hsa.contains a h and in_b = Hsa.contains b h in
      let in_parts = List.exists (fun c -> Hsa.contains c h) parts in
      Alcotest.(check bool)
        (Format.asprintf "%a" Headers.pp h)
        (in_a && not in_b) in_parts)
    headers

let test_subtract_disjoint_returns_whole () =
  let a = Hsa.eq Fields.Tp_dst 80 in
  let b = Hsa.eq Fields.Tp_dst 81 in
  Alcotest.(check bool) "disjoint" true (Hsa.subtract a b = [ a ])

let test_subsumes () =
  let any = Hsa.top in
  let narrow = Hsa.eq Fields.Tp_dst 80 in
  Alcotest.(check bool) "top subsumes" true (Hsa.subsumes ~general:any narrow);
  Alcotest.(check bool) "narrow does not subsume top" false
    (Hsa.subsumes ~general:narrow any);
  let not80 = cube_of [ (Fields.Tp_dst, Hsa.Excl (iset [ 80 ])) ] in
  Alcotest.(check bool) "¬80 subsumes {81}" true
    (Hsa.subsumes ~general:not80 (Hsa.eq Fields.Tp_dst 81));
  Alcotest.(check bool) "¬80 does not subsume {80}" false
    (Hsa.subsumes ~general:not80 (Hsa.eq Fields.Tp_dst 80))

let test_of_pattern () =
  let p =
    { Flow.Pattern.any with
      tp_dst = Some 80; in_port = Some 2;
      ip4_dst = Some (Ipv4.Prefix.host (Ipv4.of_host_id 9)) }
  in
  let c = Hsa.of_pattern p in
  let h =
    { Headers.default with tp_dst = 80; in_port = 2;
      ip4_dst = Ipv4.of_host_id 9 }
  in
  Alcotest.(check bool) "matching headers inside" true (Hsa.contains c h);
  Alcotest.(check bool) "others outside" false
    (Hsa.contains c { h with tp_dst = 81 });
  (* wide prefixes are rejected, /0 is fine *)
  Alcotest.(check bool) "wildcard prefix ok" true
    (Hsa.of_pattern
       { Flow.Pattern.any with ip4_src = Some (Ipv4.Prefix.of_string "0.0.0.0/0") }
     = Hsa.top);
  Alcotest.(check bool) "/8 rejected" true
    (match
       Hsa.of_pattern
         { Flow.Pattern.any with ip4_src = Some (Ipv4.Prefix.of_string "10.0.0.0/8") }
     with
     | exception Hsa.Unsupported _ -> true
     | _ -> false)

let test_witness () =
  let c =
    cube_of
      [ (Fields.Tp_dst, Hsa.In (iset [ 42 ]));
        (Fields.Vlan, Hsa.Excl (iset [ 0; 1; 2 ])) ]
  in
  Alcotest.(check bool) "witness is a member" true (Hsa.contains c (Hsa.witness c));
  Alcotest.(check int) "picked 42" 42 (Hsa.witness c).tp_dst;
  Alcotest.(check int) "smallest non-excluded" 3 (Hsa.witness c).vlan

(* property: subtraction really is set difference (tested pointwise) *)
let gen_constr =
  let open QCheck.Gen in
  oneof
    [ return Hsa.Any;
      map (fun l -> Hsa.In (iset (List.map (fun v -> v mod 4) (1 :: l))))
        (list_size (0 -- 3) (int_bound 3));
      map (fun l -> Hsa.Excl (iset (List.map (fun v -> v mod 4) (1 :: l))))
        (list_size (0 -- 3) (int_bound 3)) ]

let gen_cube =
  let open QCheck.Gen in
  let f = oneofl [ Fields.In_port; Fields.Vlan; Fields.Tp_dst ] in
  map (fun l -> cube_of l) (list_size (0 -- 3) (pair f gen_constr))

let grid_headers =
  List.concat_map
    (fun p ->
      List.concat_map
        (fun v ->
          List.map
            (fun t ->
              { Headers.default with in_port = p; vlan = v; tp_dst = t })
            [ 0; 1; 2; 3; 4 ])
        [ 0; 1; 2; 3; 4 ])
    [ 0; 1; 2; 3; 4 ]

let prop_cube_algebra =
  QCheck.Test.make ~name:"cube inter/subtract agree with set semantics"
    ~count:300
    (QCheck.make (QCheck.Gen.pair gen_cube gen_cube))
    (fun (a, b) ->
      let inter_ok =
        List.for_all
          (fun h ->
            let got =
              match Hsa.inter a b with
              | None -> false
              | Some c -> Hsa.contains c h
            in
            got = (Hsa.contains a h && Hsa.contains b h))
          grid_headers
      in
      let sub = Hsa.subtract a b in
      let sub_ok =
        List.for_all
          (fun h ->
            List.exists (fun c -> Hsa.contains c h) sub
            = (Hsa.contains a h && not (Hsa.contains b h)))
          grid_headers
      in
      inter_ok && sub_ok)

(* ------------------------------------------------------------------ *)
(* Reachability over compiled tables *)

(* the tables [Zen.install_policy] loads *)
let snapshot_of topo pol : Reach.snapshot =
  let net = Zen.create topo in
  ignore (Zen.install_policy net pol);
  Zen.snapshot net

let test_reachability_routing () =
  let topo = Topo.Gen.linear ~switches:3 ~hosts_per_switch:1 () in
  let snap = snapshot_of topo (Netkat.Builder.routing_policy topo) in
  List.iter
    (fun (src, dst) ->
      Alcotest.(check bool)
        (Printf.sprintf "%d->%d" src dst)
        true
        (Reach.reachable snap ~src ~dst))
    [ (1, 2); (1, 3); (3, 1); (2, 3) ]

let test_reachability_matrix_full () =
  let topo, info = Topo.Gen.fat_tree ~k:2 () in
  let snap = snapshot_of topo (Netkat.Builder.routing_policy topo) in
  let m = Reach.reachability_matrix snap in
  Alcotest.(check int) "pairs" (List.length info.host_ids * (List.length info.host_ids - 1))
    (List.length m);
  Alcotest.(check bool) "all reachable" true (List.for_all snd m)

let test_reachability_respects_acl () =
  let topo = Topo.Gen.linear ~switches:2 ~hosts_per_switch:1 () in
  let entries =
    [ { Netkat.Builder.allow = false;
        src_ip = Some (Ipv4.of_host_id 1);
        dst_ip = Some (Ipv4.of_host_id 2);
        proto = None; dst_port = None } ]
  in
  let snap = snapshot_of topo (Netkat.Builder.firewall topo entries) in
  Alcotest.(check bool) "blocked direction" false (Reach.reachable snap ~src:1 ~dst:2);
  Alcotest.(check bool) "reverse allowed" true (Reach.reachable snap ~src:2 ~dst:1)

let test_loop_detection () =
  (* hand-build a two-switch forwarding loop *)
  let topo = Topo.Gen.linear ~switches:2 ~hosts_per_switch:1 () in
  (* s1 port1 <-> s2 port1; hosts on port 2 *)
  let t1 = Flow.Table.create () and t2 = Flow.Table.create () in
  Flow.Table.add t1
    (Flow.Table.make_rule ~pattern:Flow.Pattern.any
       ~actions:(Flow.Action.forward 1) ());
  Flow.Table.add t2
    (Flow.Table.make_rule ~pattern:Flow.Pattern.any
       ~actions:(Flow.Action.forward 1) ());
  let snap : Reach.snapshot =
    { topo;
      tables = (fun id -> Flow.Table.rules (if id = 1 then t1 else t2)) }
  in
  let loops = Reach.loop_free snap in
  Alcotest.(check bool) "loop found" true (loops <> []);
  (* and the routing policy is loop-free *)
  let good = snapshot_of topo (Netkat.Builder.routing_policy topo) in
  Alcotest.(check int) "routing loop-free" 0 (List.length (Reach.loop_free good))

let test_black_holes () =
  let topo = Topo.Gen.linear ~switches:2 ~hosts_per_switch:1 () in
  let snap = snapshot_of topo (Netkat.Builder.routing_policy topo) in
  (* routing drops unknown destinations at the first switch: the
     black-hole report for host 1 includes slices (drop rule = policy
     drop, not a miss -> NOT a black hole; tables have explicit drop) *)
  let holes = Reach.black_holes snap ~src:1 in
  Alcotest.(check int) "explicit-drop tables have no misses" 0
    (List.length holes);
  (* an empty table is all miss *)
  let empty : Reach.snapshot = { topo; tables = (fun _ -> []) } in
  Alcotest.(check bool) "empty tables black-hole everything" true
    (Reach.black_holes empty ~src:1 <> [])

let test_isolation_check () =
  let topo = Topo.Gen.linear ~switches:3 ~hosts_per_switch:2 () in
  let slices = [ [ 1; 3; 5 ]; [ 2; 4; 6 ] ] in
  let pol = Netkat.Builder.isolation_policy topo ~groups:slices in
  let snap = snapshot_of topo pol in
  Alcotest.(check (list (pair int int))) "isolated" []
    (Reach.isolated snap ~group_a:[ 1; 3; 5 ] ~group_b:[ 2; 4; 6 ]);
  (* members of the same slice still connected *)
  Alcotest.(check bool) "intra-slice ok" true (Reach.reachable snap ~src:1 ~dst:5);
  (* plain routing is NOT isolated *)
  let open_snap = snapshot_of topo (Netkat.Builder.ip_routing_policy topo) in
  Alcotest.(check bool) "plain routing leaks" true
    (Reach.isolated open_snap ~group_a:[ 1 ] ~group_b:[ 2 ] <> [])

let test_reachability_after_failure () =
  let topo = Topo.Gen.ring ~switches:4 ~hosts_per_switch:1 () in
  let pol = Netkat.Builder.routing_policy topo in
  let snap = snapshot_of topo pol in
  Alcotest.(check bool) "before" true (Reach.reachable snap ~src:1 ~dst:2);
  (* fail the direct link but keep the stale tables: verification sees
     the traffic die at the dead link *)
  Topo.Topology.fail_link topo (Topo.Topology.Node.Switch 1, 1);
  Alcotest.(check bool) "stale tables, dead link" false
    (Reach.reachable snap ~src:1 ~dst:2);
  (* recompile over the surviving topology: reachability is restored *)
  let snap2 = snapshot_of topo (Netkat.Builder.routing_policy topo) in
  Alcotest.(check bool) "after recompute" true
    (Reach.reachable snap2 ~src:1 ~dst:2)

let test_transfer_rewrites () =
  (* a rule that rewrites vlan must show in the delivered cube *)
  let topo = Topo.Gen.linear ~switches:1 ~hosts_per_switch:2 () in
  let open Netkat.Syntax in
  let pol =
    seq (modify Fields.Vlan 42)
      (seq (filter (test Fields.Eth_dst (Mac.of_host_id 2))) (forward 2))
  in
  let snap = snapshot_of topo pol in
  let r =
    Reach.walk snap ~src:1 ~cube:(Reach.flow_cube ~src:1 ~dst:2)
  in
  match r.deliveries with
  | [ d ] ->
    Alcotest.(check int) "delivered to h2" 2 d.host;
    Alcotest.(check bool) "vlan rewritten in cube" true
      (Hsa.subsumes ~general:(Hsa.eq Fields.Vlan 42) d.cube
       || (Hsa.witness d.cube).vlan = 42)
  | _ -> Alcotest.fail "expected exactly one delivery"

(* property: symbolic reachability agrees with concrete simulation *)
let prop_verify_agrees_with_simulation =
  QCheck.Test.make
    ~name:"symbolic reachability agrees with simulated delivery" ~count:30
    (QCheck.make QCheck.Gen.(pair (int_range 2 5) (int_bound 10000)))
    (fun (nsw, seed) ->
      let prng = Util.Prng.create seed in
      let topo = Topo.Gen.linear ~switches:nsw ~hosts_per_switch:1 () in
      (* random ACL + routing *)
      let entries = Netkat.Builder.random_acl prng ~n:3 ~hosts:nsw in
      let entries =
        List.map (fun (e : Netkat.Builder.acl_entry) -> { e with dst_port = None; proto = None }) entries
      in
      let pol = Netkat.Builder.firewall topo entries in
      let snap = snapshot_of topo pol in
      let net = Dataplane.Network.create topo in
      List.iter
        (fun sw ->
          let id = Topo.Topology.Node.id sw in
          let table = (Dataplane.Network.switch net id).table in
          List.iter (Flow.Table.add table) (snap.tables id |> List.map (fun r -> r)))
        (Topo.Topology.switches topo);
      List.for_all
        (fun (src, dst) ->
          if src = dst then true
          else begin
            let symbolic = Reach.reachable snap ~src ~dst in
            let before = (Dataplane.Network.host net dst).received in
            Dataplane.Network.send_from net ~host:src
              (Dataplane.Network.make_pkt ~src ~dst ());
            ignore (Dataplane.Network.run net ());
            let got = (Dataplane.Network.host net dst).received > before in
            got = symbolic
          end)
        (List.concat_map
           (fun s -> List.map (fun d -> (s, d)) (List.init nsw (fun i -> i + 1)))
           (List.init nsw (fun i -> i + 1))))

let suites =
  [ ( "verify.hsa",
      [ Alcotest.test_case "intersection" `Quick test_inter_basic;
        Alcotest.test_case "exclusion constraints" `Quick test_inter_excl;
        Alcotest.test_case "excl ∩ excl" `Quick test_inter_excl_excl;
        Alcotest.test_case "subtraction partitions" `Quick
          test_subtract_partition;
        Alcotest.test_case "disjoint subtraction" `Quick
          test_subtract_disjoint_returns_whole;
        Alcotest.test_case "subsumption" `Quick test_subsumes;
        Alcotest.test_case "of_pattern" `Quick test_of_pattern;
        Alcotest.test_case "witness" `Quick test_witness;
        QCheck_alcotest.to_alcotest prop_cube_algebra ] );
    ( "verify.reach",
      [ Alcotest.test_case "routing reachability" `Quick
          test_reachability_routing;
        Alcotest.test_case "full matrix on fat-tree" `Quick
          test_reachability_matrix_full;
        Alcotest.test_case "respects ACLs" `Quick test_reachability_respects_acl;
        Alcotest.test_case "loop detection" `Quick test_loop_detection;
        Alcotest.test_case "black holes" `Quick test_black_holes;
        Alcotest.test_case "slice isolation" `Quick test_isolation_check;
        Alcotest.test_case "failure staleness" `Quick
          test_reachability_after_failure;
        Alcotest.test_case "rewrites visible" `Quick test_transfer_rewrites;
        QCheck_alcotest.to_alcotest prop_verify_agrees_with_simulation ] ) ]
