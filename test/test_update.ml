(* Tests for Controller.Update's two entry points — consistent
   transitions (two-phase versioning) and plain delta pushes — and for
   incremental routing deltas. *)

open Packet

(* ------------------------------------------------------------------ *)
(* Versioned policies *)

let ring_with_policies () =
  let topo = Topo.Gen.ring ~switches:4 ~hosts_per_switch:1 () in
  let port_toward sw nbr =
    Topo.Topology.ports topo (Topo.Topology.Node.Switch sw)
    |> List.find (fun p ->
      match Topo.Topology.link_via topo (Topo.Topology.Node.Switch sw) p with
      | Some l -> l.dst = Topo.Topology.Node.Switch nbr
      | None -> false)
  in
  let path_policy () =
    let path =
      Option.get
        (Topo.Path.shortest_path topo ~src:(Topo.Topology.Node.Host 1)
           ~dst:(Topo.Topology.Node.Host 3))
    in
    Netkat.Syntax.big_union
      (List.filter_map
         (fun (h : Topo.Path.hop) ->
           match h.node with
           | Topo.Topology.Node.Host _ -> None
           | Topo.Topology.Node.Switch sw ->
             Some
               (Netkat.Syntax.big_seq
                  [ Netkat.Syntax.at ~switch:sw;
                    Netkat.Syntax.filter
                      (Netkat.Syntax.test Fields.Eth_dst (Mac.of_host_id 3));
                    Netkat.Syntax.forward h.Topo.Path.out_port ]))
         path)
  in
  let block sw nbr f =
    let p = port_toward sw nbr in
    Topo.Topology.fail_link topo (Topo.Topology.Node.Switch sw, p);
    let r = f () in
    Topo.Topology.restore_link topo (Topo.Topology.Node.Switch sw, p);
    r
  in
  let old_pol = block 1 4 path_policy in
  let new_pol = block 1 2 path_policy in
  (topo, old_pol, new_pol)

let test_versioned_install_forwards () =
  let topo, old_pol, _ = ring_with_policies () in
  let net = Zen.create topo in
  let rt = Zen.with_controller net [] in
  let updater = Controller.Update.create () in
  Controller.Update.transition updater (Controller.Runtime.ctx rt)
    (Local old_pol);
  ignore (Zen.run ~until:(Zen.now net +. 0.1) net);
  Dataplane.Network.send_from (Zen.network net) ~host:1
    (Dataplane.Network.make_pkt ~src:1 ~dst:3 ());
  ignore (Zen.run ~until:(Zen.now net +. 0.5) net);
  Alcotest.(check int) "delivered through versioned tables" 1
    (Dataplane.Network.host (Zen.network net) 3).received

let test_versioned_pops_tag () =
  (* the host must never see the version tag *)
  let topo, old_pol, _ = ring_with_policies () in
  let net = Zen.create topo in
  let rt = Zen.with_controller net [] in
  let updater = Controller.Update.create () in
  Controller.Update.transition updater (Controller.Runtime.ctx rt)
    (Local old_pol);
  ignore (Zen.run ~until:(Zen.now net +. 0.1) net);
  let seen_vlan = ref (-1) in
  (Dataplane.Network.host (Zen.network net) 3).on_receive <-
    Some (fun pkt -> seen_vlan := pkt.hdr.vlan);
  Dataplane.Network.send_from (Zen.network net) ~host:1
    (Dataplane.Network.make_pkt ~src:1 ~dst:3 ());
  ignore (Zen.run ~until:(Zen.now net +. 0.5) net);
  Alcotest.(check int) "untagged at delivery" Fields.vlan_none !seen_vlan

(* a first transition installs [old_pol]; a second one, 0.7 s into
   1 kpps of CBR traffic, moves to [new_pol] *)
let run_update_scenario () =
  let topo, old_pol, new_pol = ring_with_policies () in
  let net = Zen.create topo in
  let rt = Zen.with_controller net [] in
  let ctx = Controller.Runtime.ctx rt in
  let updater = Controller.Update.create ~drain:0.2 () in
  Controller.Update.transition updater ctx (Local old_pol);
  ignore (Zen.run ~until:(Zen.now net +. 0.2) net);
  let sent =
    Dataplane.Traffic.cbr (Zen.network net)
      { (Dataplane.Traffic.default_flow ~src:1 ~dst:3) with
        rate_pps = 1000.0; start = Zen.now net; stop = Zen.now net +. 1.5 }
  in
  Dataplane.Sim.schedule (Dataplane.Network.sim (Zen.network net)) ~delay:0.7
    (fun () -> Controller.Update.transition updater ctx (Local new_pol));
  ignore (Zen.run ~until:(Zen.now net +. 3.0) net);
  let received = (Dataplane.Network.host (Zen.network net) 3).received in
  (!sent, received, updater, net)

let test_two_phase_no_loss () =
  let sent, received, updater, _ = run_update_scenario () in
  Alcotest.(check int) "zero loss" sent received;
  Alcotest.(check int) "one update completed" 1
    (Controller.Update.updates_done updater);
  Alcotest.(check int) "now at version 2" 2 (Controller.Update.version updater)

let test_two_phase_table_occupancy () =
  let _, _, updater, net = run_update_scenario () in
  (* during the transition both versions were installed *)
  let final =
    List.fold_left
      (fun acc (sw : Dataplane.Network.switch) -> acc + Flow.Table.size sw.table)
      0
      (Dataplane.Network.switch_list (Zen.network net))
  in
  Alcotest.(check bool)
    (Printf.sprintf "peak %d > final %d" (Controller.Update.peak_rules updater) final)
    true
    (Controller.Update.peak_rules updater > final);
  (* old version's rules are gone after the drain *)
  let stale =
    List.exists
      (fun (sw : Dataplane.Network.switch) ->
        List.exists
          (fun (r : Flow.Table.rule) -> r.cookie = 1)
          (Flow.Table.rules sw.table))
      (Dataplane.Network.switch_list (Zen.network net))
  in
  Alcotest.(check bool) "old version garbage-collected" false stale

(* Version bands on fat-tree k=4 routing, whose edge tables hold more
   than 10 ingress rules per version: a two-phase transition under CBR
   traffic loses nothing; every rule of version [v] (cookie [v]) lies in
   [v]'s band — internal rules in [(2 v span, (2 v + 1) span)], ingress
   rules one span higher; and at peak occupancy, with both versions
   installed, every switch's new ingress rules sit strictly above the
   old version's rules. *)
let test_two_phase_bands () =
  let topo, _ = Topo.Gen.fat_tree ~k:4 () in
  let base = Netkat.Builder.routing_policy topo in
  let net = Zen.create topo in
  let rt = Zen.with_controller net [] in
  let ctx = Controller.Runtime.ctx rt in
  let updater = Controller.Update.create ~drain:0.2 () in
  Controller.Update.transition updater ctx (Local base);
  ignore (Zen.run ~until:(Zen.now net +. 0.2) net);
  let hosts = Topo.Topology.host_ids topo in
  let src = List.hd hosts and dst = List.nth hosts (List.length hosts - 1) in
  let sent =
    Dataplane.Traffic.cbr (Zen.network net)
      { (Dataplane.Traffic.default_flow ~src ~dst) with
        rate_pps = 1000.0; start = Zen.now net; stop = Zen.now net +. 1.0 }
  in
  let span = Netkat.Delta.span in
  let ingress (r : Flow.Table.rule) =
    r.pattern.vlan = Some Fields.vlan_none
  in
  let check_bands () =
    List.iter
      (fun (sw : Dataplane.Network.switch) ->
        List.iter
          (fun (r : Flow.Table.rule) ->
            let lo = (2 * r.cookie * span) + if ingress r then span else 0 in
            if r.priority <= lo || r.priority >= lo + span then
              Alcotest.failf "s%d: priority %d of version %d outside (%d, %d)"
                sw.sw_id r.priority r.cookie lo (lo + span))
          (Flow.Table.rules sw.table))
      (Dataplane.Network.switch_list (Zen.network net))
  in
  let peak_checked = ref false and most_ingress = ref 0 in
  let sim = Dataplane.Network.sim (Zen.network net) in
  let edit = (List.hd (Topo.Topology.switch_ids topo), Mac.of_host_id dst, 9) in
  Dataplane.Sim.schedule sim ~delay:0.3 (fun () ->
    Controller.Update.transition updater ctx
      (Local (Scenarios.apply_edit base edit)));
  (* phase 2 flips ingress 10 ms in, the drain ends 200 ms later *)
  Dataplane.Sim.schedule sim ~delay:0.4 (fun () ->
    peak_checked := true;
    check_bands ();
    List.iter
      (fun (sw : Dataplane.Network.switch) ->
        let rules = Flow.Table.rules sw.table in
        let of_version v =
          List.filter (fun (r : Flow.Table.rule) -> r.cookie = v) rules
        in
        let fresh = List.filter ingress (of_version 2) in
        most_ingress := max !most_ingress (List.length fresh);
        let lowest_new =
          List.fold_left (fun m (r : Flow.Table.rule) -> min m r.priority)
            max_int fresh
        in
        List.iter
          (fun (r : Flow.Table.rule) ->
            if r.priority >= lowest_new then
              Alcotest.failf
                "s%d: version 1 rule at %d not below version 2 ingress at %d"
                sw.sw_id r.priority lowest_new)
          (of_version 1);
        if fresh <> [] && of_version 1 = [] then
          Alcotest.failf "s%d: version 1 gone before the drain" sw.sw_id)
      (Dataplane.Network.switch_list (Zen.network net)));
  ignore (Zen.run ~until:(Zen.now net +. 1.5) net);
  Alcotest.(check bool) "peak occupancy inspected" true !peak_checked;
  Alcotest.(check bool)
    (Printf.sprintf "%d ingress rules on the fullest switch > 10" !most_ingress)
    true (!most_ingress > 10);
  Alcotest.(check bool) (Printf.sprintf "%d packets sent" !sent) true
    (!sent >= 900);
  Alcotest.(check int) "zero loss" !sent
    (Dataplane.Network.host (Zen.network net) dst).received;
  Alcotest.(check int) "transition done" 1
    (Controller.Update.updates_done updater);
  check_bands ()

(* the last version whose bands fit the u32 wire priority is 8191 at
   span 2^18; the next transition raises before touching the version *)
let test_band_overflow_rejected () =
  let topo, old_pol, new_pol = ring_with_policies () in
  let net = Zen.create topo in
  let ctx = Controller.Runtime.ctx (Zen.with_controller net []) in
  let updater = Controller.Update.create () in
  let last = (1 lsl 32) / (2 * Netkat.Delta.span) - 1 in
  Controller.Update.set_version updater (last - 1);
  Controller.Update.transition updater ctx (Local old_pol);
  Alcotest.(check int) "last fitting version" last
    (Controller.Update.version updater);
  Alcotest.(check bool) "next version rejected" true
    (match Controller.Update.transition updater ctx (Local new_pol) with
     | exception Invalid_argument _ -> true
     | () -> false);
  Alcotest.(check int) "version unchanged" last
    (Controller.Update.version updater)

let test_vlan_policy_rejected () =
  let topo = Topo.Gen.linear ~switches:2 ~hosts_per_switch:1 () in
  let net = Zen.create topo in
  let rt = Zen.with_controller net [] in
  let updater = Controller.Update.create () in
  Alcotest.(check bool) "vlan-using policy rejected" true
    (match
       Controller.Update.transition updater (Controller.Runtime.ctx rt)
         (Local (Netkat.Syntax.modify Fields.Vlan 5))
     with
     | exception Controller.Update.Policy_uses_vlan -> true
     | () -> false)

(* ------------------------------------------------------------------ *)
(* Incremental routing *)

let installed_tables net =
  List.map
    (fun (sw : Dataplane.Network.switch) ->
      ( sw.sw_id,
        List.map
          (fun (r : Flow.Table.rule) -> (r.priority, r.pattern, r.actions))
          (Flow.Table.rules sw.table)
        |> List.sort compare ))
    (Dataplane.Network.switch_list (Zen.network net))

(* after a core-link failure the delta-maintained tables must equal a
   fresh routing run on a topology that starts with the link failed, and
   the failure's churn must be a small fraction of the initial push *)
let test_incremental_routing_equivalent () =
  let topo, info = Topo.Gen.fat_tree ~k:4 () in
  let core = Topo.Topology.Node.Switch (List.hd info.core) in
  let net = Zen.create topo in
  let routing = Controller.Routing.create () in
  let _rt = Zen.with_controller net [ Controller.Routing.app routing ] in
  let initial = Controller.Routing.last_churn routing in
  Dataplane.Network.fail_link (Zen.network net) core 1;
  ignore (Zen.run ~until:(Zen.now net +. 0.5) net);
  let churn = Controller.Routing.last_churn routing in
  let fresh =
    let topo', _ = Topo.Gen.fat_tree ~k:4 () in
    Topo.Topology.fail_link topo' (core, 1);
    let net' = Zen.create topo' in
    let _rt =
      Zen.with_controller net'
        [ Controller.Routing.app (Controller.Routing.create ()) ]
    in
    installed_tables net'
  in
  Alcotest.(check bool)
    (Printf.sprintf "failure churn %d < initial push %d / 3" churn initial)
    true
    (churn > 0 && churn * 3 < initial);
  Alcotest.(check bool) "tables equal a fresh run on the failed topology"
    true
    (installed_tables net = fresh)

let test_incremental_noop_on_no_change () =
  let topo = Topo.Gen.ring ~switches:4 ~hosts_per_switch:1 () in
  let net = Zen.create topo in
  let routing = Controller.Routing.create () in
  let _rt = Zen.with_controller net [ Controller.Routing.app routing ] in
  (* failing and restoring a link the routing never used (host links are
     used; pick a ring link, routes change, restore brings them back) *)
  Dataplane.Network.fail_link (Zen.network net) (Topo.Topology.Node.Switch 1) 1;
  ignore (Zen.run ~until:(Zen.now net +. 0.5) net);
  let churn_fail = Controller.Routing.last_churn routing in
  Dataplane.Network.restore_link (Zen.network net) (Topo.Topology.Node.Switch 1) 1;
  ignore (Zen.run ~until:(Zen.now net +. 0.5) net);
  let churn_restore = Controller.Routing.last_churn routing in
  Alcotest.(check bool) "some churn on failure" true (churn_fail > 0);
  (* restoring reverts to the original routes: same magnitude of churn *)
  Alcotest.(check bool) "restore churn bounded by fail churn" true
    (churn_restore <= churn_fail + 2)

(* ------------------------------------------------------------------ *)
(* Plain delta pushes (Netkat.Delta through Update.install_plain) *)

let table_marks net =
  List.map
    (fun (sw : Dataplane.Network.switch) ->
      ( sw.sw_id, Flow.Table.generation sw.table,
        Flow.Table.invalidations sw.table ))
    (Dataplane.Network.switch_list net)

(* no-op churn: reinstalling the same policy must not send
   a single flow-mod — every switch's cache generation stays put *)
let test_incremental_reinstall_noop () =
  let topo, old_pol, _ = ring_with_policies () in
  let net = Zen.create topo in
  let rt = Zen.with_controller net [] in
  let ctx = Controller.Runtime.ctx rt in
  let updater = Controller.Update.create () in
  Controller.Update.install_plain updater ctx old_pol;
  ignore (Zen.run ~until:(Zen.now net +. 0.2) net);
  let before = table_marks (Zen.network net) in
  let mods_before = Controller.Update.delta_mods updater in
  Controller.Update.install_plain updater ctx old_pol;
  ignore (Zen.run ~until:(Zen.now net +. 0.2) net);
  Alcotest.(check bool) "no table generation/invalidation moved" true
    (table_marks (Zen.network net) = before);
  Alcotest.(check int) "no delta flow-mods" mods_before
    (Controller.Update.delta_mods updater);
  Alcotest.(check bool) "switches certified unchanged" true
    (Controller.Update.skipped_switches updater > 0)

(* a small edit touches only the edited switch's table *)
let test_incremental_edit_targets_one_switch () =
  let topo, old_pol, new_pol = ring_with_policies () in
  let net = Zen.create topo in
  let rt = Zen.with_controller net [] in
  let ctx = Controller.Runtime.ctx rt in
  let updater = Controller.Update.create () in
  Controller.Update.install_plain updater ctx old_pol;
  ignore (Zen.run ~until:(Zen.now net +. 0.2) net);
  let before = table_marks (Zen.network net) in
  Controller.Update.install_plain updater ctx new_pol;
  ignore (Zen.run ~until:(Zen.now net +. 0.2) net);
  let after = table_marks (Zen.network net) in
  let touched =
    List.filter (fun (m_b, m_a) -> m_b <> m_a) (List.combine before after)
    |> List.length
  in
  Alcotest.(check bool)
    (Printf.sprintf "some but not all switches touched (%d/4)" touched)
    true
    (touched > 0 && touched < 4);
  Alcotest.(check bool) "delta flow-mods issued" true
    (Controller.Update.delta_mods updater > 0);
  (* the resulting tables are what a first install of new_pol on a fresh
     network produces, up to priorities (the edit kept the untouched
     rules' slots) *)
  let switches = Topo.Topology.switch_ids topo in
  let fresh =
    let net' = Zen.create (let t, _, _ = ring_with_policies () in t) in
    let rt' = Zen.with_controller net' [] in
    let updater' = Controller.Update.create () in
    Controller.Update.install_plain updater' (Controller.Runtime.ctx rt')
      new_pol;
    ignore (Zen.run ~until:(Zen.now net' +. 0.2) net');
    Scenarios.live_tables net' switches
  in
  List.iter2
    (fun (sw, got) (_, want) ->
      Alcotest.(check (option string))
        (Printf.sprintf "s%d table equals a from-scratch install" sw)
        None
        (Scenarios.table_mismatch ~seed:sw got
           (List.map
              (fun (r : Netkat.Delta.rule) -> (r.pattern, r.actions))
              want)))
    (Scenarios.live_tables net switches)
    fresh

(* A transition's drain deletes the old version only at the switches
   that received rules under its cookie: a switch whose compiled table
   was pure drops (not installed by the global path) gets no delete —
   its flow cache stays warm and the drain costs one batch, not two *)
let test_delete_version_skips_untouched () =
  let topo = Topo.Gen.linear ~switches:2 ~hosts_per_switch:1 () in
  let net = Zen.create topo in
  let rt = Zen.with_controller net [] in
  let ctx = Controller.Runtime.ctx rt in
  let updater = Controller.Update.create ~drain:0.2 () in
  (* forwards only at switch 1; switch 2 compiles to fall-through drops,
     which the global path leaves uninstalled *)
  let host_port sw =
    snd (List.hd (Topo.Topology.hosts_of_switch topo sw))
  in
  let pol =
    Netkat.Syntax.big_seq
      [ Netkat.Syntax.at ~switch:1;
        Netkat.Syntax.filter
          (Netkat.Syntax.test Fields.Eth_dst (Mac.of_host_id 1));
        Netkat.Syntax.forward (host_port 1) ]
  in
  Controller.Update.transition updater ctx (Global pol);
  ignore (Zen.run ~until:(Zen.now net +. 0.1) net);
  Controller.Update.transition updater ctx (Global pol);
  (* both versions landed; the drain fires 0.21 s after the transition *)
  ignore (Zen.run ~until:(Zen.now net +. 0.1) net);
  let sw1 = Dataplane.Network.switch (Zen.network net) 1 in
  let sw2 = Dataplane.Network.switch (Zen.network net) 2 in
  Alcotest.(check int) "switch 2 never received rules" 0
    (Flow.Table.size sw2.table);
  let marks () =
    (Flow.Table.generation sw2.table, Flow.Table.invalidations sw2.table)
  in
  let before = marks () in
  let acked () =
    (Controller.Runtime.resilience_stats rt).acked_batches
  in
  let acked_before = acked () in
  ignore (Zen.run ~until:(Zen.now net +. 0.3) net);
  Alcotest.(check int) "transition drained" 1
    (Controller.Update.updates_done updater);
  Alcotest.(check bool) "version 1 gone from switch 1" false
    (List.exists
       (fun (r : Flow.Table.rule) -> r.cookie = 1)
       (Flow.Table.rules sw1.table));
  Alcotest.(check int) "the drain sent one batch" (acked_before + 1) (acked ());
  Alcotest.(check bool) "untouched switch's flow cache stays warm" true
    (marks () = before)

let suites =
  [ ( "controller.update",
      [ Alcotest.test_case "versioned install forwards" `Quick
          test_versioned_install_forwards;
        Alcotest.test_case "version tag popped at egress" `Quick
          test_versioned_pops_tag;
        Alcotest.test_case "two-phase: zero loss" `Quick test_two_phase_no_loss;
        Alcotest.test_case "occupancy peak and GC" `Quick
          test_two_phase_table_occupancy;
        Alcotest.test_case "vlan policies rejected" `Quick
          test_vlan_policy_rejected;
        Alcotest.test_case "two-phase bands on fat-tree k=4" `Quick
          test_two_phase_bands;
        Alcotest.test_case "band overflow rejected" `Quick
          test_band_overflow_rejected ] );
    ( "controller.incremental",
      [ Alcotest.test_case "delta equals full result" `Quick
          test_incremental_routing_equivalent;
        Alcotest.test_case "restore churn bounded" `Quick
          test_incremental_noop_on_no_change;
        Alcotest.test_case "no-op reinstall leaves caches warm" `Quick
          test_incremental_reinstall_noop;
        Alcotest.test_case "edit touches only changed switches" `Quick
          test_incremental_edit_targets_one_switch;
        Alcotest.test_case "delete_version skips unpushed switches" `Quick
          test_delete_version_skips_untouched ] ) ]
