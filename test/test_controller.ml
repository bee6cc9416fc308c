(* Integration tests for the controller runtime and the app suite: the
   control channel speaks the wire protocol end to end over the
   simulated network. *)

open Dataplane

let ping_pair net ~src ~dst =
  Traffic.install_responders net;
  let result = Traffic.ping net ~src ~dst ~count:3 ~interval:0.02 in
  ignore (Network.run ~until:(Network.now net +. 2.0) net ());
  (List.length !(result.rtts), result.lost ())

(* ------------------------------------------------------------------ *)
(* Runtime *)

let test_handshake () =
  let topo = Topo.Gen.linear ~switches:3 ~hosts_per_switch:1 () in
  let net = Network.create topo in
  let ups = ref [] in
  let app =
    { Controller.Api.default_app with
      switch_up =
        (fun _ ~switch_id ~ports -> ups := (switch_id, List.length ports) :: !ups) }
  in
  let rt = Controller.Runtime.create_and_handshake net [ app ] in
  Alcotest.(check int) "all switches up" 3 (Controller.Runtime.ready_switches rt);
  Alcotest.(check int) "callbacks" 3 (List.length !ups);
  (* middle switch has 3 ports (two neighbors + host) *)
  Alcotest.(check bool) "port lists" true (List.mem (2, 3) !ups)

let test_packet_in_dispatch () =
  let topo = Topo.Gen.linear ~switches:1 ~hosts_per_switch:2 () in
  let net = Network.create topo in
  let seen = ref [] in
  let app =
    { Controller.Api.default_app with
      packet_in =
        (fun _ ~switch_id ~port ~reason:_ payload ->
          seen := (switch_id, port, payload.headers.tp_dst) :: !seen) }
  in
  let _rt = Controller.Runtime.create_and_handshake net [ app ] in
  Network.send_from net ~host:1 (Network.make_pkt ~tp_dst:8080 ~src:1 ~dst:2 ());
  ignore (Network.run ~until:(Network.now net +. 0.1) net ());
  Alcotest.(check (list (triple int int int))) "packet-in" [ (1, 1, 8080) ] !seen

let test_install_via_wire () =
  let topo = Topo.Gen.linear ~switches:1 ~hosts_per_switch:2 () in
  let net = Network.create topo in
  let app =
    { Controller.Api.default_app with
      switch_up =
        (fun ctx ~switch_id ~ports:_ ->
          Controller.Api.install ctx ~switch_id ~priority:5 Flow.Pattern.any
            (Flow.Action.forward 2)) }
  in
  let _rt = Controller.Runtime.create_and_handshake net [ app ] in
  Alcotest.(check int) "rule landed" 1
    (Flow.Table.size (Network.switch net 1).table);
  Network.send_from net ~host:1 (Network.make_pkt ~src:1 ~dst:2 ());
  ignore (Network.run ~until:(Network.now net +. 0.1) net ());
  Alcotest.(check int) "forwards" 1 (Network.host net 2).received

let test_packet_out_and_stats () =
  let topo = Topo.Gen.linear ~switches:1 ~hosts_per_switch:2 () in
  let net = Network.create topo in
  let table_stats = ref None in
  let app =
    { Controller.Api.default_app with
      packet_in =
        (fun ctx ~switch_id ~port ~reason:_ payload ->
          (* bounce the packet out port 2 and poll table stats *)
          Controller.Api.packet_out ctx ~switch_id ~in_port:port
            [ Flow.Action.Output (Physical 2) ] payload;
          Controller.Api.request_stats ctx ~switch_id
            Openflow.Message.Table_stats_request (fun reply ->
              match reply with
              | Openflow.Message.Table_stats_reply ts -> table_stats := Some ts
              | _ -> ())) }
  in
  let _rt = Controller.Runtime.create_and_handshake net [ app ] in
  Network.send_from net ~host:1 (Network.make_pkt ~src:1 ~dst:2 ());
  ignore (Network.run ~until:(Network.now net +. 0.1) net ());
  Alcotest.(check int) "packet-out delivered" 1 (Network.host net 2).received;
  match !table_stats with
  | Some ts ->
    Alcotest.(check int) "misses counted" 1 ts.table_misses;
    Alcotest.(check int) "no rules" 0 ts.active_rules
  | None -> Alcotest.fail "no stats reply"

let test_control_channel_counted () =
  let topo = Topo.Gen.linear ~switches:2 ~hosts_per_switch:0 () in
  let net = Network.create topo in
  let _rt = Controller.Runtime.create_and_handshake net [] in
  (* hello + features_request down, features_reply up, per switch >= 6 *)
  Alcotest.(check bool) "control messages counted" true
    ((Network.stats net).control_msgs >= 6);
  Alcotest.(check bool) "control bytes counted" true
    ((Network.stats net).control_bytes > 0)

(* A controller attached with no resilience record of its own still
   runs keepalives and resyncs: a crashed and restarted switch gets its
   intended table back. *)
let test_default_runtime_resyncs () =
  let net = Zen.create (Topo.Gen.linear ~switches:3 ~hosts_per_switch:1 ()) in
  let routing = Controller.Routing.create () in
  let rt = Zen.with_controller net [ Controller.Routing.app routing ] in
  let network = Zen.network net in
  let size () = Flow.Table.size (Network.switch network 2).table in
  let before = size () in
  Alcotest.(check bool) "rules installed" true (before > 0);
  Network.crash_switch network 2;
  ignore (Zen.run ~until:(Zen.now net +. 0.1) net);
  Network.restart_switch network 2;
  ignore (Zen.run ~until:(Zen.now net +. 1.0) net);
  Alcotest.(check (list int)) "no divergence" []
    (Controller.Runtime.diverged rt);
  Alcotest.(check int) "s2 rules restored" before (size ())

(* A restart whose Hello never reaches the controller: the switch is
   back before a keepalive misses, so the runtime still believes it up
   and its next batch meets a closed stream.  The switch answers that
   batch with a Hello, and the re-handshake's resync restores it. *)
let test_missed_restart_announcement () =
  let net =
    Network.create (Topo.Gen.linear ~switches:3 ~hosts_per_switch:1 ())
  in
  let rt =
    Controller.Runtime.create_and_handshake net
      [ Controller.Routing.app (Controller.Routing.create ()) ]
  in
  let handler = Controller.Runtime.handler rt in
  let lost = ref false in
  Network.adopt (Network.ctl_channel net 2) (fun ~switch_id data ->
    if
      (not !lost)
      && List.exists
           (fun (_, m) -> m = Openflow.Message.Hello)
           (Openflow.Wire.decode_all data)
    then lost := true
    else handler ~switch_id data);
  let size () = Flow.Table.size (Network.switch net 2).table in
  let before = size () in
  Network.crash_switch net 2;
  Network.restart_switch net 2;
  ignore (Network.run ~until:(Network.now net +. 0.01) net ());
  Alcotest.(check bool) "the restart Hello was lost" true !lost;
  Controller.Api.install (Controller.Runtime.ctx rt) ~switch_id:2
    ~priority:7 Flow.Pattern.any [];
  ignore (Network.run ~until:(Network.now net +. 0.1) net ());
  Alcotest.(check (list int)) "no divergence" []
    (Controller.Runtime.diverged rt);
  Alcotest.(check int) "s2 rules restored, plus the new one" (before + 1)
    (size ())

(* ------------------------------------------------------------------ *)
(* Learning switch *)

let test_learning_connectivity () =
  let topo = Topo.Gen.linear ~switches:3 ~hosts_per_switch:1 () in
  let net = Network.create topo in
  let learning = Controller.Learning.create () in
  let _rt =
    Controller.Runtime.create_and_handshake net [ Controller.Learning.app learning ]
  in
  let got, lost = ping_pair net ~src:1 ~dst:3 in
  Alcotest.(check int) "all pings answered" 3 got;
  Alcotest.(check int) "none lost" 0 lost;
  Alcotest.(check bool) "learned locations" true
    (Controller.Learning.lookup learning ~switch_id:2 (Packet.Mac.of_host_id 1)
     <> None)

let test_learning_uses_rules_when_warm () =
  let topo = Topo.Gen.linear ~switches:2 ~hosts_per_switch:1 () in
  let net = Network.create topo in
  let learning = Controller.Learning.create () in
  let _rt =
    Controller.Runtime.create_and_handshake net [ Controller.Learning.app learning ]
  in
  ignore (ping_pair net ~src:1 ~dst:2);
  let sw1 = Network.switch net 1 in
  let before = sw1.packet_ins in
  (* warm path: more traffic must not generate packet-ins *)
  Network.send_from net ~host:1 (Network.make_pkt ~src:1 ~dst:2 ());
  ignore (Network.run ~until:(Network.now net +. 1.0) net ());
  Alcotest.(check int) "no new packet-ins" before sw1.packet_ins;
  Alcotest.(check bool) "rules installed" true (Flow.Table.size sw1.table > 0)

let test_learning_no_storm_in_ring () =
  (* loops in the topology must not melt down thanks to spanning-tree
     flood ports *)
  let topo = Topo.Gen.ring ~switches:4 ~hosts_per_switch:1 () in
  let net = Network.create topo in
  let learning = Controller.Learning.create () in
  let _rt =
    Controller.Runtime.create_and_handshake net [ Controller.Learning.app learning ]
  in
  Network.send_from net ~host:1
    (Network.make_pkt ~src:1 ~dst:3 ());
  let events = Network.run ~until:(Network.now net +. 1.0) ~max_events:50_000 net () in
  Alcotest.(check bool) "bounded event count (no storm)" true (events < 10_000)

(* The reactive path rides the reliable stream, and a window of batches
   in flight costs it nothing over a channel with no acks at all: the
   rules a switch learns in one burst go out at once, not a round trip
   apart.  And an install goes out once per (switch, destination): the
   packet-ins that arrive while it is in flight reuse it.  zenctl
   simulate ring:6 --mode learning, seed 1, learns 20 such pairs.
   Re-sending an install per packet-in read 47 installs and 919
   packet-ins on this run; one batch in flight per switch read 56 and
   928. *)
let test_learning_installs_once_per_burst () =
  let topo = Topo.Gen.ring ~switches:6 () in
  let net = Network.create topo in
  let learning = Controller.Learning.create () in
  let _rt =
    Controller.Runtime.create_and_handshake net
      [ Controller.Learning.app learning ]
  in
  ignore
    (Traffic.random_pairs net ~prng:(Util.Prng.create 1) ~flows:10
       ~rate_pps:100.0 ~pkt_size:1000 ~stop:1.0);
  ignore (Network.run ~until:2.0 net ());
  let installs = Controller.Learning.installs learning in
  let packet_ins =
    List.fold_left
      (fun acc (sw : Network.switch) -> acc + sw.packet_ins)
      0 (Network.switch_list net)
  in
  Alcotest.(check int) "one install per learned pair" 20 installs;
  Alcotest.(check bool)
    (Printf.sprintf "%d packet-ins <= 919" packet_ins)
    true (packet_ins <= 919)

(* ------------------------------------------------------------------ *)
(* Proactive routing + failover *)

let test_routing_proactive_no_packet_ins () =
  let topo, _ = Topo.Gen.fat_tree ~k:2 () in
  let net = Network.create topo in
  let routing = Controller.Routing.create () in
  let _rt =
    Controller.Runtime.create_and_handshake net [ Controller.Routing.app routing ]
  in
  let got, _ = ping_pair net ~src:1 ~dst:2 in
  Alcotest.(check int) "pings ok" 3 got;
  let total_packet_ins =
    List.fold_left (fun acc (sw : Network.switch) -> acc + sw.packet_ins) 0
      (Network.switch_list net)
  in
  Alcotest.(check int) "zero packet-ins" 0 total_packet_ins

let test_routing_failover () =
  (* ring gives an alternate path; kill the primary and ping again *)
  let topo = Topo.Gen.ring ~switches:4 ~hosts_per_switch:1 () in
  let net = Network.create topo in
  let routing = Controller.Routing.create () in
  let _rt =
    Controller.Runtime.create_and_handshake net [ Controller.Routing.app routing ]
  in
  let got1, _ = ping_pair net ~src:1 ~dst:2 in
  Alcotest.(check int) "before failure" 3 got1;
  let reinstalls_before = Controller.Routing.reinstalls routing in
  (* s1 port 1 is the s1-s2 link *)
  Network.fail_link net (Topo.Topology.Node.Switch 1) 1;
  ignore (Network.run ~until:(Network.now net +. 1.0) net ());
  Alcotest.(check int) "recomputed once" (reinstalls_before + 1)
    (Controller.Routing.reinstalls routing);
  let got2, lost2 = ping_pair net ~src:1 ~dst:2 in
  Alcotest.(check int) "after failure" 3 got2;
  Alcotest.(check int) "no loss after reroute" 0 lost2

let test_routing_churn_counted () =
  let topo = Topo.Gen.ring ~switches:4 ~hosts_per_switch:1 () in
  let net = Network.create topo in
  let routing = Controller.Routing.create () in
  let _rt =
    Controller.Runtime.create_and_handshake net [ Controller.Routing.app routing ]
  in
  let initial = Controller.Routing.last_churn routing in
  Alcotest.(check bool) "initial rules pushed" true (initial > 0);
  Network.fail_link net (Topo.Topology.Node.Switch 1) 1;
  ignore (Network.run ~until:(Network.now net +. 1.0) net ());
  Alcotest.(check bool) "failover churn counted" true
    (Controller.Routing.last_churn routing > 0)

(* Two distinct links failing at the same simulated instant must yield
   tables computed over the final topology (both links gone), not a
   stale graph that still contains the second link.  Routing coalesces
   an instant's reports into one recompute that runs after the
   instant's remaining events; recomputing at the instant's first report
   (the old debounce, which compared event times) computed over the
   graph as it stood then.  The test wraps switch 1's adopted handler:
   it delivers s1's port-status for the s1-s2 failure, then fails s3-s4
   inside that same delivery.  Half a control latency later, before the
   second failure's own reports land, the rules the runtime has sent
   must already reflect both failures. *)
let test_routing_same_instant_failures () =
  let keys rules =
    List.sort compare
      (List.map
         (fun (r : Flow.Table.rule) -> (r.priority, r.pattern, r.actions))
         rules)
  in
  let start () =
    let topo = Topo.Gen.ring ~switches:5 ~hosts_per_switch:1 () in
    let net = Network.create topo in
    let routing = Controller.Routing.create () in
    let rt =
      Controller.Runtime.create net [ Controller.Routing.app routing ]
    in
    ignore (Network.run ~until:0.2 net ());
    (net, routing, rt)
  in
  let tables net =
    List.map
      (fun (sw : Network.switch) -> (sw.sw_id, keys (Flow.Table.rules sw.table)))
      (Network.switch_list net)
  in
  (* reference: the same two failures, well separated in time *)
  let reference =
    let net, _, _ = start () in
    Network.fail_link net (Topo.Topology.Node.Switch 1) 1;
    ignore (Network.run ~until:(Network.now net +. 0.5) net ());
    Network.fail_link net (Topo.Topology.Node.Switch 3) 2;
    ignore (Network.run ~until:(Network.now net +. 1.0) net ());
    tables net
  in
  let net, routing, rt = start () in
  let handler = Controller.Runtime.handler rt in
  let second_failed = ref false in
  Network.adopt (Network.ctl_channel net 1) (fun ~switch_id data ->
    handler ~switch_id data;
    let port_status =
      List.exists
        (fun (_, (m : Openflow.Message.t)) ->
          match m with Port_status _ -> true | _ -> false)
        (Openflow.Wire.decode_all data)
    in
    if port_status && not !second_failed then begin
      second_failed := true;
      Network.fail_link net (Topo.Topology.Node.Switch 3) 2
    end);
  Network.fail_link net (Topo.Topology.Node.Switch 1) 1;
  ignore
    (Network.run ~until:(Network.now net +. (1.5 *. Ctl_channel.latency)) net ());
  Alcotest.(check bool) "s3-s4 failed inside s1's port-status delivery" true
    !second_failed;
  let sent =
    List.map
      (fun (sw : Network.switch) ->
        ( sw.sw_id,
          keys (Controller.Runtime.intended_rules rt ~switch_id:sw.sw_id) ))
      (Network.switch_list net)
  in
  Alcotest.(check bool) "the instant's recompute saw both failures" true
    (sent = reference);
  ignore (Network.run ~until:(Network.now net +. 1.0) net ());
  Alcotest.(check bool) "recomputed at least once" true
    (Controller.Routing.reinstalls routing >= 2);
  List.iter2
    (fun (sw_a, rules_a) (sw_b, rules_b) ->
      Alcotest.(check int) "same switch" sw_a sw_b;
      Alcotest.(check bool)
        (Printf.sprintf "s%d tables reflect both failures" sw_a)
        true (rules_a = rules_b))
    reference (tables net)

(* After a crash, the keepalive verdict marks the switch dead and
   routing recomputes around it; the re-handshake clears the dead mark
   and a fresh recompute restores the crashed switch's rules. *)
let test_routing_repush_on_rehandshake () =
  let resilience =
    { Controller.Runtime.default_resilience with
      echo_period = 0.05; retx_timeout = 0.01 }
  in
  let topo = Topo.Gen.linear ~switches:3 ~hosts_per_switch:1 () in
  let net = Network.create topo in
  let routing = Controller.Routing.create () in
  let _rt =
    Controller.Runtime.create_and_handshake ~resilience net
      [ Controller.Routing.app routing ]
  in
  let before = Flow.Table.size (Network.switch net 2).table in
  Alcotest.(check bool) "rules installed" true (before > 0);
  Alcotest.(check int) "no reroute yet" 0 (Controller.Routing.reroutes routing);
  Network.crash_switch net 2;
  ignore (Network.run ~until:(Network.now net +. 0.5) net ());
  Alcotest.(check (list int)) "crashed switch marked dead" [ 2 ]
    (Controller.Routing.dead_switches routing);
  Alcotest.(check int) "one reroute" 1 (Controller.Routing.reroutes routing);
  Network.restart_switch net 2;
  ignore (Network.run ~until:(Network.now net +. 1.0) net ());
  Alcotest.(check (list int)) "dead mark cleared on re-handshake" []
    (Controller.Routing.dead_switches routing);
  Alcotest.(check int) "rules restored" before
    (Flow.Table.size (Network.switch net 2).table);
  let got, _ = ping_pair net ~src:1 ~dst:3 in
  Alcotest.(check int) "connectivity through the restarted switch" 3 got

(* ------------------------------------------------------------------ *)
(* Load balancer *)

let test_lb_spreads_and_rewrites () =
  (* hosts 1..4 on one switch; host 1 is the client, 2..4 the backends *)
  let topo = Topo.Gen.linear ~switches:1 ~hosts_per_switch:4 () in
  let net = Network.create topo in
  let vip = Packet.Ipv4.of_string "10.99.0.1" in
  let lb = Controller.Lb.create ~vip ~backends:[ 2; 3; 4 ] () in
  let routing = Controller.Routing.create ~use_ip:true () in
  let _rt =
    Controller.Runtime.create_and_handshake net
      [ Controller.Lb.app lb; Controller.Routing.app routing ]
  in
  (* 30 flows from distinct source ports toward the VIP *)
  for i = 1 to 30 do
    let pkt = Network.make_pkt ~tp_src:(20000 + i) ~src:1 ~dst:1 () in
    let pkt =
      { pkt with hdr = { pkt.hdr with ip4_dst = vip; eth_dst = 0xffffffffff } }
    in
    Network.send_from net ~host:1 pkt
  done;
  ignore (Network.run ~until:(Network.now net +. 2.0) net ());
  Alcotest.(check int) "all flows balanced" 30 (Controller.Lb.flows lb);
  let dist = Controller.Lb.distribution lb in
  Alcotest.(check int) "three backends" 3 (List.length dist);
  List.iter
    (fun (b, n) ->
      Alcotest.(check bool)
        (Printf.sprintf "backend %d got some (n=%d)" b n)
        true (n > 0))
    dist;
  (* backends actually received the traffic *)
  let total_rx =
    List.fold_left (fun acc h -> acc + (Network.host net h).received) 0 [ 2; 3; 4 ]
  in
  Alcotest.(check int) "backends received" 30 total_rx

let test_lb_flow_affinity () =
  (* the same 5-tuple always lands on the same backend *)
  let topo = Topo.Gen.linear ~switches:1 ~hosts_per_switch:3 () in
  let vip = Packet.Ipv4.of_string "10.99.0.1" in
  let lb = Controller.Lb.create ~vip ~backends:[ 2; 3 ] () in
  let net = Network.create topo in
  let _rt =
    Controller.Runtime.create_and_handshake net [ Controller.Lb.app lb ]
  in
  let send () =
    let pkt = Network.make_pkt ~tp_src:12345 ~src:1 ~dst:1 () in
    Network.send_from net ~host:1
      { pkt with hdr = { pkt.hdr with ip4_dst = vip } }
  in
  send ();
  ignore (Network.run ~until:(Network.now net +. 1.0) net ());
  let first_rx = ((Network.host net 2).received, (Network.host net 3).received) in
  send ();
  send ();
  ignore (Network.run ~until:(Network.now net +. 1.0) net ());
  let second_rx = ((Network.host net 2).received, (Network.host net 3).received) in
  (* all packets went to whichever backend got the first one *)
  let d2 = fst second_rx - fst first_rx and d3 = snd second_rx - snd first_rx in
  Alcotest.(check bool) "affinity" true
    ((d2 = 2 && d3 = 0 && fst first_rx = 1 && snd first_rx = 0)
     || (d3 = 2 && d2 = 0 && snd first_rx = 1 && fst first_rx = 0))

(* ------------------------------------------------------------------ *)
(* Monitor *)

let test_monitor_observes_traffic () =
  let topo = Topo.Gen.linear ~switches:1 ~hosts_per_switch:2 () in
  let net = Network.create topo in
  let monitor = Controller.Monitor.create ~period:0.1 () in
  let routing = Controller.Routing.create () in
  let _rt =
    Controller.Runtime.create_and_handshake net
      [ Controller.Routing.app routing; Controller.Monitor.app monitor ]
  in
  ignore
    (Traffic.cbr net
       { (Traffic.default_flow ~src:1 ~dst:2) with
         rate_pps = 1000.0; pkt_size = 1000; stop = 1.0 });
  ignore (Network.run ~until:(Network.now net +. 1.5) net ());
  Alcotest.(check bool) "polled" true (Controller.Monitor.polls monitor > 5);
  (* 1000 pps * 1000 B = 8 Mb/s on a 1 Gb/s link toward h2 (port 2) *)
  let u = Controller.Monitor.utilization monitor net ~switch_id:1 ~port:2 in
  Alcotest.(check bool)
    (Printf.sprintf "utilization plausible (%f)" u)
    true
    (u > 0.004 && u < 0.02)

(* ------------------------------------------------------------------ *)
(* A resilience record that cannot move simulated time forward (a zero
   echo period kept the keepalive loop at one instant forever) is
   rejected up front, naming the field *)

let rejects field bad () =
  let topo = Topo.Gen.ring ~switches:4 ~hosts_per_switch:1 () in
  List.iter
    (fun edit ->
      let resilience = edit Controller.Runtime.default_resilience in
      match Controller.Runtime.create ~resilience (Network.create topo) [] with
      | _ -> Alcotest.failf "bad %s accepted" field
      | exception Invalid_argument msg ->
        Alcotest.(check string) "message"
          ("Runtime.create: resilience." ^ field) msg)
    bad

let resilience_cases =
  let open Controller.Runtime in
  [ ( "echo_period",
      [ (fun r -> { r with echo_period = 0.0 });
        (fun r -> { r with echo_period = -1.0 });
        (fun r -> { r with echo_period = nan });
        (fun r -> { r with echo_period = infinity }) ] );
    ( "echo_miss_limit",
      [ (fun r -> { r with echo_miss_limit = 0 });
        (fun r -> { r with echo_miss_limit = -3 }) ] );
    ( "retx_timeout",
      [ (fun r -> { r with retx_timeout = 0.0 });
        (fun r -> { r with retx_timeout = nan });
        (fun r -> { r with retx_timeout = infinity }) ] );
    ( "retx_backoff",
      [ (fun r -> { r with retx_backoff = 0.5 });
        (fun r -> { r with retx_backoff = nan });
        (fun r -> { r with retx_backoff = infinity }) ] );
    ( "retx_cap",
      [ (fun r -> { r with retx_cap = r.retx_timeout /. 2.0 });
        (fun r -> { r with retx_cap = nan });
        (fun r -> { r with retx_cap = infinity }) ] ) ]

(* ------------------------------------------------------------------ *)
(* Adaptive retransmission timer *)

(* A default-resilience runtime on fat-tree k=4 with [fault] on its
   control channel: the routing install, then 150 guard edits
   [Seq (guard_i, base)] on one edge switch, each settled before the
   next.  Every edit is one reliable batch to that switch, so its
   session takes enough RTT samples for 4 RTTVAR to decay below the
   float noise of a constant RTT: only the clock-granularity floor then
   keeps the timeout above the RTT.  Returns (retransmits, acked
   batches). *)
let guard_edit_retransmits ?fault () =
  let topo, info = Topo.Gen.fat_tree ~k:4 () in
  let net = Network.create ?fault topo in
  let rt =
    Controller.Runtime.create_and_handshake
      ~resilience:Controller.Runtime.default_resilience net []
  in
  let ctx = Controller.Runtime.ctx rt in
  let upd = Controller.Update.create () in
  let install pol =
    Controller.Update.install_plain upd ctx pol;
    Alcotest.(check (list int)) "converged" [] (Controller.Runtime.settle rt)
  in
  let base = Netkat.Builder.routing_policy topo in
  install base;
  let sw = List.hd info.edge in
  let mac = Packet.Mac.of_host_id (List.hd (Topo.Topology.host_ids topo)) in
  for i = 1 to 150 do
    install (Scenarios.apply_edit base (sw, mac, 1024 + i))
  done;
  (* let the last barrier replies land *)
  ignore (Network.run ~until:(Network.now net +. 0.1) net ());
  Controller.Runtime.shutdown rt;
  let s = Controller.Runtime.resilience_stats rt in
  (s.retransmits, s.acked_batches)

(* the 2 ms control RTT is constant on a clean channel *)
let test_clean_channel_never_retransmits () =
  let retransmits, acked = guard_edit_retransmits () in
  Alcotest.(check int) "every batch acked" 170 acked;
  Alcotest.(check int) "retransmits" 0 retransmits

(* Drop 0.05 each way loses 1 - 0.95^2 of the batch round trips, which
   costs 0.108 retransmits per acked batch; the 1 ms jitter adds a few
   early timeouts (0.14 measured).  The bound leaves room for those and
   fails a timer that tracks the RTT too tightly: SRTT + RTTVAR reads
   0.62. *)
let test_lossy_retransmits_bounded () =
  let fault = Fault.create ~seed:1 ~drop:0.05 ~dup:0.05 ~jitter:1e-3 () in
  let retransmits, acked = guard_edit_retransmits ~fault () in
  Alcotest.(check bool) "loss recovered by retransmission" true
    (retransmits > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d retransmits per %d acked batches <= 0.2" retransmits
       acked)
    true
    (float_of_int retransmits <= 0.2 *. float_of_int acked)

(* A switch's batches go out a window at a time: 40 one-rule batches
   per switch, sent at switch_up, are installed within the handshake's
   10 control RTTs.  One batch in flight per switch installed 9. *)
let test_switch_up_batches_land_in_handshake () =
  let topo = Topo.Gen.linear ~switches:3 ~hosts_per_switch:1 () in
  let net = Network.create topo in
  let app =
    { Controller.Api.default_app with
      switch_up =
        (fun ctx ~switch_id ~ports:_ ->
          for i = 1 to 40 do
            Controller.Api.send_flow_mods ctx ~switch_id
              [ Openflow.Message.add_flow ~priority:i
                  ~pattern:{ Flow.Pattern.any with tp_dst = Some i }
                  ~actions:[] () ]
          done) }
  in
  let rt = Controller.Runtime.create_and_handshake net [ app ] in
  List.iter
    (fun (sw : Network.switch) ->
      Alcotest.(check int)
        (Printf.sprintf "s%d holds all 40 rules" sw.sw_id)
        40
        (Flow.Table.size sw.table))
    (Network.switch_list net);
  Alcotest.(check int) "no retransmits" 0
    (Controller.Runtime.resilience_stats rt).retransmits

let suites =
  [ ( "controller.runtime",
      [ Alcotest.test_case "handshake" `Quick test_handshake;
        Alcotest.test_case "packet-in dispatch" `Quick test_packet_in_dispatch;
        Alcotest.test_case "install via wire" `Quick test_install_via_wire;
        Alcotest.test_case "packet-out and stats" `Quick
          test_packet_out_and_stats;
        Alcotest.test_case "control channel counted" `Quick
          test_control_channel_counted;
        Alcotest.test_case "default runtime resyncs a restart" `Quick
          test_default_runtime_resyncs;
        Alcotest.test_case "a missed restart announcement is recovered" `Quick
          test_missed_restart_announcement;
        Alcotest.test_case "clean channel never retransmits" `Quick
          test_clean_channel_never_retransmits;
        Alcotest.test_case "retransmits bounded under loss" `Quick
          test_lossy_retransmits_bounded;
        Alcotest.test_case "switch_up batches land in the handshake" `Quick
          test_switch_up_batches_land_in_handshake ]
      @ List.map
          (fun (field, bad) ->
            Alcotest.test_case ("bad " ^ field ^ " rejected") `Quick
              (rejects field bad))
          resilience_cases );
    ( "controller.learning",
      [ Alcotest.test_case "connectivity" `Quick test_learning_connectivity;
        Alcotest.test_case "warm path uses rules" `Quick
          test_learning_uses_rules_when_warm;
        Alcotest.test_case "no broadcast storm in ring" `Quick
          test_learning_no_storm_in_ring;
        Alcotest.test_case "windowed stream adds no installs" `Quick
          test_learning_installs_once_per_burst ] );
    ( "controller.routing",
      [ Alcotest.test_case "proactive, zero packet-ins" `Quick
          test_routing_proactive_no_packet_ins;
        Alcotest.test_case "failover" `Quick test_routing_failover;
        Alcotest.test_case "churn counted" `Quick test_routing_churn_counted;
        Alcotest.test_case "same-instant failures coalesce" `Quick
          test_routing_same_instant_failures;
        Alcotest.test_case "repush on re-handshake" `Quick
          test_routing_repush_on_rehandshake ] );
    ( "controller.lb",
      [ Alcotest.test_case "spreads and rewrites" `Quick
          test_lb_spreads_and_rewrites;
        Alcotest.test_case "flow affinity" `Quick test_lb_flow_affinity ] );
    ( "controller.monitor",
      [ Alcotest.test_case "observes traffic" `Quick
          test_monitor_observes_traffic ] ) ]
