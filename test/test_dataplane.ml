(* Tests for the discrete-event engine and the simulated network. *)

open Dataplane

(* ------------------------------------------------------------------ *)
(* Sim engine *)

let test_sim_order () =
  let s = Sim.create () in
  let log = ref [] in
  Sim.schedule s ~delay:0.3 (fun () -> log := 3 :: !log);
  Sim.schedule s ~delay:0.1 (fun () -> log := 1 :: !log);
  Sim.schedule s ~delay:0.2 (fun () -> log := 2 :: !log);
  ignore (Sim.run s);
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 0.3 (Sim.now s)

let test_sim_ties_fifo () =
  let s = Sim.create () in
  let log = ref [] in
  List.iter
    (fun i -> Sim.schedule s ~delay:1.0 (fun () -> log := i :: !log))
    [ 1; 2; 3 ];
  ignore (Sim.run s);
  Alcotest.(check (list int)) "fifo ties" [ 1; 2; 3 ] (List.rev !log)

let test_sim_until () =
  let s = Sim.create () in
  let fired = ref 0 in
  Sim.schedule s ~delay:1.0 (fun () -> incr fired);
  Sim.schedule s ~delay:2.0 (fun () -> incr fired);
  ignore (Sim.run ~until:1.5 s);
  Alcotest.(check int) "only first" 1 !fired;
  Alcotest.(check (float 1e-9)) "clock clamped" 1.5 (Sim.now s);
  Alcotest.(check int) "second still queued" 1 (Sim.pending s);
  ignore (Sim.run s);
  Alcotest.(check int) "resumable" 2 !fired

let test_sim_nested_scheduling () =
  let s = Sim.create () in
  let times = ref [] in
  Sim.schedule s ~delay:1.0 (fun () ->
    times := Sim.now s :: !times;
    Sim.schedule s ~delay:0.5 (fun () -> times := Sim.now s :: !times));
  ignore (Sim.run s);
  Alcotest.(check (list (float 1e-9))) "nested" [ 1.0; 1.5 ] (List.rev !times)

let test_sim_negative_delay_rejected () =
  let s = Sim.create () in
  Alcotest.(check bool) "rejected" true
    (match Sim.schedule s ~delay:(-1.0) (fun () -> ()) with
     | exception Invalid_argument _ -> true
     | () -> false)

(* A time that is never reached must not enter the queue: an infinite
   or NaN event would either never run or, once filed, jump the whole
   schedule. *)
let test_sim_nonfinite_rejected () =
  let rejected f =
    match f () with exception Invalid_argument _ -> true | () -> false
  in
  let s = Sim.create () in
  List.iter
    (fun (name, f) -> Alcotest.(check bool) name true (rejected f))
    [ ("delay infinity", fun () -> Sim.schedule s ~delay:infinity ignore);
      ("delay NaN", fun () -> Sim.schedule s ~delay:Float.nan ignore);
      ("time infinity", fun () -> Sim.schedule_at s ~time:infinity ignore);
      ("time NaN", fun () -> Sim.schedule_at s ~time:Float.nan ignore) ];
  Alcotest.(check int) "nothing queued" 0 (Sim.pending s)

(* a finite but huge time (beyond any tick the wheel can represent)
   waits behind every nearer event instead of freezing them *)
let test_sim_huge_time_waits () =
  let s = Sim.create () in
  let fired = ref [] in
  Sim.schedule s ~delay:1e300 (fun () -> fired := "far" :: !fired);
  Sim.schedule s ~delay:1.0 (fun () -> fired := "t1" :: !fired);
  Sim.schedule s ~delay:2.0 (fun () -> fired := "t2" :: !fired);
  Alcotest.(check int) "events due by t=3 run" 2 (Sim.run ~until:3.0 s);
  Alcotest.(check (list string)) "in time order" [ "t1"; "t2" ]
    (List.rev !fired);
  Alcotest.(check int) "far event still pending" 1 (Sim.pending s);
  Alcotest.(check int) "and runs last" 1 (Sim.run s);
  Alcotest.(check (float 0.0)) "clock at the far event" 1e300 (Sim.now s)

let test_sim_max_events () =
  let s = Sim.create () in
  let rec forever () = Sim.schedule s ~delay:1.0 forever in
  forever ();
  let executed = Sim.run ~max_events:10 s in
  Alcotest.(check int) "bounded" 10 executed

(* the wheel-backed Sim must execute exactly as a plain binary heap
   replaying the same schedule would — same handlers, same clock
   readings, ties in the same order — for a schedule mixing near
   events, exact duplicates, and nested rescheduling *)
let test_sim_matches_heap_replay () =
  let prng = Util.Prng.create 42 in
  let delays = List.init 150 (fun _ -> Util.Prng.float prng 0.03) in
  let play ~now ~schedule =
    let log = ref [] in
    List.iteri
      (fun i d ->
        schedule d (fun () ->
          log := (i, now ()) :: !log;
          if i mod 7 = 0 then
            schedule (d /. 3.0) (fun () -> log := (1000 + i, now ()) :: !log)))
      (delays @ delays) (* duplicates force key ties *);
    log
  in
  let sim_trace =
    let s = Sim.create () in
    let log =
      play ~now:(fun () -> Sim.now s)
        ~schedule:(fun delay f -> Sim.schedule s ~delay f)
    in
    ignore (Sim.run s);
    List.rev !log
  in
  let heap_trace =
    let h = Util.Heap.create () and clock = ref 0.0 in
    let log =
      play ~now:(fun () -> !clock)
        ~schedule:(fun delay f -> Util.Heap.push h (!clock +. delay) f)
    in
    let rec drain () =
      match Util.Heap.pop h with
      | exception Not_found -> ()
      | time, f ->
        clock := time;
        f ();
        drain ()
    in
    drain ();
    List.rev !log
  in
  Alcotest.(check int) "same event count" (List.length heap_trace)
    (List.length sim_trace);
  Alcotest.(check bool) "identical execution traces" true
    (sim_trace = heap_trace)

(* the event loop end to end: routed ring:16 under 32 long-lived flows
   must reproduce across runs and match the signature pinned when the
   timing wheel was last checked against the heap engine *)
let test_ring16_signature () =
  let run () =
    let net = Scenarios.routed_flows "ring:16" in
    let events = Zen.run net in
    let s = Network.stats (Zen.network net) in
    ( events, s.delivered, s.forwarded,
      (s.dropped_queue, s.dropped_ttl, s.dropped_policy) )
  in
  let a = run () in
  Alcotest.(check bool) "reproducible across 3 runs" true
    (a = run () && a = run ());
  let events, delivered, _, drops = a in
  Alcotest.(check (pair int int)) "events, delivered" (123000, 16000)
    (events, delivered);
  Alcotest.(check (triple int int int)) "no queue/TTL/policy drops"
    (0, 0, 0) drops

(* What one executed event allocates, on fat-tree k=4 with compiled
   routing and 100 fixed-port CBR flows over 50 ms (~33K events, every
   lookup after the first per destination and switch a flow-cache hit).
   A flow sends one immutable packet from one self-rescheduling event,
   and a link lands every packet with one reused closure and keeps its
   [busy_until] unboxed, so what a hop still allocates is the boxed
   arrival time it hands to [Sim.schedule_at] and, when the event is
   later than the one before it, the clock's new box (the rule's
   [last_hit] shares that box).  The packet and its headers are never
   copied on the way, and the timing wheel's push, pop, slot scan and
   drain, the flow table's located lookup and the single-output
   forwarding path add nothing.  Measured: 3.0 words per event (20.3
   with a closure per send and per hop, 31.3 with the location written
   into a copied packet, 47.1 with boxed wheel entries); the bound is
   1.5 times that. *)
let words_per_event_bound = 4.5

let test_alloc_budget () =
  let net = Scenarios.routed_flows ~flows:100 ~rate_pps:1000.0 ~stop:0.05
      "fattree:4" in
  let w0 = Gc.minor_words () in
  let events = Zen.run net in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "a real workload" true (events > 30_000);
  let per_event = words /. float_of_int events in
  if per_event > words_per_event_bound then
    Alcotest.failf "%.1f minor words per event (bound %.1f)" per_event
      words_per_event_bound

(* ------------------------------------------------------------------ *)
(* Network forwarding *)

let wildcard_forward net sw_id port =
  let sw = Network.switch net sw_id in
  Flow.Table.add sw.table
    (Flow.Table.make_rule ~pattern:Flow.Pattern.any
       ~actions:(Flow.Action.forward port) ())

let test_direct_delivery () =
  (* h1 - s1 - h2: static rule forwards everything to h2's port *)
  let topo = Topo.Gen.linear ~switches:1 ~hosts_per_switch:2 () in
  let net = Network.create topo in
  (* s1 ports: 1 -> h1, 2 -> h2 *)
  wildcard_forward net 1 2;
  let received = ref 0 in
  (Network.host net 2).on_receive <- Some (fun _ -> incr received);
  Network.send_from net ~host:1 (Network.make_pkt ~src:1 ~dst:2 ());
  ignore (Network.run net ());
  Alcotest.(check int) "delivered" 1 !received;
  Alcotest.(check int) "stats delivered" 1 (Network.stats net).delivered;
  Alcotest.(check int) "forwarded" 1 (Network.stats net).forwarded

let test_latency_model () =
  (* two hops of 10us propagation + serialization 1000B at 1Gb/s = 8us *)
  let topo = Topo.Gen.linear ~switches:2 ~hosts_per_switch:1 () in
  let net = Network.create topo in
  (* s1: port1->s2, port2->h1; s2: port1->s1, port2->h2 *)
  wildcard_forward net 1 1;
  wildcard_forward net 2 2;
  let arrival = ref 0.0 in
  (Network.host net 2).on_receive <- Some (fun _ -> arrival := Network.now net);
  Network.send_from net ~host:1 (Network.make_pkt ~size:1000 ~src:1 ~dst:2 ());
  ignore (Network.run net ());
  (* 3 links, each 8us ser + 10us prop *)
  Alcotest.(check (float 1e-9)) "latency" (3.0 *. (8e-6 +. 10e-6)) !arrival

let test_serialization_queueing () =
  (* two packets sent at the same instant share one link: the second is
     delayed by one serialization time *)
  let topo = Topo.Gen.linear ~switches:1 ~hosts_per_switch:2 () in
  let net = Network.create topo in
  wildcard_forward net 1 2;
  let arrivals = ref [] in
  (Network.host net 2).on_receive <-
    Some (fun _ -> arrivals := Network.now net :: !arrivals);
  Network.send_from net ~host:1 (Network.make_pkt ~size:1250 ~src:1 ~dst:2 ());
  Network.send_from net ~host:1 (Network.make_pkt ~size:1250 ~src:1 ~dst:2 ());
  ignore (Network.run net ());
  match List.rev !arrivals with
  | [ t1; t2 ] ->
    (* 1250B at 1Gb/s = 10us serialization *)
    Alcotest.(check (float 1e-9)) "spacing = serialization" 10e-6 (t2 -. t1)
  | _ -> Alcotest.fail "expected two arrivals"

let test_queue_overflow_drops () =
  let topo = Topo.Gen.linear ~switches:1 ~hosts_per_switch:2 () in
  let net = Network.create ~queue_depth:4 topo in
  wildcard_forward net 1 2;
  for _ = 1 to 10 do
    Network.send_from net ~host:1 (Network.make_pkt ~size:1000 ~src:1 ~dst:2 ())
  done;
  ignore (Network.run net ());
  (* host's own access link also queues: depth 4 forgives 4 in flight *)
  Alcotest.(check bool) "drops happened" true
    ((Network.stats net).dropped_queue > 0);
  Alcotest.(check int) "conservation" 10
    ((Network.stats net).delivered + (Network.stats net).dropped_queue)

let test_policy_drop () =
  let topo = Topo.Gen.linear ~switches:1 ~hosts_per_switch:2 () in
  let net = Network.create topo in
  let sw = Network.switch net 1 in
  Flow.Table.add sw.table
    (Flow.Table.make_rule ~pattern:Flow.Pattern.any ~actions:Flow.Action.drop ());
  Network.send_from net ~host:1 (Network.make_pkt ~src:1 ~dst:2 ());
  ignore (Network.run net ());
  Alcotest.(check int) "policy drop" 1 (Network.stats net).dropped_policy

let test_miss_without_controller () =
  let topo = Topo.Gen.linear ~switches:1 ~hosts_per_switch:2 () in
  let net = Network.create topo in
  Network.send_from net ~host:1 (Network.make_pkt ~src:1 ~dst:2 ());
  ignore (Network.run net ());
  Alcotest.(check int) "miss drop" 1 (Network.stats net).dropped_miss

let test_link_failure_drops () =
  let topo = Topo.Gen.linear ~switches:2 ~hosts_per_switch:1 () in
  let net = Network.create topo in
  wildcard_forward net 1 1;
  Network.fail_link net (Topo.Topology.Node.Switch 1) 1;
  Network.send_from net ~host:1 (Network.make_pkt ~src:1 ~dst:2 ());
  ignore (Network.run net ());
  Alcotest.(check int) "link drop" 1 (Network.stats net).dropped_link

let test_in_flight_lost_on_failure () =
  (* a packet on the wire when the link dies is lost — and accounted
     for as a link drop, not silently vanished; delivery resumes once
     the link is restored *)
  let topo = Topo.Gen.linear ~switches:2 ~hosts_per_switch:1 () in
  let net = Network.create topo in
  wildcard_forward net 1 1;
  wildcard_forward net 2 2;
  Network.send_from net ~host:1 (Network.make_pkt ~src:1 ~dst:2 ());
  (* the packet reaches the s1->s2 link around t=18us; kill it then *)
  Dataplane.Sim.schedule (Network.sim net) ~delay:20e-6 (fun () ->
    Network.fail_link net (Topo.Topology.Node.Switch 1) 1);
  ignore (Network.run net ());
  Alcotest.(check int) "nothing delivered" 0 (Network.stats net).delivered;
  Alcotest.(check int) "in-flight loss counted as link drop" 1
    (Network.stats net).dropped_link;
  (* nothing leaks through while the link stays down *)
  Network.send_from net ~host:1 (Network.make_pkt ~src:1 ~dst:2 ());
  ignore (Network.run net ());
  Alcotest.(check int) "still nothing delivered" 0 (Network.stats net).delivered;
  Alcotest.(check int) "second drop counted" 2 (Network.stats net).dropped_link;
  (* restore and retransmit: the path works again *)
  Network.restore_link net (Topo.Topology.Node.Switch 1) 1;
  Network.send_from net ~host:1 (Network.make_pkt ~src:1 ~dst:2 ());
  ignore (Network.run net ());
  Alcotest.(check int) "delivered after restore" 1 (Network.stats net).delivered;
  Alcotest.(check int) "no further drops" 2 (Network.stats net).dropped_link

let test_flood_respects_ingress () =
  let topo = Topo.Gen.star ~leaves:3 ~hosts_per_leaf:1 () in
  let net = Network.create topo in
  (* hub floods; leaves forward to their host *)
  let hub = Network.switch net 1 in
  Flow.Table.add hub.table
    (Flow.Table.make_rule ~pattern:Flow.Pattern.any ~actions:Flow.Action.flood ());
  List.iter (fun leaf -> wildcard_forward net leaf 2) [ 2; 3; 4 ];
  (* leaf ports: port1 -> hub, port2 -> host. Host sends through leaf 2;
     leaf 2 has a forward-to-host rule so the packet bounces... install
     a flood rule on the source leaf instead. *)
  Flow.Table.clear (Network.switch net 2).table;
  Flow.Table.add (Network.switch net 2).table
    (Flow.Table.make_rule ~pattern:Flow.Pattern.any ~actions:Flow.Action.flood ());
  Network.send_from net ~host:1 (Network.make_pkt ~src:1 ~dst:2 ());
  ignore (Network.run ~max_events:10000 net ());
  (* host 1 (ingress leaf) must NOT get a copy; hosts 2 and 3 must *)
  Alcotest.(check int) "h1 no echo" 0 (Network.host net 1).received;
  Alcotest.(check int) "h2 got it" 1 (Network.host net 2).received;
  Alcotest.(check int) "h3 got it" 1 (Network.host net 3).received

let test_header_rewrite_applied () =
  let topo = Topo.Gen.linear ~switches:1 ~hosts_per_switch:2 () in
  let net = Network.create topo in
  let sw = Network.switch net 1 in
  Flow.Table.add sw.table
    (Flow.Table.make_rule ~pattern:Flow.Pattern.any
       ~actions:[ [ Set_field (Packet.Fields.Vlan, 77); Output (Physical 2) ] ]
       ());
  let seen_vlan = ref (-1) in
  (Network.host net 2).on_receive <-
    Some (fun pkt -> seen_vlan := pkt.hdr.vlan);
  Network.send_from net ~host:1 (Network.make_pkt ~src:1 ~dst:2 ());
  ignore (Network.run net ());
  Alcotest.(check int) "rewritten" 77 !seen_vlan

let test_port_counters () =
  let topo = Topo.Gen.linear ~switches:1 ~hosts_per_switch:2 () in
  let net = Network.create topo in
  wildcard_forward net 1 2;
  for _ = 1 to 3 do
    Network.send_from net ~host:1 (Network.make_pkt ~size:500 ~src:1 ~dst:2 ())
  done;
  ignore (Network.run net ());
  let sw = Network.switch net 1 in
  let rx = Network.port_stat sw 1 and tx = Network.port_stat sw 2 in
  Alcotest.(check int) "rx pkts" 3 rx.rx_packets;
  Alcotest.(check int) "rx bytes" 1500 rx.rx_bytes;
  Alcotest.(check int) "tx pkts" 3 tx.tx_packets

(* A packet that fans out spends its hop budget once per branch.  On a
   ring:4, every switch floods (every port but the ingress) and also
   bounces a copy back out of the ingress, so each arrival with budget
   left sends three copies with one hop less: two to switches, one to a
   host.  From one packet sent with ttl 5, switch arrivals double per
   hop: 1 + 2 + 4 + 8 + 16 = 31 arrivals forward and deliver one copy
   each, and the 32 that arrive with no budget left are dropped.  A
   budget shared between branches (or spent per output) reads
   otherwise. *)
let test_fanout_spends_ttl_per_branch () =
  let topo = Topo.Gen.ring ~switches:4 () in
  let net = Network.create ~queue_depth:1000 topo in
  List.iter
    (fun sw ->
      Flow.Table.add (Network.switch net sw).table
        (Flow.Table.make_rule ~pattern:Flow.Pattern.any
           ~actions:[ [ Output Flood ]; [ Output In_port_out ] ] ()))
    [ 1; 2; 3; 4 ];
  Network.send_from net ~host:1 (Network.make_pkt ~ttl:5 ~src:1 ~dst:3 ());
  ignore (Network.run net ());
  let s = Network.stats net in
  Alcotest.(check int) "forwarded" 31 s.forwarded;
  Alcotest.(check int) "delivered" 31 s.delivered;
  Alcotest.(check int) "dropped_ttl" 32 s.dropped_ttl;
  Alcotest.(check int) "no queue drops" 0 s.dropped_queue

(* A link under drop, corrupt and reorder chaos gives back every queue
   slot once it drains.  Bursts of half the queue depth cross h1 -> s1
   -> h2 with chaos on both links until the network drains; then a burst
   of exactly [queue_depth] packets into the same links must queue
   without a drop.  A lost, corrupted or late packet frees its slot at
   its on-time arrival, so an in-flight count that drifted from the
   packets really on the wire would drop part of the last burst. *)
let test_chaos_drains_links () =
  let depth = 8 in
  let topo = Topo.Gen.linear ~switches:1 ~hosts_per_switch:2 () in
  let fault =
    Fault.create ~seed:5 ~link_drop:0.2 ~link_corrupt:0.1 ~link_reorder:0.2 ()
  in
  let net = Network.create ~queue_depth:depth ~fault topo in
  wildcard_forward net 1 2;
  let burst n =
    for _ = 1 to n do
      Network.send_from net ~host:1 (Network.make_pkt ~src:1 ~dst:2 ())
    done
  in
  let bursts = 50 in
  for i = 0 to bursts - 1 do
    Sim.schedule (Network.sim net) ~delay:(float_of_int i *. 100e-6) (fun () ->
      burst (depth / 2))
  done;
  ignore (Network.run net ());
  let s = Network.stats net in
  Alcotest.(check bool) "every chaos verdict drawn" true
    (s.dropped_chaos > 0 && s.corrupted > 0 && s.reordered > 0);
  Alcotest.(check int) "no queue drops under chaos" 0 s.dropped_queue;
  Alcotest.(check int) "every packet accounted for" (bursts * depth / 2)
    (s.delivered + s.dropped_chaos + s.corrupted);
  Alcotest.(check int) "drained" 0 (Sim.pending (Network.sim net));
  burst depth;
  ignore (Network.run net ());
  Alcotest.(check int) "a full-depth burst fits" 0
    (Network.stats net).dropped_queue

(* a table miss reaches the controller located where it happened: the
   packet-in's headers name the switch and the port it arrived on, not
   the sender's location nor the previous hop's *)
let test_packet_in_located () =
  (* s1: port 1 -> s2, port 2 -> h1; s2: port 1 -> s1, port 2 -> h2 *)
  let topo = Topo.Gen.linear ~switches:2 ~hosts_per_switch:1 () in
  let net = Network.create topo in
  wildcard_forward net 1 1;
  let seen = ref [] in
  Network.adopt (Network.ctl_channel net 2) (fun ~switch_id data ->
    List.iter
      (fun (_, (msg : Openflow.Message.t)) ->
        match msg with
        | Packet_in pi -> seen := (switch_id, pi) :: !seen
        | _ -> ())
      (Openflow.Wire.decode_all data));
  let pkt = Network.make_pkt ~tp_src:4321 ~src:1 ~dst:2 () in
  Network.send_from net ~host:1 pkt;
  ignore (Network.run net ());
  match !seen with
  | [ (switch_id, pi) ] ->
    let h = pi.packet.headers in
    Alcotest.(check int) "from s2" 2 switch_id;
    Alcotest.(check int) "packet-in port" 1 pi.in_port;
    Alcotest.(check int) "headers.switch" 2 h.switch;
    Alcotest.(check int) "headers.in_port" 1 h.in_port;
    Alcotest.(check bool) "addressing as sent" true
      (Packet.Headers.equal h { pkt.hdr with switch = 2; in_port = 1 })
  | l -> Alcotest.failf "expected one packet-in, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Traffic *)

let setup_pair () =
  let topo = Topo.Gen.linear ~switches:1 ~hosts_per_switch:2 () in
  let net = Network.create topo in
  wildcard_forward net 1 2;
  net

let test_cbr_packet_count () =
  let net = setup_pair () in
  let sent =
    Traffic.cbr net
      { (Traffic.default_flow ~src:1 ~dst:2) with rate_pps = 100.0; stop = 0.5 }
  in
  ignore (Network.run net ());
  (* t=0.0 .. t=0.5 at 10ms spacing: 50 or 51 depending on fp rounding
     of the last tick landing exactly on the stop time *)
  Alcotest.(check bool) "sent" true (!sent = 50 || !sent = 51);
  Alcotest.(check int) "all delivered" !sent (Network.host net 2).received

(* A fixed-port flow builds its packet once and sends that one value
   every time: its receiver sees one physical packet, as often and at
   the same instants as a train of separately built packets sent at the
   same float sums of the interval. *)
let test_cbr_shares_packet () =
  let arrivals net =
    let seen = ref [] in
    (Network.host net 2).on_receive <-
      Some (fun pkt -> seen := (pkt, Network.now net) :: !seen);
    seen
  in
  let spec =
    { (Traffic.default_flow ~src:1 ~dst:2) with
      rate_pps = 1000.0; start = 1e-4; stop = 0.02; tp_src = Some 7 }
  in
  let net = setup_pair () in
  let seen = arrivals net in
  let sent = Traffic.cbr net spec in
  ignore (Network.run net ());
  (* the same train, one freshly built packet per send *)
  let ref_net = setup_pair () in
  let ref_seen = arrivals ref_net in
  let rec send_at time =
    if time <= spec.stop then begin
      Sim.schedule_at (Network.sim ref_net) ~time (fun () ->
        Network.send_from ref_net ~host:1
          (Network.make_pkt ~tp_src:7 ~src:1 ~dst:2 ()));
      send_at (time +. (1.0 /. spec.rate_pps))
    end
  in
  send_at spec.start;
  ignore (Network.run ref_net ());
  let times l = List.rev_map snd l in
  Alcotest.(check int) "sent" 20 !sent;
  Alcotest.(check int) "delivered" !sent (List.length !seen);
  Alcotest.(check (list (float 0.0))) "arrival times" (times !ref_seen)
    (times !seen);
  match !seen with
  | [] -> Alcotest.fail "nothing delivered"
  | (pkt, _) :: rest ->
    Alcotest.(check bool) "one physical packet" true
      (List.for_all (fun (p, _) -> p == pkt) rest);
    Alcotest.(check int) "its tp_src" 7 pkt.hdr.tp_src

(* a fresh-port flow still builds a packet per send, each with its own
   [tp_src] *)
let test_cbr_fresh_ports () =
  let net = setup_pair () in
  let ports = ref [] in
  (Network.host net 2).on_receive <-
    Some (fun pkt -> ports := pkt.hdr.tp_src :: !ports);
  let sent =
    Traffic.cbr net
      { (Traffic.default_flow ~src:1 ~dst:2) with rate_pps = 1000.0;
        stop = 0.0195 }
  in
  ignore (Network.run net ());
  Alcotest.(check int) "sent" 20 !sent;
  Alcotest.(check (list int)) "a fresh tp_src per packet"
    (List.init 20 (fun i -> 10000 + i))
    (List.rev !ports)

let test_poisson_reproducible () =
  let run seed =
    let net = setup_pair () in
    let prng = Util.Prng.create seed in
    let sent =
      Traffic.poisson net ~prng
        { (Traffic.default_flow ~src:1 ~dst:2) with rate_pps = 200.0; stop = 1.0 }
    in
    ignore (Network.run net ());
    !sent
  in
  Alcotest.(check int) "same seed same count" (run 7) (run 7);
  let a = run 7 in
  Alcotest.(check bool) "roughly poisson volume" true (a > 120 && a < 300)

let test_ping_rtt () =
  let topo = Topo.Gen.linear ~switches:2 ~hosts_per_switch:1 () in
  let net = Network.create topo in
  (* symmetric routing by dst mac *)
  List.iter
    (fun (sw, dst, port) ->
      Flow.Table.add (Network.switch net sw).table
        (Flow.Table.make_rule
           ~pattern:{ Flow.Pattern.any with eth_dst = Some (Packet.Mac.of_host_id dst) }
           ~actions:(Flow.Action.forward port) ()))
    [ (1, 1, 2); (1, 2, 1); (2, 2, 2); (2, 1, 1) ];
  Traffic.install_responders net;
  let result = Traffic.ping net ~src:1 ~dst:2 ~count:5 ~interval:0.01 in
  ignore (Network.run net ());
  Alcotest.(check int) "all answered" 5 (List.length !(result.rtts));
  Alcotest.(check int) "none lost" 0 (result.lost ());
  List.iter
    (fun (_, rtt) ->
      Alcotest.(check bool) "plausible rtt" true (rtt > 0.0 && rtt < 1e-3))
    !(result.rtts)

let suites =
  [ ( "dataplane.sim",
      [ Alcotest.test_case "time order" `Quick test_sim_order;
        Alcotest.test_case "fifo ties" `Quick test_sim_ties_fifo;
        Alcotest.test_case "run until" `Quick test_sim_until;
        Alcotest.test_case "nested scheduling" `Quick test_sim_nested_scheduling;
        Alcotest.test_case "negative delay" `Quick
          test_sim_negative_delay_rejected;
        Alcotest.test_case "non-finite time rejected" `Quick
          test_sim_nonfinite_rejected;
        Alcotest.test_case "huge time waits its turn" `Quick
          test_sim_huge_time_waits;
        Alcotest.test_case "max events" `Quick test_sim_max_events;
        Alcotest.test_case "wheel == heap traces" `Quick
          test_sim_matches_heap_replay;
        Alcotest.test_case "ring:16 pinned signature" `Quick
          test_ring16_signature;
        Alcotest.test_case "allocation budget" `Quick test_alloc_budget ] );
    ( "dataplane.network",
      [ Alcotest.test_case "direct delivery" `Quick test_direct_delivery;
        Alcotest.test_case "latency model" `Quick test_latency_model;
        Alcotest.test_case "serialization queueing" `Quick
          test_serialization_queueing;
        Alcotest.test_case "queue overflow" `Quick test_queue_overflow_drops;
        Alcotest.test_case "policy drop" `Quick test_policy_drop;
        Alcotest.test_case "miss without controller" `Quick
          test_miss_without_controller;
        Alcotest.test_case "link failure" `Quick test_link_failure_drops;
        Alcotest.test_case "in-flight loss" `Quick
          test_in_flight_lost_on_failure;
        Alcotest.test_case "flood excludes ingress" `Quick
          test_flood_respects_ingress;
        Alcotest.test_case "header rewrite" `Quick test_header_rewrite_applied;
        Alcotest.test_case "port counters" `Quick test_port_counters;
        Alcotest.test_case "fan-out spends ttl per branch" `Quick
          test_fanout_spends_ttl_per_branch;
        Alcotest.test_case "chaos leaves nothing in flight" `Quick
          test_chaos_drains_links;
        Alcotest.test_case "packet-in is located" `Quick
          test_packet_in_located ] );
    ( "dataplane.traffic",
      [ Alcotest.test_case "cbr count" `Quick test_cbr_packet_count;
        Alcotest.test_case "fixed port shares one packet" `Quick
          test_cbr_shares_packet;
        Alcotest.test_case "fresh port per packet" `Quick test_cbr_fresh_ports;
        Alcotest.test_case "poisson reproducible" `Quick
          test_poisson_reproducible;
        Alcotest.test_case "ping rtt" `Quick test_ping_rtt ] ) ]
