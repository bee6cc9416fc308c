(* Tests for the reliable transport over the lossy dataplane. *)

let is_complete c =
  not (Float.is_nan (Dataplane.Transport.stats c).completed_at)

let is_aborted c = (Dataplane.Transport.stats c).aborted

let delivered c = (Dataplane.Transport.stats c).delivered

let routed_pair ?(queue_depth = 64) ?fault () =
  let topo = Topo.Gen.linear ~switches:2 ~hosts_per_switch:1 () in
  let net = Dataplane.Network.create ~queue_depth ?fault topo in
  Controller.Api.load_delta ~previous:None
    ~table_of:(fun id -> (Dataplane.Network.switch net id).table)
    (Netkat.Delta.compile_policy ~switches:(Topo.Topology.switch_ids topo)
       None (Netkat.Builder.routing_policy topo));
  net

let test_lossless_transfer () =
  let net = routed_pair () in
  let c = Dataplane.Transport.start net ~src:1 ~dst:2 ~total:200 ~window:8 () in
  ignore (Dataplane.Network.run ~until:20.0 net ());
  Alcotest.(check bool) "complete" true (is_complete c);
  Alcotest.(check int) "all delivered in order" 200
    (delivered c);
  Alcotest.(check int) "no retransmissions on a clean path" 0
    (Dataplane.Transport.stats c).retransmissions;
  Alcotest.(check bool) "positive goodput" true
    (Dataplane.Transport.goodput c > 0.0)

let test_recovers_from_queue_loss () =
  (* a window far larger than the queue forces drop-tail loss; the
     transfer must still complete, with retransmissions *)
  let net = routed_pair ~queue_depth:8 () in
  let c =
    Dataplane.Transport.start net ~src:1 ~dst:2 ~total:300 ~window:32
      ~rto:0.02 ~max_retx:500 ()
  in
  ignore (Dataplane.Network.run ~until:120.0 net ());
  Alcotest.(check bool) "queue actually dropped" true
    ((Dataplane.Network.stats net).dropped_queue > 0);
  Alcotest.(check bool) "complete despite loss" true
    (is_complete c);
  Alcotest.(check int) "all delivered exactly once, in order" 300
    (delivered c);
  Alcotest.(check bool) "retransmissions happened" true
    ((Dataplane.Transport.stats c).retransmissions > 0)

let test_recovers_from_outage () =
  (* kill the path mid-transfer, restore it: ARQ rides through *)
  let net = routed_pair () in
  let c =
    Dataplane.Transport.start net ~src:1 ~dst:2 ~total:500 ~window:4
      ~rto:0.02 ()
  in
  Dataplane.Sim.schedule (Dataplane.Network.sim net) ~delay:0.05 (fun () ->
    Topo.Topology.fail_link (Dataplane.Network.topology net)
      (Topo.Topology.Node.Switch 1, 1));
  Dataplane.Sim.schedule (Dataplane.Network.sim net) ~delay:0.3 (fun () ->
    Topo.Topology.restore_link (Dataplane.Network.topology net)
      (Topo.Topology.Node.Switch 1, 1));
  ignore (Dataplane.Network.run ~until:60.0 net ());
  Alcotest.(check bool) "complete across the outage" true
    (is_complete c);
  Alcotest.(check int) "nothing lost at the application" 500
    (delivered c)

let test_aborts_when_unreachable () =
  let net = routed_pair () in
  Topo.Topology.fail_link (Dataplane.Network.topology net)
    (Topo.Topology.Node.Switch 1, 1);
  let c =
    Dataplane.Transport.start net ~src:1 ~dst:2 ~total:10 ~window:2 ~rto:0.01
      ~max_retx:5 ()
  in
  ignore (Dataplane.Network.run ~until:10.0 net ());
  Alcotest.(check bool) "aborted" true (is_aborted c);
  Alcotest.(check bool) "not complete" false (is_complete c)

(* An RTO far below the path RTT exhausts the retransmission budget
   while the first window's ACKs are still in flight.  The abort stops
   the sender: those late ACKs must not advance it, pump the rest of the
   data and complete the transfer as well. *)
let test_abort_is_final () =
  let net = routed_pair () in
  let c =
    Dataplane.Transport.start net ~src:1 ~dst:2 ~total:200 ~rto:1e-7
      ~max_retx:2 ()
  in
  ignore (Dataplane.Network.run ~until:20.0 net ());
  Alcotest.(check bool) "aborted" true (is_aborted c);
  Alcotest.(check bool) "not complete" false (is_complete c);
  Alcotest.(check bool) "the sender stopped short of the transfer" true
    (delivered c < 200)

(* Every timer argument that cannot drive the transfer forward is
   rejected before the first window goes on the wire. *)
let test_start_rejects_bad_timers () =
  let reject name start =
    let net = routed_pair () in
    (match start net with
     | _ -> Alcotest.failf "%s: accepted" name
     | exception Invalid_argument _ -> ());
    ignore (Dataplane.Network.run ~until:1.0 net ());
    Alcotest.(check int) (name ^ ": nothing sent") 0
      (Dataplane.Network.stats net).forwarded
  in
  let start ?rto ?backoff ?max_rto ?max_retx ?(window = 8) ?(total = 10) net
      =
    Dataplane.Transport.start net ~src:1 ~dst:2 ~total ~window ?rto ?backoff
      ?max_rto ?max_retx ()
  in
  reject "rto 0" (start ~rto:0.0);
  reject "rto nan" (start ~rto:nan);
  reject "rto negative" (start ~rto:(-1.0));
  reject "rto infinite" (start ~rto:infinity);
  reject "max_rto below rto" (start ~rto:0.05 ~max_rto:0.01);
  reject "max_rto nan" (start ~max_rto:nan);
  reject "backoff infinite" (start ~backoff:infinity);
  reject "backoff nan" (start ~backoff:nan);
  reject "backoff below 1" (start ~backoff:0.5);
  reject "max_retx negative" (start ~max_retx:(-1));
  reject "window 0" (start ~window:0);
  reject "total 0" (start ~total:0)

(* Exponential backoff vs the legacy fixed RTO on a 20%-lossy link,
   with the initial RTO set below the loaded RTT: the fixed timer keeps
   spuriously re-offering whole windows while ACKs are still in flight
   (further inflating queueing delay), where backing off quickly grows
   past the real RTT.  Both must complete; backoff must retransmit
   strictly less. *)
let test_backoff_beats_fixed_rto_under_loss () =
  let retx_with backoff =
    let fault = Dataplane.Fault.create ~seed:77 ~link_drop:0.2 () in
    let net = routed_pair ~fault () in
    let c =
      Dataplane.Transport.start net ~src:1 ~dst:2 ~total:300 ~window:32
        ~rto:1e-4 ~backoff ~max_retx:5000 ()
    in
    ignore (Dataplane.Network.run ~until:120.0 net ());
    Alcotest.(check bool) "link chaos bit" true
      ((Dataplane.Network.stats net).dropped_chaos > 0);
    Alcotest.(check bool) "complete despite loss" true
      (is_complete c);
    Alcotest.(check int) "all delivered" 300 (delivered c);
    (Dataplane.Transport.stats c).retransmissions
  in
  let fixed = retx_with 1.0 in
  let backed_off = retx_with 2.0 in
  Alcotest.(check bool)
    (Printf.sprintf "backoff retransmits less (%d < %d)" backed_off fixed)
    true
    (backed_off > 0 && backed_off < fixed)

let test_window_increases_goodput () =
  let goodput_for window =
    let net = routed_pair () in
    let c = Dataplane.Transport.start net ~src:1 ~dst:2 ~total:400 ~window () in
    ignore (Dataplane.Network.run ~until:120.0 net ());
    Alcotest.(check bool) "complete" true (is_complete c);
    Dataplane.Transport.goodput c
  in
  let g1 = goodput_for 1 and g8 = goodput_for 8 in
  Alcotest.(check bool)
    (Printf.sprintf "window 8 (%.0f bps) beats stop-and-wait (%.0f bps)" g8 g1)
    true
    (g8 > g1 *. 2.0)

let suites =
  [ ( "dataplane.transport",
      [ Alcotest.test_case "lossless transfer" `Quick test_lossless_transfer;
        Alcotest.test_case "recovers from queue loss" `Quick
          test_recovers_from_queue_loss;
        Alcotest.test_case "recovers from an outage" `Quick
          test_recovers_from_outage;
        Alcotest.test_case "aborts when unreachable" `Quick
          test_aborts_when_unreachable;
        Alcotest.test_case "abort is final" `Quick test_abort_is_final;
        Alcotest.test_case "start rejects bad timers" `Quick
          test_start_rejects_bad_timers;
        Alcotest.test_case "backoff beats fixed RTO under loss" `Quick
          test_backoff_beats_fixed_rto_under_loss;
        Alcotest.test_case "window scales goodput" `Quick
          test_window_increases_goodput ] ) ]
