(* Replicated controller (ISSUE 10): adoptable switch sessions,
   leader-lease failover from replicated shadows, fencing-token
   split-brain protection, and replication-under-churn properties. *)

open Dataplane
module Replica = Controller.Replica

let rule_key (r : Flow.Table.rule) = (r.priority, r.pattern, r.actions, r.cookie)
let keys rules = List.sort compare (List.map rule_key rules)

let check_replica_converged r =
  Alcotest.(check (list int)) "tables equal surviving leader's intended" []
    (Replica.diverged r)

(* ------------------------------------------------------------------ *)
(* Satellite: adoption is invisible to a chaos-free run *)

(* A runtime adopts every switch session when it starts; adopting them
   again mid-run with the same handler must produce a byte-identical
   network trace and identical counters: adoption re-homes the session
   without touching FIFO clamps, dedup state, or in-flight frames. *)
let run_adoption_scenario ~readopt () =
  let topo = Topo.Gen.linear ~switches:3 ~hosts_per_switch:1 () in
  let net = Network.create topo in
  let lines = ref [] in
  Network.set_tracer net (fun time s ->
    lines := Printf.sprintf "%.6f %s" time s :: !lines);
  let rt =
    Controller.Runtime.create ~resilience:Scenarios.fast_resilience net
      (Scenarios.routing_apps ())
  in
  if readopt then
    Sim.schedule_at (Network.sim net) ~time:0.7 (fun () ->
      List.iter
        (fun sid ->
          Network.adopt (Network.ctl_channel net sid)
            (Controller.Runtime.handler rt))
        (Topo.Topology.switch_ids topo));
  ignore (Network.run ~until:0.05 net ());
  Traffic.install_responders net;
  let result = Traffic.ping net ~src:1 ~dst:3 ~count:3 ~interval:0.02 in
  ignore (Network.run ~until:2.0 net ());
  Controller.Runtime.shutdown rt;
  ( List.rev !lines,
    Format.asprintf "%a" Network.pp_stats (Network.stats net),
    List.length !(result.rtts) )

let test_adoption_invisible () =
  let trace_a, stats_a, pings_a = run_adoption_scenario ~readopt:false () in
  let trace_b, stats_b, pings_b = run_adoption_scenario ~readopt:true () in
  Alcotest.(check bool) "trace non-trivial" true (List.length trace_a >= 6);
  Alcotest.(check (list string)) "byte-identical trace" trace_a trace_b;
  Alcotest.(check string) "identical counters" stats_a stats_b;
  Alcotest.(check int) "pings answered" pings_a pings_b

(* ------------------------------------------------------------------ *)
(* The switch's stream gate: fencing and the go-back-N receiver *)

(* switch 1 of linear:2 driven by hand-built deliveries.  [deliver n
   msgs] puts one transmission on the control channel with every frame
   numbered [n] (the stream batch's number) and runs until it lands;
   the rig adopts switch 1's session, and [take] returns and clears
   what the switch sent back. *)
type rig = { net : Network.t; up : (int * Openflow.Message.t) list ref }

let rig () =
  let topo = Topo.Gen.linear ~switches:2 ~hosts_per_switch:1 () in
  let net = Network.create topo in
  let up = ref [] in
  Network.adopt (Network.ctl_channel net 1) (fun ~switch_id:_ data ->
    up := !up @ Openflow.Wire.decode_all data);
  { net; up }

let deliver r ?fence n msgs =
  let msgs =
    match fence with
    | Some e -> Openflow.Message.Fence e :: msgs
    | None -> msgs
  in
  Network.controller_send r.net ~switch_id:1
    (Openflow.Wire.encode_batch (List.map (fun m -> (n, m)) msgs));
  ignore (Network.run ~until:(Network.now r.net +. 0.01) r.net ())

(* the handshake that opens the stream at [n] *)
let open_stream r ?fence n =
  deliver r ?fence n [ Openflow.Message.Features_request ]

(* a one-rule batch: an add at [priority], or its delete *)
let add p =
  Openflow.Message.Flow_mod
    (Openflow.Message.add_flow ~priority:p ~pattern:Flow.Pattern.any
       ~actions:[] ())

let del p =
  Openflow.Message.Flow_mod
    (Openflow.Message.delete_strict_flow ~priority:p
       ~pattern:Flow.Pattern.any ())

let batch fms = fms @ [ Openflow.Message.Barrier_request ]

let take r =
  let l = !(r.up) in
  r.up := [];
  l

(* the barrier replies among what came back: cumulative acks *)
let acks r =
  List.filter_map
    (fun (xid, (m : Openflow.Message.t)) ->
      match m with Barrier_reply -> Some xid | _ -> None)
    (take r)

let installed r =
  List.sort compare
    (List.map
       (fun (ru : Flow.Table.rule) -> ru.priority)
       (Flow.Table.rules (Network.switch r.net 1).table))

let check_acks msg expected r =
  Alcotest.(check (list int)) msg expected (acks r)

let check_rules msg expected r =
  Alcotest.(check (list int)) msg expected (installed r)

let test_fence_rejects_stale_writes () =
  let r = rig () in
  (* epoch 1 opens its stream at 10 and writes *)
  open_stream r ~fence:1 10;
  ignore (take r);
  deliver r ~fence:1 10 (batch [ add 10 ]);
  check_rules "epoch-1 write applied" [ 10 ] r;
  check_acks "acked" [ 10 ] r;
  (* a replay of the same batch is not applied again, only re-acked *)
  let table = (Network.switch r.net 1).table in
  let gen = Flow.Table.generation table in
  deliver r ~fence:1 10 (batch [ add 10 ]);
  Alcotest.(check int) "replay not applied (generation unchanged)" gen
    (Flow.Table.generation table);
  check_acks "replay re-acked" [ 10 ] r;
  (* epoch 2 opens a stream of its own at a LOWER number: the higher
     fence closed epoch 1's, so the new leader's numbering applies *)
  open_stream r ~fence:2 3;
  ignore (take r);
  deliver r ~fence:2 3 (batch [ add 20 ]);
  check_rules "epoch-2 write applied despite lower number" [ 10; 20 ] r;
  check_acks "acked" [ 3 ] r;
  (* the deposed epoch-1 leader keeps writing: rejected, counted, and
     its barrier is not answered *)
  deliver r ~fence:1 11 (batch [ add 30 ]);
  check_rules "stale write rejected" [ 10; 20 ] r;
  Alcotest.(check int) "fenced_writes counted" 1
    (Network.stats r.net).fenced_writes;
  check_acks "stale barrier unanswered" [] r;
  Alcotest.(check int) "fence token survives at highest" 2
    (Network.ctl_channel r.net 1).fence

(* The frames of a stale-fenced delivery after a fresh one: nothing in
   it runs, so its barrier (xid 12) never acks anything *)
let test_stale_fence_barrier_unanswered () =
  let r = rig () in
  Network.controller_send r.net ~switch_id:1
    (Openflow.Wire.encode_batch
       [ (10, Openflow.Message.Fence 2); (11, add 5);
         (11, Openflow.Message.Barrier_request) ]);
  Network.controller_send r.net ~switch_id:1
    (Openflow.Wire.encode_batch
       [ (0, Openflow.Message.Fence 1); (11, add 6);
         (12, Openflow.Message.Barrier_request) ]);
  ignore (Network.run ~until:0.05 r.net ());
  Alcotest.(check int) "fenced_writes" 1 (Network.stats r.net).fenced_writes;
  Alcotest.(check bool) "no barrier reply 12" false
    (List.mem 12 (acks r))

(* a window 0..3 whose batch 1 is lost: 2 and 3 are past the gap and
   dropped unanswered; go-back-N resends 1..3, which land in order *)
let test_lost_middle_batch () =
  let r = rig () in
  open_stream r 0;
  ignore (take r);
  deliver r 0 (batch [ add 1 ]);
  deliver r 2 (batch [ del 1; add 3 ]);
  deliver r 3 (batch [ add 4 ]);
  check_rules "only the batch before the gap" [ 1 ] r;
  check_acks "acked up to the gap" [ 0 ] r;
  deliver r 1 (batch [ add 2 ]);
  deliver r 2 (batch [ del 1; add 3 ]);
  deliver r 3 (batch [ add 4 ]);
  check_rules "resent batches applied in order" [ 2; 3; 4 ] r;
  check_acks "each acked" [ 1; 2; 3 ] r

(* a duplicated batch applies once: a second copy of batch 0 after
   batch 1 deleted its rule would bring the rule back *)
let test_duplicate_batch_applies_once () =
  let r = rig () in
  open_stream r 0;
  ignore (take r);
  deliver r 0 (batch [ add 1 ]);
  deliver r 1 (batch [ del 1; add 2 ]);
  deliver r 0 (batch [ add 1 ]);
  check_rules "applied once" [ 2 ] r;
  check_acks "the copy is answered with the cumulative ack" [ 0; 1; 1 ] r

(* a higher fence mid-window closes the old stream: the rest of the old
   leader's window and its replays are dropped unanswered, so a barrier
   numbered like the new stream's batch can never ack it *)
let test_higher_fence_mid_window () =
  let r = rig () in
  open_stream r ~fence:1 0;
  ignore (take r);
  deliver r ~fence:1 0 (batch [ add 1 ]);
  deliver r ~fence:1 1 (batch [ add 2 ]);
  check_acks "epoch 1 acked" [ 0; 1 ] r;
  (* the new leader's fence lands before its handshake *)
  deliver r ~fence:2 0 [];
  deliver r ~fence:1 2 (batch [ add 3 ]);
  deliver r ~fence:2 2 (batch [ add 4 ]);
  check_rules "nothing lands on a closed stream" [ 1; 2 ] r;
  Alcotest.(check (list int)) "no barrier answered" [] (acks r);
  open_stream r ~fence:2 0;
  ignore (take r);
  deliver r ~fence:1 0 (batch [ add 5 ]);
  check_acks "an old-stream batch with the new stream's number: unanswered"
    [] r;
  deliver r ~fence:2 0 (batch [ del 1; del 2; add 6 ]);
  check_rules "the new stream applies from its first batch" [ 6 ] r;
  check_acks "acked" [ 0 ] r

(* a switch crash mid-window: frames of the pre-crash stream that land
   after the reboot are not applied, and are answered with the switch's
   Hello, asking for a handshake; the handshake opens a new stream whose
   first batch, the resync's delete-all-plus-adds, lands *)
let test_crash_mid_window () =
  let r = rig () in
  open_stream r 0;
  ignore (take r);
  deliver r 0 (batch [ add 1 ]);
  deliver r 1 (batch [ add 2 ]);
  Network.crash_switch r.net 1;
  Network.restart_switch r.net 1;
  ignore (Network.run ~until:(Network.now r.net +. 0.01) r.net ());
  ignore (take r);
  deliver r 2 (batch [ add 3 ]);
  deliver r 1 (batch [ add 2 ]);
  check_rules "stale pre-crash frames not applied" [] r;
  let back = take r in
  Alcotest.(check int) "each answered with a Hello" 2
    (List.length
       (List.filter
          (fun (_, (m : Openflow.Message.t)) -> m = Hello)
          back));
  Alcotest.(check bool) "and no barrier reply" false
    (List.exists
       (fun (_, (m : Openflow.Message.t)) -> m = Barrier_reply)
       back);
  open_stream r 4;
  ignore (take r);
  deliver r 4
    (batch
       [ Openflow.Message.Flow_mod
           (Openflow.Message.delete_flow ~pattern:Flow.Pattern.any ());
         add 1; add 2; add 3 ]);
  check_rules "the resync lands" [ 1; 2; 3 ] r;
  check_acks "acked" [ 4 ] r

let test_fence_token_survives_reboot () =
  let topo = Topo.Gen.linear ~switches:1 ~hosts_per_switch:1 () in
  let net = Network.create topo in
  let send msgs =
    Network.controller_send net ~switch_id:1 (Openflow.Wire.encode_batch msgs)
  in
  send [ (0, Openflow.Message.Fence 3) ];
  ignore (Network.run ~until:0.1 net ());
  Network.crash_switch net 1;
  Network.restart_switch net 1;
  Alcotest.(check int) "fence epoch is durable across reboot" 3
    (Network.ctl_channel net 1).fence;
  (* ...so a deposed leader cannot launder stale writes through a
     freshly rebooted switch *)
  send
    [ (0, Openflow.Message.Fence 1);
      ( 1,
        Openflow.Message.Flow_mod
          (Openflow.Message.add_flow ~priority:5 ~pattern:Flow.Pattern.any
             ~actions:[] ()) ) ];
  ignore (Network.run ~until:(Network.now net +. 0.05) net ());
  Alcotest.(check int) "stale write rejected after reboot" 0
    (Flow.Table.size (Network.switch net 1).table)

(* ------------------------------------------------------------------ *)
(* Leader-lease failover *)

let test_failover_reconverges () =
  let topo = Topo.Gen.ring ~switches:4 ~hosts_per_switch:1 () in
  let net = Zen.create topo in
  let r =
    Zen.with_replicas ~resilience:Scenarios.fast_resilience
      ~replicas:2 ~lease:0.15 net Scenarios.routing_apps
  in
  ignore (Zen.run ~until:0.5 net);
  Alcotest.(check (option int)) "member 0 leads" (Some 0) (Replica.leader r);
  check_replica_converged r;
  let installed_before =
    keys (Flow.Table.rules (Network.switch (Zen.network net) 2).table)
  in
  Alcotest.(check bool) "switch 2 programmed" true (installed_before <> []);
  Network.inject (Zen.network net)
    [ Fault.Controller_outage { controller_id = 0; at = 0.6; duration = 60.0 } ];
  ignore (Zen.run ~until:3.0 net);
  Alcotest.(check (option int)) "member 1 took over" (Some 1)
    (Replica.leader r);
  Alcotest.(check int) "epoch bumped" 2 (Replica.epoch r);
  let s = Replica.stats r in
  Alcotest.(check int) "one failover" 1 s.failovers;
  Alcotest.(check int) "takeover completed" 1 s.takeovers_completed;
  Alcotest.(check bool) "heartbeats and deltas replicated" true
    (s.hb_sent > 0 && s.deltas_sent > 0);
  check_replica_converged r;
  (* chaos-free failover completes within a few heartbeat intervals of
     lease-expiry detection *)
  (match Replica.failover_samples r with
   | [ d ] ->
     Alcotest.(check bool)
       (Printf.sprintf "failover %.3fs within 10 heartbeats" d)
       true
       (d > 0.0 && d <= 10.0 *. (0.15 /. 3.0))
   | l ->
     Alcotest.failf "expected one failover sample, got %d" (List.length l));
  (* the new leader's full re-push reloads a warm converged table with
     the same rules, so its installed keys are unchanged *)
  Alcotest.(check bool) "warm tables preserved across handoff" true
    (installed_before
    = keys (Flow.Table.rules (Network.switch (Zen.network net) 2).table));
  (* dataplane still works under the new leader *)
  let rtts = Zen.ping ~count:3 net ~src:1 ~dst:3 in
  Alcotest.(check int) "pings answered after failover" 3 (List.length rtts);
  Replica.shutdown r

(* the replicated controller writes its lifecycle to the network's event
   log whether or not a fault layer is attached: a chaos-free failover
   logs the crash, the lease expiry and the takeover, once each and in
   that order *)
let test_failover_logged_without_fault () =
  let topo = Topo.Gen.ring ~switches:4 ~hosts_per_switch:1 () in
  let net = Network.create topo in
  let log = Scenarios.event_log net in
  let r =
    Replica.create ~resilience:Scenarios.fast_resilience ~replicas:2
      ~lease:0.15 net Scenarios.routing_apps
  in
  Network.inject net
    [ Fault.Controller_outage
        { controller_id = 0; at = 0.5; duration = 60.0 } ];
  ignore (Network.run ~until:2.0 net ());
  Replica.shutdown r;
  let events =
    List.map (fun l -> Scanf.sscanf l "%f %[^\n]" (fun _ e -> e)) (log ())
  in
  let lifecycle =
    [ "c0 ctl-crash"; "lease-expired c1"; "takeover c1 epoch=2" ]
  in
  Alcotest.(check (list string)) "crash, lease expiry, takeover" lifecycle
    (List.filter (fun e -> List.mem e lifecycle) events);
  Alcotest.(check int) "one completed takeover logged" 1
    (List.length
       (List.filter (String.starts_with ~prefix:"failover-complete c1 ")
          events))

let test_crashed_leader_rejoins_as_standby () =
  let topo = Topo.Gen.linear ~switches:3 ~hosts_per_switch:1 () in
  let net = Zen.create topo in
  let r =
    Zen.with_replicas ~resilience:Scenarios.fast_resilience
      ~replicas:2 ~lease:0.12 net Scenarios.routing_apps
  in
  Network.inject (Zen.network net)
    [ Fault.Controller_outage { controller_id = 0; at = 0.4; duration = 1.0 } ];
  ignore (Zen.run ~until:4.0 net);
  Alcotest.(check (option int)) "member 1 leads" (Some 1) (Replica.leader r);
  Alcotest.(check bool) "member 0 back as standby" true
    (Replica.role_of r ~controller_id:0 = Replica.Standby);
  Alcotest.(check bool) "rejoin used a full state transfer" true
    ((Replica.stats r).syncs >= 1);
  check_replica_converged r;
  Replica.shutdown r

(* ------------------------------------------------------------------ *)
(* Satellite: failover mid-retransmit applies no duplicate rules *)

let test_failover_mid_retransmit_no_duplicates () =
  let topo = Topo.Gen.linear ~switches:3 ~hosts_per_switch:1 () in
  let fault = Fault.create ~seed:42 ~drop:0.25 ~dup:0.2 ~jitter:1e-3 () in
  let net = Network.create ~fault topo in
  let r =
    Replica.create ~resilience:Scenarios.failover_resilience ~replicas:2
      ~lease:0.15 net Scenarios.routing_apps
  in
  (* crash the leader early: initial rule pushes are still being
     retransmitted under 25% loss when member 1 adopts the sessions *)
  Network.inject net
    [ Fault.Controller_outage { controller_id = 0; at = 0.05; duration = 60.0 } ];
  ignore (Network.run ~until:4.0 net ());
  Alcotest.(check int) "failover happened" 1 (Replica.stats r).failovers;
  Alcotest.(check bool) "chaos actually hit the channel" true
    (Fault.drops fault > 0 && Fault.dups fault > 0);
  (match Replica.runtime_of r ~controller_id:1 with
   | Some rt ->
     Alcotest.(check bool) "new leader retransmitted" true
       ((Controller.Runtime.resilience_stats rt).retransmits > 0)
   | None -> Alcotest.fail "member 1 has no runtime");
  check_replica_converged r;
  (* quiet period: the workload is settled, so every late duplicate and
     straggling retransmit must dedup switch-side — a single duplicate
     application would bump a table generation *)
  let ids = List.map (fun (sw : Network.switch) -> sw.sw_id)
      (Network.switch_list net)
  in
  let gens () =
    List.map (fun sid -> Flow.Table.generation (Network.switch net sid).table)
      ids
  in
  let frozen = gens () in
  ignore (Network.run ~until:6.0 net ());
  Alcotest.(check (list int)) "no duplicate rule application" frozen (gens ());
  check_replica_converged r;
  Replica.shutdown r

(* ------------------------------------------------------------------ *)
(* A delta edit interrupted by a leader crash, resubmitted to the successor *)

(* The leader crashes 0.5 ms after [install_plain] enqueued a policy edit;
   the same edit is then resubmitted through the same updater to the
   successor.  The updater's snapshot already holds the edit, so the
   resubmission is an empty delta: the edit must survive through the
   replicated shadow (shipped as the batches were enqueued) and the
   successor's resync. *)
let test_delta_edit_survives_failover () =
  let topo = Topo.Gen.ring ~switches:4 ~hosts_per_switch:1 () in
  let net = Zen.create topo in
  let r =
    Zen.with_replicas ~resilience:Scenarios.fast_resilience
      ~replicas:2 ~lease:0.15 net (fun () -> [])
  in
  let updater = Controller.Update.create () in
  let leader_ctx () =
    match Replica.leader_runtime r with
    | Some rt -> Controller.Runtime.ctx rt
    | None -> Alcotest.fail "no leader"
  in
  let base = Netkat.Builder.routing_policy topo in
  Controller.Update.install_plain updater (leader_ctx ()) base;
  ignore (Zen.run ~until:0.5 net);
  check_replica_converged r;
  (* drop host 3's port-4242 traffic at switch 1 *)
  let edited =
    Netkat.Syntax.seq
      (Netkat.Syntax.filter
         (Netkat.Syntax.neg
            (Netkat.Syntax.conj
               (Netkat.Syntax.test Packet.Fields.Switch 1)
               (Netkat.Syntax.conj
                  (Netkat.Syntax.test Packet.Fields.Eth_dst
                     (Packet.Mac.of_host_id 3))
                  (Netkat.Syntax.test Packet.Fields.Tp_dst 4242)))))
      base
  in
  Controller.Update.install_plain updater (leader_ctx ()) edited;
  Network.inject (Zen.network net)
    [ Fault.Controller_outage
        { controller_id = 0; at = Zen.now net +. 0.5e-3; duration = 60.0 } ];
  ignore (Zen.run ~until:(Zen.now net +. 1.0) net);
  Alcotest.(check (option int)) "member 1 took over" (Some 1)
    (Replica.leader r);
  Controller.Update.install_plain updater (leader_ctx ()) edited;
  ignore (Zen.run ~until:(Zen.now net +. 0.5) net);
  check_replica_converged r;
  Alcotest.(check bool) "the edit's rule is installed" true
    (List.exists
       (fun (ru : Flow.Table.rule) -> ru.pattern.tp_dst = Some 4242)
       (Flow.Table.rules (Network.switch (Zen.network net) 1).table));
  Replica.shutdown r

(* ------------------------------------------------------------------ *)
(* Split brain: both controllers alive, only the leaseholder's writes land *)

(* the deposed leader stays alive and confident (see
   {!Scenarios.split_brain}): only the fence stops its writes *)
let test_split_brain_fenced () =
  let net, r = Scenarios.split_brain () in
  Alcotest.(check (option int)) "standby took over" (Some 1)
    (Replica.leader r);
  Alcotest.(check bool) "stale leader still believes it leads" true
    (Replica.role_of r ~controller_id:0 = Replica.Leader);
  Alcotest.(check bool) "stale writes were fenced" true
    ((Network.stats net).fenced_writes > 0);
  let cookies =
    List.map
      (fun (ru : Flow.Table.rule) -> ru.cookie)
      (Flow.Table.rules (Network.switch net 1).table)
  in
  Alcotest.(check bool) "zero stale-leader rules installed" false
    (List.mem 0xdead cookies);
  Alcotest.(check bool) "new leader's writes land" true
    (List.mem 0xbeef cookies);
  check_replica_converged r;
  (* heal: the deposed leader sees the higher-epoch heartbeat and steps
     down instead of dueling *)
  Replica.heal r ~controller_id:0;
  ignore (Network.run ~until:5.0 net ());
  Alcotest.(check int) "deposed leader stepped down" 1
    (Replica.stats r).step_downs;
  Alcotest.(check bool) "now a standby" true
    (Replica.role_of r ~controller_id:0 = Replica.Standby);
  Alcotest.(check (option int)) "one leader remains" (Some 1)
    (Replica.leader r);
  Replica.shutdown r

(* the leader of a 6-ring crashes for good under 20% control loss with
   duplication and jitter: the run replays byte-identically, completes
   exactly one failover within 40 heartbeat intervals, and the tables
   equal the surviving leader's intended shadow *)
let test_chaos_failover_deterministic () =
  let run () =
    Scenarios.failover_ring ~trace:true ~seed:7007 ~drop:0.2 ~dup:0.05 ~jitter:1e-3 ()
  in
  let a = run () in
  let b = run () in
  Alcotest.(check (list string)) "identical event logs" a.f_trace b.f_trace;
  Alcotest.(check (triple int int int)) "identical counters" a.f_counters
    b.f_counters;
  Alcotest.(check (list (float 0.0))) "identical failover samples"
    a.f_samples b.f_samples;
  Alcotest.(check bool) "identical replication stats" true
    (a.f_repl = b.f_repl);
  Alcotest.(check int) "identical sent" a.f_sent b.f_sent;
  let failovers, completed, _, _ = a.f_repl in
  Alcotest.(check (pair int int)) "exactly one completed failover" (1, 1)
    (failovers, completed);
  Alcotest.(check (list int)) "tables equal surviving leader's intended" []
    a.f_diverged;
  (* the scenario's lease is 0.15 s; heartbeats run every lease / 3 *)
  let hb = 0.15 /. 3.0 in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "failover %.3fs within 40 heartbeats" d)
        true
        (d <= 40.0 *. hb))
    a.f_samples

(* ------------------------------------------------------------------ *)
(* one controller is a Runtime, not a one-member replica set *)

let test_replicas_one_rejected () =
  let net = Zen.create (Topo.Gen.linear ~switches:2 ~hosts_per_switch:1 ()) in
  match
    Replica.create ~resilience:Scenarios.fast_resilience
      ~replicas:1 (Zen.network net) Scenarios.routing_apps
  with
  | _ -> Alcotest.fail "replicas:1 accepted"
  | exception Invalid_argument _ -> ()

(* a resilience record the runtime would reject fails before any
   member starts *)
let test_bad_resilience_rejected () =
  let net = Zen.create (Topo.Gen.linear ~switches:2 ~hosts_per_switch:1 ()) in
  match
    Replica.create
      ~resilience:{ Scenarios.fast_resilience with echo_period = 0.0 }
      (Zen.network net) Scenarios.routing_apps
  with
  | _ -> Alcotest.fail "echo_period = 0 accepted"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "message" "Replica.create: resilience.echo_period"
      msg;
    Alcotest.(check int) "no control traffic" 0
      (Dataplane.Network.stats (Zen.network net)).control_msgs

(* ------------------------------------------------------------------ *)
(* Apps are not replicated: every leader incarnation runs fresh ones *)

(* Replication carries the shadow tables and the lease epoch only.  An
   app's state is rebuilt, not shipped: [mk_apps] runs once per leader
   incarnation, and each incarnation's fresh apps see [switch_up] for
   every switch as its handshakes complete.  Three incarnations: the
   initial start, member 1's takeover from a crashed member 0, and the
   restarted member 0's promotion when member 1 crashes in turn. *)
let test_fresh_apps_per_incarnation () =
  let topo = Topo.Gen.linear ~switches:3 ~hosts_per_switch:1 () in
  let net = Zen.create topo in
  let calls = ref 0 and seen = ref [] in
  let mk_apps () =
    incr calls;
    let incarnation = !calls in
    let probe =
      { Controller.Api.default_app with
        switch_up =
          (fun _ ~switch_id ~ports:_ ->
            seen := (incarnation, switch_id) :: !seen) }
    in
    probe :: Scenarios.routing_apps ()
  in
  let r =
    Zen.with_replicas ~resilience:Scenarios.fast_resilience ~replicas:2
      ~lease:0.12 net mk_apps
  in
  let ups incarnation =
    List.sort_uniq compare
      (List.filter_map
         (fun (i, sw) -> if i = incarnation then Some sw else None)
         !seen)
  in
  let check_incarnation ~leader incarnation =
    Alcotest.(check (option int))
      (Printf.sprintf "member %d leads incarnation %d" leader incarnation)
      (Some leader) (Replica.leader r);
    Alcotest.(check int)
      (Printf.sprintf "mk_apps calls by incarnation %d" incarnation)
      incarnation !calls;
    Alcotest.(check (list int))
      (Printf.sprintf "incarnation %d saw every switch up" incarnation)
      [ 1; 2; 3 ] (ups incarnation);
    check_replica_converged r
  in
  ignore (Zen.run ~until:0.3 net);
  check_incarnation ~leader:0 1;
  Network.inject (Zen.network net)
    [ Fault.Controller_outage { controller_id = 0; at = 0.4; duration = 1.0 } ];
  ignore (Zen.run ~until:2.0 net);
  Alcotest.(check bool) "member 0 back as standby" true
    (Replica.role_of r ~controller_id:0 = Replica.Standby);
  check_incarnation ~leader:1 2;
  Network.inject (Zen.network net)
    [ Fault.Controller_outage { controller_id = 1; at = 2.1; duration = 60.0 } ];
  ignore (Zen.run ~until:3.0 net);
  check_incarnation ~leader:0 3;
  Alcotest.(check int) "two failovers" 2 (Replica.stats r).failovers;
  Replica.shutdown r

(* ------------------------------------------------------------------ *)
(* QCheck: replication under churn (policy edits + crashes + failovers) *)

(* Random cumulative policy edits stream through whichever member
   currently holds the lease (compiled incrementally through
   Netkat.Delta, as in test_delta's lockstep harness) while the leader
   crashes and a standby takes over; afterwards every switch's installed
   table must equal the surviving leader's intended shadow.  Edits that
   fall into the leaderless window are dropped entirely — the property
   is installed ≡ intended, not edit durability. *)
let prop_replica_churn =
  QCheck.Test.make ~name:"replica churn converges (leader crash)" ~count:8
    (QCheck.make
       ~print:(fun pols ->
         String.concat " ;; " (List.map Netkat.Syntax.pol_to_string pols))
       (QCheck.Gen.list_size (QCheck.Gen.int_range 2 4)
          Test_netkat.local_pol_gen))
    (fun pols ->
      let topo = Topo.Gen.ring ~switches:4 ~hosts_per_switch:1 () in
      let switches = Topo.Topology.switch_ids topo in
      let net = Network.create topo in
      let r =
        Replica.create ~resilience:Scenarios.fast_resilience
          ~replicas:2 ~lease:0.1 net (fun () -> [])
      in
      let steps =
        List.fold_left
          (fun acc p ->
            match acc with
            | [] -> [ p ]
            | prev :: _ -> Netkat.Syntax.union prev p :: acc)
          [] pols
        |> List.rev
      in
      let snap = ref None in
      List.iteri
        (fun i pol ->
          Sim.schedule_at (Network.sim net)
            ~time:(0.3 +. (0.4 *. float_of_int i))
            (fun () ->
              let fdd = Netkat.Fdd.of_policy pol in
              let result = Netkat.Delta.compile ~switches !snap fdd in
              snap := Some result.snapshot;
              match Replica.leader_runtime r with
              | None -> ()
              | Some rt ->
                let ctx = Controller.Runtime.ctx rt in
                (* every changed switch gets a full cookie-7 replacement *)
                List.iter
                  (fun (sw, change) ->
                    Controller.Api.send_flow_mods ctx ~switch_id:sw
                      (Controller.Api.change_flow_mods ~cookie:7 ~known:false
                         change))
                  result.changes))
        steps;
      (* leader crashes mid-stream and later rejoins as a standby *)
      Network.inject net
        [ Fault.Controller_outage
            { controller_id = 0; at = 0.45; duration = 1.0 } ];
      let horizon = 0.3 +. (0.4 *. float_of_int (List.length steps)) +. 3.0 in
      ignore (Network.run ~until:horizon net ());
      if (Replica.stats r).failovers < 1 then
        QCheck.Test.fail_report "no failover happened";
      let diverged = Replica.diverged r in
      Replica.shutdown r;
      if diverged <> [] then
        QCheck.Test.fail_reportf "diverged switches: %s"
          (String.concat "," (List.map string_of_int diverged))
      else true)

let suites =
  [ ( "replica.channel",
      [ Alcotest.test_case "adoption invisible (byte-identical trace)" `Quick
          test_adoption_invisible;
        Alcotest.test_case "fence rejects stale writes" `Quick
          test_fence_rejects_stale_writes;
        Alcotest.test_case "fence token survives reboot" `Quick
          test_fence_token_survives_reboot;
        Alcotest.test_case "stale-fenced barrier unanswered" `Quick
          test_stale_fence_barrier_unanswered;
        Alcotest.test_case "lost middle batch resent in order" `Quick
          test_lost_middle_batch;
        Alcotest.test_case "duplicate batch applies once" `Quick
          test_duplicate_batch_applies_once;
        Alcotest.test_case "higher fence mid-window" `Quick
          test_higher_fence_mid_window;
        Alcotest.test_case "switch crash mid-window" `Quick
          test_crash_mid_window ] );
    ( "replica.failover",
      [ Alcotest.test_case "failover reconverges" `Quick
          test_failover_reconverges;
        Alcotest.test_case "failover logged without a fault layer" `Quick
          test_failover_logged_without_fault;
        Alcotest.test_case "crashed leader rejoins as standby" `Quick
          test_crashed_leader_rejoins_as_standby;
        Alcotest.test_case "mid-retransmit failover: no duplicates" `Quick
          test_failover_mid_retransmit_no_duplicates;
        Alcotest.test_case "delta edit survives failover" `Quick
          test_delta_edit_survives_failover;
        Alcotest.test_case "split brain: stale writes fenced" `Quick
          test_split_brain_fenced;
        Alcotest.test_case "chaos failover deterministic" `Quick
          test_chaos_failover_deterministic;
        Alcotest.test_case "replicas=1 rejected" `Quick
          test_replicas_one_rejected;
        Alcotest.test_case "bad resilience rejected" `Quick
          test_bad_resilience_rejected;
        Alcotest.test_case "fresh apps per leader incarnation" `Quick
          test_fresh_apps_per_incarnation ] );
    ( "replica.churn",
      [ QCheck_alcotest.to_alcotest prop_replica_churn ] ) ]
