(* Fixed-seed scenarios shared by the test suite and the bench harness.
   Each is defined once: a test asserts on it, an experiment tables it,
   and the two cannot drift apart. *)

(* ------------------------------------------------------------------ *)
(* The event log *)

(* attaches a tracer to [net] and returns a reader of its event log: one
   "<time> <event>" line per event, oldest first *)
let event_log net =
  let lines = ref [] in
  Dataplane.Network.set_tracer net (fun time s ->
    lines := Printf.sprintf "%.9f %s" time s :: !lines);
  fun () -> List.rev !lines

(* [event_log net] when the caller reads the log; otherwise no tracer is
   attached, nothing is formatted, and the reader returns [] *)
let maybe_log ~trace net =
  if trace then event_log net else fun () -> []

(* ------------------------------------------------------------------ *)
(* Policies *)

(* allowlist ACL (naive-compatible: no negation) over the first [k]
   source IPs, composed with IP routing *)
let allowlist_policy topo k =
  let acl =
    Netkat.Syntax.big_union
      (List.init k (fun i ->
         Netkat.Syntax.filter
           (Netkat.Syntax.test Packet.Fields.Ip4_src
              (Packet.Ipv4.of_host_id (i + 1)))))
  in
  Netkat.Syntax.seq acl (Netkat.Builder.ip_routing_policy topo)

(* ------------------------------------------------------------------ *)
(* Routed long-lived flows (E3) *)

(* [spec] routed by the compiled routing policy, with long-lived CBR
   flows queued (seed 9, 1000 B; by default 32 flows at 500 pps until
   1 s); the caller runs it.  Fixed per-flow ports give long-lived
   5-tuples; the routing tables match only destinations, so the flow
   cache misses once per destination per switch. *)
let routed_flows ?(flows = 32) ?(rate_pps = 500.0) ?(stop = 1.0) spec =
  let topo = Topo.Gen.of_spec spec in
  let net = Zen.create topo in
  ignore (Zen.install_policy net (Netkat.Builder.routing_policy topo));
  let prng = Util.Prng.create 9 in
  ignore
    (Dataplane.Traffic.random_pairs ~fixed_ports:true (Zen.network net) ~prng
       ~flows ~rate_pps ~pkt_size:1000 ~stop);
  net

(* ------------------------------------------------------------------ *)
(* A 6-ring under chaos with a switch crash (E9-chaos, E16) *)

(* tight keepalive/retransmit timers so outages are detected and
   recovered within the 5 s scenario horizon *)
let fast_resilience =
  { Controller.Runtime.echo_period = 0.05; echo_miss_limit = 3;
    retx_timeout = 0.01; retx_backoff = 2.0; retx_cap = 0.1 }

type ring_result = {
  c_trace : string list;  (* the event log; [] unless run with [~trace] *)
  c_diverged : int list;  (* still off intended state after settling *)
  c_sent : int;
  c_delivered : int;
  c_link_chaos : int * int * int;  (* dropped, corrupted, reordered *)
  c_retransmits : int;
  c_resyncs : int;
  c_recoveries : float list;
  c_reroutes : int;
}

(* a ring of 6 switches, one host each, under [fault]; switch 3 crashes
   at 0.6 s and restarts 0.8 s later, [flaps] adds two link flaps, and
   three CBR flows cross the ring throughout; [trace] keeps the event
   log *)
let chaos_ring ?(trace = false) ~flaps fault =
  let topo = Topo.Gen.ring ~switches:6 ~hosts_per_switch:1 () in
  let net = Dataplane.Network.create ~fault topo in
  let log = maybe_log ~trace net in
  let routing = Controller.Routing.create () in
  let rt =
    Controller.Runtime.create ~resilience:fast_resilience net
      [ Controller.Routing.app routing ]
  in
  Dataplane.Network.inject net
    (Dataplane.Fault.Switch_outage { switch_id = 3; at = 0.6; duration = 0.8 }
     ::
     (if flaps then
        [ Dataplane.Fault.Link_flap
            { node = Topo.Topology.Node.Switch 1; port = 1; at = 0.9;
              duration = 0.5 };
          Dataplane.Fault.Link_flap
            { node = Topo.Topology.Node.Switch 4; port = 2; at = 1.2;
              duration = 0.4 } ]
      else []));
  let senders =
    List.map
      (fun (src, dst) ->
        Dataplane.Traffic.cbr net
          { (Dataplane.Traffic.default_flow ~src ~dst) with
            rate_pps = 200.0; pkt_size = 200; start = 0.1; stop = 2.5;
            tp_src = Some 9000 })
      [ (1, 4); (2, 5); (6, 3) ]
  in
  ignore (Dataplane.Network.run ~until:5.0 net ());
  let diverged = Controller.Runtime.settle rt in
  let s = Dataplane.Network.stats net in
  let rs = Controller.Runtime.resilience_stats rt in
  { c_trace = log ();
    c_diverged = diverged;
    c_sent = List.fold_left (fun acc se -> acc + !se) 0 senders;
    c_delivered = s.delivered;
    c_link_chaos = (s.dropped_chaos, s.corrupted, s.reordered);
    c_retransmits = rs.retransmits;
    c_resyncs = rs.resyncs;
    c_recoveries = Controller.Runtime.recovery_times rt;
    c_reroutes = Controller.Routing.reroutes routing }

let delivery_ratio r =
  if r.c_sent = 0 then 0.0
  else float_of_int r.c_delivered /. float_of_int r.c_sent

(* ------------------------------------------------------------------ *)
(* Replicated control: failover and split brain (E19) *)

(* echo_miss_limit is high so control-channel loss cannot fake a switch
   outage mid-measurement (a spurious keepalive verdict would make the
   routing app reroute and change tables; the failover clock, not the
   switch keepalive, is under test) *)
let failover_resilience = { fast_resilience with echo_miss_limit = 8 }

let routing_apps () =
  [ Controller.Routing.app (Controller.Routing.create ()) ]

type failover_result = {
  f_trace : string list;  (* the event log; [] unless run with [~trace] *)
  f_samples : float list;   (* failover detection -> all switches re-upped *)
  f_diverged : int list;
  f_counters : int * int * int;  (* control_msgs, control_bytes, delivered *)
  f_repl : int * int * int * int;  (* failovers, completed, repl_msgs, drops *)
  f_sent : int;
}

(* 6-ring under control-channel chaos with CBR crossing it; the leader
   of two replicas (lease 0.15 s) crashes at 0.6 s and stays down, the
   standby's lease expires and it adopts every switch session,
   resyncing from its replicated shadow; [trace] keeps the event log *)
let failover_ring ?(trace = false) ~seed ~drop ~dup ~jitter () =
  let topo = Topo.Gen.ring ~switches:6 ~hosts_per_switch:1 () in
  let fault = Dataplane.Fault.create ~seed ~drop ~dup ~jitter () in
  let net = Dataplane.Network.create ~fault topo in
  let log = maybe_log ~trace net in
  let r =
    Controller.Replica.create ~resilience:failover_resilience ~replicas:2
      ~lease:0.15 net routing_apps
  in
  Dataplane.Network.inject net
    [ Dataplane.Fault.Controller_outage
        { controller_id = 0; at = 0.6; duration = 60.0 } ];
  let senders =
    List.map
      (fun (src, dst) ->
        Dataplane.Traffic.cbr net
          { (Dataplane.Traffic.default_flow ~src ~dst) with
            rate_pps = 200.0; pkt_size = 200; start = 0.1; stop = 2.5;
            tp_src = Some 9000 })
      [ (1, 4); (2, 5); (6, 3) ]
  in
  ignore (Dataplane.Network.run ~until:5.0 net ());
  let s = Dataplane.Network.stats net in
  let rs = Controller.Replica.stats r in
  let result =
    { f_trace = log ();
      f_samples = Controller.Replica.failover_samples r;
      f_diverged = Controller.Replica.diverged r;
      f_counters = (s.control_msgs, s.control_bytes, s.delivered);
      f_repl = (rs.failovers, rs.takeovers_completed, rs.repl_msgs,
                rs.repl_drops);
      f_sent = List.fold_left (fun acc se -> acc + !se) 0 senders }
  in
  Controller.Replica.shutdown r;
  result

(* split brain, chaos-free and fully deterministic: at 0.5 s the leader
   of two replicas is cut off the inter-controller channel only (it
   stays alive, believes it holds the lease, and keeps writing), and
   each leader incarnation schedules a distinct marker rule on switch 1
   well after the partition — the deposed leader's (cookie 0xdead) must
   be fenced out, the new leader's (0xbeef) must land.  Runs to 4 s and
   returns the network and the live replica set. *)
let split_brain () =
  let topo = Topo.Gen.linear ~switches:3 ~hosts_per_switch:1 () in
  let net = Dataplane.Network.create topo in
  let incarnation = ref 0 in
  let mk_apps () =
    incr incarnation;
    let cookie = if !incarnation = 1 then 0xdead else 0xbeef in
    let marker =
      { Controller.Api.default_app with
        switch_up =
          (fun ctx ~switch_id ~ports:_ ->
            if switch_id = 1 then
              Controller.Api.schedule ctx ~delay:1.5 (fun () ->
                Controller.Api.install ctx ~switch_id:1 ~priority:99 ~cookie
                  Flow.Pattern.any [])) }
    in
    routing_apps () @ [ marker ]
  in
  (* a huge echo-miss limit keeps the deposed leader fully confident:
     without it, the silence of its adopted sessions (echo replies now
     route to the new owner) would make it mark every switch down and
     queue the marker write instead of transmitting it — the fence must
     be what stops the write, not the keepalive *)
  let r =
    Controller.Replica.create
      ~resilience:{ failover_resilience with echo_miss_limit = 10_000 }
      ~replicas:2 ~lease:0.15 net mk_apps
  in
  Dataplane.Sim.schedule_at (Dataplane.Network.sim net) ~time:0.5 (fun () ->
    Controller.Replica.partition r ~controller_id:0);
  ignore (Dataplane.Network.run ~until:4.0 net ());
  (net, r)

(* ------------------------------------------------------------------ *)
(* Multi-site fabric with heterogeneous delays (E18) *)

(* [sites] 2-spine/2-leaf fat-tree cells (10 us links, 2 hosts per
   leaf), spines joined site-to-site: sites 0-1 by a 20 us metro link,
   every other pair long-haul at 1 ms.  Switch ids are contiguous per
   site, so the block partition with [shards = sites] is one site per
   shard and the shard quotient distances are heterogeneous: the global
   min lookahead is the metro pair's 20 us, while a loaded long-haul
   site can run ~1 ms ahead before anything it posts can come back. *)
let multi_site_topo ~sites () =
  let topo = Topo.Topology.create () in
  let sw s i = Topo.Topology.Node.Switch ((s * 4) + i + 1) in
  for s = 0 to sites - 1 do
    for spine = 0 to 1 do
      for leaf = 2 to 3 do
        Topo.Gen.connect topo (sw s spine) (sw s leaf)
      done
    done
  done;
  let next_host = ref 1 in
  for s = 0 to sites - 1 do
    for leaf = 2 to 3 do
      for _ = 1 to 2 do
        let h = Topo.Topology.Node.Host !next_host in
        incr next_host;
        Topo.Gen.connect topo (sw s leaf) h
      done
    done
  done;
  for a = 0 to sites - 1 do
    for b = a + 1 to sites - 1 do
      let delay = if a = 0 && b = 1 then 20e-6 else 1e-3 in
      Topo.Gen.connect ~delay topo (sw a 0) (sw b 0)
    done
  done;
  topo

(* intra-site flow mix: [flows] pairs inside site [site] (hosts
   4site+1..4site+4), staggered by a 37 us lattice so no two flows'
   event chains ever share a timestamp, the precondition for exact
   sharded == single-domain equivalence *)
let site_flows ~site ~flows ~rate_pps ~start ~stop =
  let h i = (site * 4) + i + 1 in
  let pairs = [| (0, 2); (1, 3); (2, 0); (3, 1); (0, 3); (1, 2) |] in
  List.init flows (fun i ->
    let a, b = pairs.(i mod Array.length pairs) in
    { (Dataplane.Traffic.default_flow ~src:(h a) ~dst:(h b)) with
      rate_pps; pkt_size = 200;
      start = start +. (float_of_int i *. 37e-6);
      stop })

(* the controller-attached fat-tree run: half the hosts send to the
   mirror-image other half on the 37 us lattice *)
let ctl_specs topo =
  let host_ids = Array.of_list (Topo.Topology.host_ids topo) in
  let n = Array.length host_ids in
  List.init (n / 2) (fun i ->
    { (Dataplane.Traffic.default_flow ~src:host_ids.(i)
         ~dst:host_ids.(n - 1 - i))
      with
      rate_pps = 1000.0; pkt_size = 200;
      start = 0.0307 +. (float_of_int i *. 37e-6);
      stop = 0.15 })

(* ------------------------------------------------------------------ *)
(* Policy churn and flow-mod bytes (E17) *)

(* One churn edit: a switch-scoped deny guard (drop dst-host traffic to
   one TCP port at one switch) composed in front of the current policy,
   [Seq (guard, pol)].  The guard touches exactly one switch:
   restricting the composed diagram to any other switch hash-conses
   back to the unedited node, which is what the delta layer's uid
   comparison detects. *)
let apply_edit pol (sw, mac, port) =
  Netkat.Syntax.seq
    (Netkat.Syntax.filter
       (Netkat.Syntax.Not
          (Netkat.Syntax.conj
             (Netkat.Syntax.test Packet.Fields.Switch sw)
             (Netkat.Syntax.conj
                (Netkat.Syntax.test Packet.Fields.Eth_dst mac)
                (Netkat.Syntax.test Packet.Fields.Tp_dst port)))))
    pol

(* seeded (switch, dst-mac, port) churn trace *)
let churn_edits ~seed ~edits topo =
  let prng = Util.Prng.create seed in
  let switches = Array.of_list (Topo.Topology.switch_ids topo) in
  let hosts = Array.of_list (Topo.Topology.host_ids topo) in
  List.init edits (fun i ->
    let sw = switches.(Util.Prng.int prng (Array.length switches)) in
    let h = hosts.(Util.Prng.int prng (Array.length hosts)) in
    (sw, Packet.Mac.of_host_id h, 1024 + i))

let batch_bytes msgs =
  Bytes.length
    (Openflow.Wire.encode_batch (List.mapi (fun i m -> (i + 1, m)) msgs))

(* wire bytes of a full re-push: per switch, delete-all + every rule +
   barrier (what replacing every table would put on the channel) *)
let full_bytes snapshot switches =
  List.fold_left
    (fun acc sw ->
      let rules = Option.value ~default:[] (Netkat.Delta.find snapshot sw) in
      let msgs =
        Openflow.Message.Flow_mod
          (Openflow.Message.delete_flow ~pattern:Flow.Pattern.any ())
        :: List.map
             (fun (r : Netkat.Delta.rule) ->
               Openflow.Message.Flow_mod
                 (Openflow.Message.add_flow ~priority:r.priority
                    ~pattern:r.pattern ~actions:r.actions ()))
             rules
        @ [ Openflow.Message.Barrier_request ]
      in
      acc + batch_bytes msgs)
    0 switches

(* wire bytes of the delta push: each switch's
   [Controller.Api.change_flow_mods] + barrier, only to the switches
   that changed *)
let delta_bytes ~previous (result : Netkat.Delta.result) =
  List.fold_left
    (fun acc (sw, change) ->
      match
        Controller.Api.change_flow_mods
          ~known:(Controller.Api.known_switch previous sw) change
      with
      | [] -> acc
      | fms ->
        acc
        + batch_bytes
            (List.map (fun fm -> Openflow.Message.Flow_mod fm) fms
             @ [ Openflow.Message.Barrier_request ]))
    0 result.changes

(* per-switch live tables of [net], as numbered rules highest first *)
let live_tables net switches =
  List.map
    (fun sw ->
      ( sw,
        List.map
          (fun (r : Flow.Table.rule) ->
            { Netkat.Delta.priority = r.priority; pattern = r.pattern;
              actions = r.actions })
          (Flow.Table.rules
             (Dataplane.Network.switch (Zen.network net) sw).table) ))
    switches

(* per-switch ordered lists of a from-scratch compile *)
let scratch_tables fdd switches =
  List.map (fun sw -> (sw, Netkat.Local.rules_of_fdd ~switch:sw fdd)) switches

(* A probe header for [pat]: its constrained fields set, the rest from
   [Headers.default]. *)
let header_of_pattern (pat : Flow.Pattern.t) =
  let set f v h =
    match v with Some v -> Packet.Headers.set h f v | None -> h
  in
  let net = Option.map Packet.Ipv4.Prefix.network in
  Packet.Headers.default
  |> set Packet.Fields.In_port pat.in_port
  |> set Packet.Fields.Eth_src pat.eth_src
  |> set Packet.Fields.Eth_dst pat.eth_dst
  |> set Packet.Fields.Eth_type pat.eth_type
  |> set Packet.Fields.Vlan pat.vlan
  |> set Packet.Fields.Ip_proto pat.ip_proto
  |> set Packet.Fields.Ip4_src (net pat.ip4_src)
  |> set Packet.Fields.Ip4_dst (net pat.ip4_dst)
  |> set Packet.Fields.Tp_src pat.tp_src
  |> set Packet.Fields.Tp_dst pat.tp_dst

let probe_fields =
  Packet.Fields.
    [| In_port; Eth_src; Eth_dst; Eth_type; Vlan; Ip_proto; Ip4_src;
       Ip4_dst; Tp_src; Tp_dst |]

(* [table_mismatch ~seed got want] checks that [got], a delta-maintained
   table highest priority first, encodes [want], the compiler's ordered
   list: the same (pattern, actions) list with strictly decreasing
   priorities, and the same winning rule on [probes] seeded headers
   ([Table.lookup] on [got] loaded into a table, the first match in list
   order on [want]).  Each probe takes one rule's pattern and, half the
   time, one field's value from another rule's, so probes land on every
   rule, on the rules it shadows, and between them.  [None] when all
   hold, else what failed. *)
let table_mismatch ?(probes = 200) ~seed (got : Netkat.Delta.rule list)
    (want : Netkat.Local.rule list) =
  let rec decreasing = function
    | (r1 : Netkat.Delta.rule) :: (r2 :: _ as rest) ->
      r1.priority > r2.priority && decreasing rest
    | _ -> true
  in
  if List.map (fun (r : Netkat.Delta.rule) -> (r.pattern, r.actions)) got
     <> want
  then Some "ordered (pattern, actions) lists differ"
  else if not (decreasing got) then Some "priorities not strictly decreasing"
  else begin
    let got_t = Flow.Table.create () in
    List.iter
      (fun (r : Netkat.Delta.rule) ->
        Flow.Table.add got_t
          (Flow.Table.make_rule ~priority:r.priority ~pattern:r.pattern
             ~actions:r.actions ()))
      got;
    let pats = Array.of_list (List.map fst want) in
    let prng = Util.Prng.create seed in
    let rec go i =
      if i = probes then None
      else begin
        let h =
          if pats = [||] then Packet.Headers.default
          else begin
            let h = header_of_pattern (Util.Prng.pick prng pats) in
            if Util.Prng.int prng 2 = 0 then h
            else
              let f = Util.Prng.pick prng probe_fields in
              Packet.Headers.set h f
                (Packet.Headers.get
                   (header_of_pattern (Util.Prng.pick prng pats)) f)
          end
        in
        if
          Option.map
            (fun (r : Flow.Table.rule) -> (r.pattern, r.actions))
            (Flow.Table.lookup got_t h)
          <> List.find_opt (fun (p, _) -> Flow.Pattern.matches p h) want
        then Some (Format.asprintf "lookup differs on %a" Packet.Headers.pp h)
        else go (i + 1)
      end
    in
    go 0
  end

(* [edits] seeded churn edits on fat-tree [k] routing, compiled by
   deltas with no network attached: (rules deployed after the last
   edit, full re-push bytes, delta bytes, switch skips),
   summed over the edits *)
let churn_accounting ~k ~seed ~edits =
  Netkat.Fdd.clear_cache ();
  let topo, _ = Topo.Gen.fat_tree ~k () in
  let switches = Topo.Topology.switch_ids topo in
  let base = Netkat.Builder.routing_policy topo in
  let r0 = Netkat.Delta.compile ~switches None (Netkat.Fdd.of_policy base) in
  let snap = ref r0.snapshot in
  let pol = ref base in
  let full_b = ref 0 and delta_b = ref 0 and skipped = ref 0 in
  List.iter
    (fun edit ->
      pol := apply_edit !pol edit;
      let result =
        Netkat.Delta.compile ~switches (Some !snap) (Netkat.Fdd.of_policy !pol)
      in
      full_b := !full_b + full_bytes result.snapshot switches;
      delta_b := !delta_b + delta_bytes ~previous:(Some !snap) result;
      skipped := !skipped + result.skipped;
      snap := result.snapshot)
    (churn_edits ~seed ~edits topo);
  (Netkat.Delta.total_rules !snap, !full_b, !delta_b, !skipped)
