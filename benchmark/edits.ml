(* Closed-loop policy edits on a controller-driven network: the
   intent-to-packet path.

   Edit [i] composes a deny guard with the base routing policy,
   [Seq (guard_i, base)], and installs it through
   [Controller.Update.install_plain].  The guard drops
   (edge switch of dst, Eth_dst = dst, Tp_dst = 1024 + i) and replaces
   guard [i - 1].  One operator keeps one edit outstanding: the next edit
   is issued when the previous one completes, i.e. when a probe sent
   from a host beside dst has seen the new verdict {e and} every switch
   table equals the leader's intended table.  Background CBR flows run
   open-loop in simulated time throughout.

   Only the library calls are timed ([install_plain] and the
   [Network.run] chunks); the benchmark's own checks run with the clock
   stopped. *)

module Network = Dataplane.Network
module Runtime = Controller.Runtime
module Replica = Controller.Replica
module Syntax = Netkat.Syntax

type config = {
  k : int;  (* fat-tree arity *)
  replicated : bool;
      (* two replicas under e19-class control chaos, with leader outages *)
  edits : int;
  outage_every : int;  (* replicated: crash the leader every n-th edit *)
  deadline : float;  (* simulated seconds an edit may take to complete *)
}

type controller = Single of Runtime.t | Replicated of Replica.t

let leader_runtime = function
  | Single rt -> Some rt
  | Replicated r -> Replica.leader_runtime r

let leader_id = function Single _ -> Some 0 | Replicated r -> Replica.leader r

type edit = { dst : int; edge : int; prober : int; port : int }

type state = {
  cfg : config;
  topo : Topo.Topology.t;
  net : Network.t;
  ctl : controller;
  upd : Controller.Update.t;
  base : Syntax.pol;
  prng : Util.Prng.t;
  hosts : int array;
  switch_ids : int list;
  verified : (int, Flow.Table.rule list * Flow.Table.rule list) Hashtbl.t;
      (* per switch, the (installed, intended) rule lists last found
         equal; a table rebuilds its rule list on every change, so
         physically equal lists need no second comparison *)
  (* probe deliveries: the current edit's verdict probes carry tag
     [2i + 1]; release probes [2i + 2] check that guard [i] is gone *)
  mutable verdict_tag : int;
  mutable verdict_rx : int;
  mutable probe_rx : int;
  released : (int, unit) Hashtbl.t;
  mutable events : int;
  mutable outage_clear : float;  (* no leader crash before this sim time *)
  mutable runtimes : Runtime.t list;  (* every leader runtime seen *)
  (* traced-run accounting through the wrapped [send_batch] *)
  mutable batches : int;
  mutable flowmods : int;
  mutable captured : (int * Openflow.Message.t list) list;
  mutable captured_mods : int;
}

(* open-loop CBR flows, fixed 5-tuples, 1 kpps each *)
let background = 64

(* flow-mods kept for the codec and apply replays *)
let capture_limit = 20_000

let rule_keys rules =
  List.sort compare
    (List.map
       (fun (r : Flow.Table.rule) -> (r.priority, r.pattern, r.actions, r.cookie))
       rules)

let converged st =
  match leader_runtime st.ctl with
  | None -> false
  | Some rt ->
    List.for_all
      (fun sid ->
        let installed = Flow.Table.rules (Network.switch st.net sid).table in
        let intended = Runtime.intended_rules rt ~switch_id:sid in
        match Hashtbl.find_opt st.verified sid with
        | Some (a, b) when a == installed && b == intended -> true
        | Some _ | None ->
          let same = rule_keys installed = rule_keys intended in
          if same then Hashtbl.replace st.verified sid (installed, intended);
          same)
      st.switch_ids

(* the leader's ctx; in a traced run its [send_batch] is wrapped to
   count, capture and span every batch *)
let leader_ctx st =
  match leader_runtime st.ctl with
  | None -> None
  | Some rt ->
    if not (List.memq rt st.runtimes) then st.runtimes <- rt :: st.runtimes;
    let c = Runtime.ctx rt in
    if not !Spans.enabled then Some c
    else
      Some
        { c with
          send_batch =
            (fun ~switch_id msgs ->
              let mods =
                List.length
                  (List.filter
                     (fun (m : Openflow.Message.t) ->
                       match m with Flow_mod _ -> true | _ -> false)
                     msgs)
              in
              st.batches <- st.batches + 1;
              st.flowmods <- st.flowmods + mods;
              if st.captured_mods < capture_limit then begin
                st.captured <- (switch_id, msgs) :: st.captured;
                st.captured_mods <- st.captured_mods + mods
              end;
              Spans.with_span "controller.send_batch" (fun () ->
                c.send_batch ~switch_id msgs)) }

let pick_other prng arr x =
  let rec go () =
    let y = Util.Prng.pick prng arr in
    if y = x then go () else y
  in
  go ()

let draw_edit st i =
  let dst = Util.Prng.pick st.prng st.hosts in
  let edge =
    match Topo.Topology.attachment st.topo dst with
    | Some (sw, _) -> sw
    | None -> invalid_arg "draw_edit: host has no edge switch"
  in
  let mates =
    Array.of_list (List.map fst (Topo.Topology.hosts_of_switch st.topo edge))
  in
  { dst; edge; prober = pick_other st.prng mates dst; port = 1024 + i }

let guard e =
  Syntax.filter
    (Syntax.neg
       (Syntax.conj
          (Syntax.test Packet.Fields.Switch e.edge)
          (Syntax.conj
             (Syntax.test Packet.Fields.Eth_dst (Packet.Mac.of_host_id e.dst))
             (Syntax.test Packet.Fields.Tp_dst e.port))))

let send_probe st e ~tag ~at =
  Dataplane.Sim.schedule_at (Network.sim st.net) ~time:at (fun () ->
    Network.send_from st.net ~host:e.prober
      (Network.make_pkt ~size:64 ~tag ~tp_src:40000 ~tp_dst:e.port
         ~src:e.prober ~dst:e.dst ()))

(* Probe [j] leaves [probe_offset j] after issue: every 20 us for the
   first 10 ms, then every 1 ms.  The simulation advances in 1 ms chunks
   with each chunk's probes scheduled ahead.  Probes share one path and
   the guard, once installed, stays, so the delivered probes are a
   prefix of those sent: the first probe that was resolved (sent
   [resolve] before the chunk ended, time enough to cross two hops) but
   is not among the delivered ones saw the verdict. *)
let probe_offset j =
  if j <= 500 then float_of_int j *. 20e-6
  else 10e-3 +. (float_of_int (j - 500) *. 1e-3)

let chunk = 1e-3
let resolve = 50e-6

let run_until st stop =
  st.events <- st.events + Network.run ~until:stop st.net ()

(* run in 10 ms chunks until converged or [limit] *)
let settle st ~limit =
  while (not (converged st)) && Network.now st.net < limit do
    run_until st (Network.now st.net +. 10e-3)
  done;
  converged st

type outcome = {
  wall : float;                 (* timed library calls, seconds *)
  verdict_sim : float option;   (* issue -> send of the first probe seeing it *)
  complete_sim : float option;  (* issue -> end of the chunk it completed in *)
  wrong_verdict : bool;         (* converged, yet no probe was dropped *)
}

(* crash the leader just after it starts pushing every n-th edit, for
   0.2 s, once the previous outage's member has rejoined and synced:
   with both members down no leader could ever be elected again *)
let maybe_crash_leader st i t0 =
  match (st.ctl, leader_id st.ctl) with
  | Replicated _, Some l
    when (i + 1) mod st.cfg.outage_every = 0 && t0 >= st.outage_clear ->
    Network.inject st.net
      [ Dataplane.Fault.Controller_outage
          { controller_id = l; at = t0 +. 0.5e-3; duration = 0.2 } ];
    st.outage_clear <- t0 +. 0.5e-3 +. 0.2 +. 0.3
  | _ -> ()

let run_edit st i e =
  let pol = Syntax.seq (guard e) st.base in
  let wall = ref 0.0 in
  let t0 = Network.now st.net in
  Spans.op := i;
  st.verdict_tag <- (2 * i) + 1;
  st.verdict_rx <- 0;
  maybe_crash_leader st i t0;
  let submit () =
    match leader_ctx st with
    | None -> false
    | Some ctx ->
      Spans.timed wall "netkat.install_plain" (fun () ->
        Controller.Update.install_plain st.upd ctx pol);
      true
  in
  (* the leader the edit was last submitted to; an edit whose leader
     died is submitted once more, to the successor *)
  let submitted = ref (if submit () then leader_id st.ctl else None) in
  let resubmitted = ref false in
  let sent = ref 0 and resolved = ref 0 and verdict = ref None in
  let rec advance c =
    let stop = float_of_int c *. chunk in
    if stop > st.cfg.deadline then None
    else begin
      while probe_offset !sent <= stop do
        send_probe st e ~tag:st.verdict_tag ~at:(t0 +. probe_offset !sent);
        incr sent
      done;
      Spans.timed wall "dataplane.run" (fun () -> run_until st (t0 +. stop));
      while !resolved < !sent && probe_offset !resolved <= stop -. resolve do
        incr resolved
      done;
      if !verdict = None && st.verdict_rx < !resolved then
        verdict := Some (probe_offset st.verdict_rx);
      (match leader_id st.ctl with
       | Some l when Some l <> !submitted && not !resubmitted ->
         if !submitted <> None then resubmitted := true;
         if submit () then submitted := Some l
       | Some _ | None -> ());
      if !verdict <> None && converged st then Some stop else advance (c + 1)
    end
  in
  let complete_sim = advance 1 in
  { wall = !wall; verdict_sim = !verdict; complete_sim;
    wrong_verdict = complete_sim = None && !verdict = None && converged st }

(* returns the background flows as (src, dst, tp_src, sent counter) *)
let setup cfg ~seed =
  let prng = Util.Prng.create seed in
  let topo, _ = Topo.Gen.fat_tree ~k:cfg.k () in
  let base =
    Spans.with_span "netkat.builder" (fun () ->
      Netkat.Builder.routing_policy topo)
  in
  let fault =
    if cfg.replicated then
      Some (Dataplane.Fault.create ~seed ~drop:0.05 ~dup:0.05 ~jitter:1e-3 ())
    else None
  in
  let z = Zen.create ?fault topo in
  let net = Zen.network z in
  let resilience = Runtime.default_resilience in
  let ctl =
    if cfg.replicated then
      Replicated (Zen.with_replicas ~resilience ~replicas:2 z (fun () -> []))
    else Single (Zen.with_controller ~resilience z [])
  in
  let switch_ids = Topo.Topology.switch_ids topo in
  let st =
    { cfg; topo; net; ctl; upd = Controller.Update.create (); base; prng;
      hosts = Array.of_list (Topo.Topology.host_ids topo); switch_ids;
      verified = Hashtbl.create 64; verdict_tag = -1; verdict_rx = 0;
      probe_rx = 0; released = Hashtbl.create 64; events = 0;
      outage_clear = 0.0; runtimes = []; batches = 0; flowmods = 0;
      captured = []; captured_mods = 0 }
  in
  List.iter
    (fun (h : Network.host) ->
      h.on_receive <-
        Some
          (fun pkt ->
            if pkt.tag > 0 then begin
              st.probe_rx <- st.probe_rx + 1;
              if pkt.tag = st.verdict_tag then st.verdict_rx <- st.verdict_rx + 1
              else if pkt.tag land 1 = 0 then Hashtbl.replace st.released pkt.tag ()
            end))
    (Network.host_list net);
  (match ctl with
   | Single rt when !Spans.enabled ->
     (* time the controller's up-calls: re-home every switch session to
        a spanned wrapper of the same handler *)
     let h = Runtime.handler rt in
     List.iter
       (fun sid ->
         Network.adopt (Network.ctl_channel net sid) (fun ~switch_id data ->
           Spans.with_span "controller.upcall" (fun () -> h ~switch_id data)))
       switch_ids
   | Single _ | Replicated _ -> ());
  Spans.with_span "netkat.initial_install" (fun () ->
    (match leader_ctx st with
     | Some ctx -> Controller.Update.install_plain st.upd ctx base
     | None -> failwith "no leader after the handshake");
    if not (settle st ~limit:(Network.now net +. 10.0)) then
      failwith "the initial install did not converge");
  let t0 = Network.now net in
  let flows =
    List.init background (fun i ->
      let src = Util.Prng.pick prng st.hosts in
      let dst = pick_other prng st.hosts src in
      let tp_src = 20000 + i in
      let sent =
        Dataplane.Traffic.cbr net
          { (Dataplane.Traffic.default_flow ~src ~dst) with
            rate_pps = 1000.0; pkt_size = 200;
            start = t0 +. Util.Prng.float prng 1e-3; stop = infinity;
            tp_src = Some tp_src }
      in
      (src, dst, tp_src, sent))
  in
  (st, flows)

(* the counters the per-layer metrics are deltas of *)
type snapshot = {
  ctl_stats : Network.counters;
  resil : int * int * int * int;
      (* retransmits, switch downs, resyncs, dropped batches, summed over
         every leader runtime seen *)
  repl : int * int;  (* failovers, inter-controller messages *)
  chaos : int * int;  (* control frames dropped, duplicated *)
  cache : Measure.cache;
  skipped : int;
}

let snapshot st =
  let resil =
    List.fold_left
      (fun (a, b, c, d) rt ->
        let s = Runtime.resilience_stats rt in
        (a + s.retransmits, b + s.switch_downs, c + s.resyncs,
         d + s.dropped_batches))
      (0, 0, 0, 0) st.runtimes
  in
  let c = Network.stats st.net in
  { ctl_stats = { c with delivered = c.delivered };  (* a copy *)
    resil;
    repl =
      (match st.ctl with
       | Replicated r ->
         let s = Replica.stats r in
         (s.failovers, s.repl_msgs)
       | Single _ -> (0, 0));
    chaos =
      (match Network.fault st.net with
       | Some f -> (Dataplane.Fault.drops f, Dataplane.Fault.dups f)
       | None -> (0, 0));
    cache =
      Measure.cache_counters
        (List.map (fun sid -> (Network.switch st.net sid).table) st.switch_ids);
    skipped = Controller.Update.skipped_switches st.upd }

let layers st ~before ~after ~edits =
  let per_edit x = Measure.ratio x edits in
  let count x = float_of_int x in
  let r0, d0, s0, b0 = before.resil and r1, d1, s1, b1 = after.resil in
  let f0, m0 = before.repl and f1, m1 = after.repl in
  let x0, u0 = before.chaos and x1, u1 = after.chaos in
  let c0 = before.ctl_stats and c1 = after.ctl_stats in
  let run_s = Spans.total "dataplane.run" in
  [ ("netkat.rederived_per_edit",
     count (List.length st.switch_ids) -. per_edit (after.skipped - before.skipped));
    ("controller.batches_per_edit", per_edit st.batches);
    ("controller.flowmods_per_edit", per_edit st.flowmods);
    ("controller.retransmits_per_edit", per_edit (r1 - r0));
    ("controller.switch_downs", count (d1 - d0));
    ("controller.resyncs", count (s1 - s0));
    ("controller.dropped_batches", count (b1 - b0));
    ("replica.failovers", count (f1 - f0));
    ("replica.repl_msgs_per_edit", per_edit (m1 - m0));
    ("replica.fenced_writes", count (c1.fenced_writes - c0.fenced_writes));
    ("openflow.ctl_bytes_per_edit", per_edit (c1.control_bytes - c0.control_bytes));
    ("openflow.ctl_msgs_per_edit", per_edit (c1.control_msgs - c0.control_msgs));
    ("dataplane.events_per_s",
     if run_s > 0.0 then float_of_int st.events /. run_s else 0.0);
    ("dataplane.events_per_delivered",
     Measure.ratio st.events (c1.delivered - c0.delivered));
    ("dataplane.ctl_drops", count (x1 - x0));
    ("dataplane.ctl_dups", count (u1 - u0));
    ("dataplane.dropped_queue", count (c1.dropped_queue - c0.dropped_queue)) ]
  @ Measure.zeros Measure.shard_metrics
  @ Measure.cache_layers ~before:before.cache ~after:after.cache ~ops:edits

(* trial end, clock stopped: let in-flight batches and the last release
   probe land, then check the final state; returns the failed checks *)
let final_checks st flows ~releases =
  run_until st (Network.now st.net +. 2e-3);
  let s = Network.stats st.net in
  let punted =
    List.fold_left
      (fun a (sw : Network.switch) -> a + sw.packet_ins)
      0 (Network.switch_list st.net)
  in
  let lost =
    s.dropped_miss + s.dropped_queue + s.dropped_link + s.dropped_ttl
    + s.dropped_down + s.dropped_chaos + punted
  in
  let bg_sent = List.fold_left (fun a (_, _, _, c) -> a + !c) 0 flows in
  let bg_delivered = s.delivered - st.probe_rx in
  let in_flight = bg_sent - bg_delivered in
  List.filter_map
    (fun (bad, msg) -> if bad then Some msg else None)
    [ (not (settle st ~limit:(Network.now st.net +. 10.0)),
       "switch tables differ from the leader's intended tables");
      ((match st.ctl with
        | Replicated r -> Replica.diverged r <> []
        | Single _ -> false),
       "Replica.diverged is not empty");
      (List.exists (fun tag -> not (Hashtbl.mem st.released tag)) releases,
       "a release probe was dropped: a replaced guard stayed installed");
      (lost > 0,
       Printf.sprintf "%d data packets dropped or punted to the controller" lost);
      (in_flight < 0 || in_flight > List.length flows,
       Printf.sprintf "background: %d sent, %d delivered" bg_sent bg_delivered) ]

let run cfg ~seed ~t_start : Measure.t =
  let st, flows = setup cfg ~seed in
  let before = snapshot st in
  st.batches <- 0;
  st.flowmods <- 0;
  st.events <- 0;
  Gc.full_major ();
  let setup_s = Spans.now () -. t_start in
  let walls = ref [] and verdicts = ref [] and acks = ref [] in
  let releases = ref [] and prev = ref None and wrong = ref [] in
  for i = 0 to cfg.edits - 1 do
    let e = draw_edit st i in
    let o = run_edit st i e in
    walls := o.wall :: !walls;
    Option.iter (fun v -> verdicts := v :: !verdicts) o.verdict_sim;
    (match o.complete_sim with
     | Some c ->
       acks := c :: !acks;
       Option.iter
         (fun (pi, pe) ->
           let tag = (2 * pi) + 2 in
           send_probe st pe ~tag ~at:(Network.now st.net);
           releases := tag :: !releases)
         !prev
     | None ->
       if o.wrong_verdict then
         wrong :=
           Printf.sprintf "edit %d: tables converged but no probe was dropped" i
           :: !wrong);
    prev := Some (i, e)
  done;
  Spans.op := -1;
  let timed_s = List.fold_left ( +. ) 0.0 !walls in
  let errors = List.rev !wrong @ final_checks st flows ~releases:!releases in
  let after = snapshot st in
  let done_ = List.length !acks in
  let replays =
    if not !Spans.enabled then []
    else
      let headers =
        List.map
          (fun (src, dst, tp_src, _) ->
            Measure.ingress_header st.topo ~src ~dst ~tp_src ~tp_dst:80)
          flows
      in
      Measure.replay_layers st.topo
        ~lookups:
          (Measure.by_switch headers (fun sw -> (Network.switch st.net sw).table))
        ~batches:(List.rev st.captured)
  in
  let failover_samples =
    match st.ctl with
    | Replicated r -> Replica.failover_samples r
    | Single _ -> []
  in
  let ms xs p = 1e3 *. Measure.percentile xs p in
  { Measure.setup_s;
    timed_s;
    op_walls = !walls;
    throughput = (if timed_s > 0.0 then float_of_int done_ /. timed_s else 0.0);
    attempted = cfg.edits;
    failed = cfg.edits - done_;
    errors;
    layers = layers st ~before ~after ~edits:cfg.edits @ replays;
    diag =
      [ ("verdict_sim_p50_ms", ms !verdicts 50.0);
        ("verdict_sim_p95_ms", ms !verdicts 95.0);
        ("ack_sim_p50_ms", ms !acks 50.0);
        ("ack_sim_p95_ms", ms !acks 95.0);
        ("failover_sim_p50_ms", ms failover_samples 50.0) ] }
