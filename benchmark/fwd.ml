(* Open-loop forwarding on proactively compiled tables: the simulator's
   event loop, the exact-match flow cache and the tuple-space
   classifier, with no control plane.  The timed phase advances the
   simulation one millisecond at a time; each step is one operation. *)

module Network = Dataplane.Network
module Shard = Dataplane.Shard

type config = {
  k : int;  (* fat-tree arity *)
  flows : int;  (* CBR flows, 1 kpps, 200 B, staggered starts *)
  fresh_ports : bool;
      (* a fresh tp_src on every packet, so every lookup misses the
         exact-match cache *)
  shards : int option;  (* run on the sharded simulator *)
  steps : int;  (* simulated milliseconds in the timed phase *)
}

let step = 1e-3

type engine = Single of Zen.net | Sharded of Shard.t

let net_of_host engine h =
  match engine with
  | Single z -> Zen.network z
  | Sharded s -> Shard.net_of_host s h

let table engine sw =
  match engine with
  | Single z -> (Network.switch (Zen.network z) sw).table
  | Sharded s -> (Network.switch (Shard.net_of_switch s sw) sw).table

let stats = function
  | Single z -> Network.stats (Zen.network z)
  | Sharded s -> Shard.stats s

let run_until engine t =
  match engine with
  | Single z -> Zen.run ~until:t z
  | Sharded s -> Zen.run_sharded ~until:t s

let shard_layers = function
  | Single _ -> Measure.zeros Measure.shard_metrics
  | Sharded s ->
    [ ("shard.rounds", float_of_int (Shard.rounds s));
      ("shard.handoffs", float_of_int (Shard.handoffs s));
      ("shard.stalls", float_of_int (Shard.stalls s));
      ("shard.steals", float_of_int (Shard.steals s)) ]

(* metrics of the control plane, which this workload does not use *)
let no_control =
  Measure.zeros
    [ "netkat.rederived_per_edit"; "controller.batches_per_edit";
      "controller.flowmods_per_edit"; "controller.retransmits_per_edit";
      "controller.switch_downs"; "controller.resyncs";
      "controller.dropped_batches"; "replica.failovers";
      "replica.repl_msgs_per_edit"; "replica.fenced_writes";
      "openflow.ctl_bytes_per_edit"; "openflow.ctl_msgs_per_edit";
      "dataplane.ctl_drops"; "dataplane.ctl_dups" ]

let run cfg ~seed ~t_start : Measure.t =
  let prng = Util.Prng.create seed in
  let topo, _ = Topo.Gen.fat_tree ~k:cfg.k () in
  let pol =
    Spans.with_span "netkat.builder" (fun () ->
      Netkat.Builder.routing_policy topo)
  in
  let engine =
    Spans.with_span "netkat.initial_install" (fun () ->
      match cfg.shards with
      | None ->
        let z = Zen.create topo in
        ignore (Zen.install_policy z pol);
        Single z
      | Some shards ->
        let s = Zen.create_sharded ~shards topo in
        ignore (Zen.install_policy_sharded s pol);
        Sharded s)
  in
  (* the last packets leave 0.5 ms before the horizon, far longer than
     any path takes, so every packet is delivered in the timed phase *)
  let horizon = float_of_int cfg.steps *. step in
  let hosts = Array.of_list (Topo.Topology.host_ids topo) in
  (* each flow has its own tp_dst, so flows between the same two hosts
     never share a header *)
  let flows =
    List.init cfg.flows (fun i ->
      let src = Util.Prng.pick prng hosts in
      let dst = Edits.pick_other prng hosts src in
      let tp_src = if cfg.fresh_ports then None else Some 20000 in
      let tp_dst = 1024 + i in
      let sent =
        Dataplane.Traffic.cbr (net_of_host engine src)
          { (Dataplane.Traffic.default_flow ~src ~dst) with
            rate_pps = 1000.0; pkt_size = 200;
            start = Util.Prng.float prng 1e-3; stop = horizon -. 0.5e-3;
            tp_src; tp_dst }
      in
      (src, dst, tp_src, tp_dst, sent))
  in
  let switch_ids = Topo.Topology.switch_ids topo in
  let tables () = List.map (table engine) switch_ids in
  let cache0 = Measure.cache_counters (tables ()) in
  Gc.full_major ();
  let setup_s = Spans.now () -. t_start in
  let walls = ref [] and events = ref 0 in
  for j = 1 to cfg.steps do
    Spans.op := j - 1;
    let wall = ref 0.0 in
    Spans.timed wall "dataplane.run" (fun () ->
      events := !events + run_until engine (float_of_int j *. step));
    walls := !wall :: !walls
  done;
  Spans.op := -1;
  let timed_s = List.fold_left ( +. ) 0.0 !walls in
  let cache1 = Measure.cache_counters (tables ()) in
  let s = stats engine in
  let sent = List.fold_left (fun a (_, _, _, _, c) -> a + !c) 0 flows in
  let errors =
    List.filter_map
      (fun (bad, msg) -> if bad then Some msg else None)
      [ (s.delivered <> sent,
         Printf.sprintf "%d packets sent, %d delivered" sent s.delivered);
        (s.dropped_miss > 0, Printf.sprintf "%d table misses" s.dropped_miss);
        (s.dropped_ttl > 0, Printf.sprintf "%d ttl expiries" s.dropped_ttl);
        (s.dropped_policy + s.dropped_queue + s.dropped_link > 0,
         "packets dropped by policy, queue or link") ]
  in
  let replays =
    if not !Spans.enabled then []
    else
      (* the headers each flow presents at its edge switch; a fresh-port
         flow's first eight packets stand for its stream *)
      let headers =
        List.concat_map
          (fun (src, dst, tp_src, tp_dst, _) ->
            let ports =
              match tp_src with
              | Some p -> [ p ]
              | None -> List.init 8 (fun n -> 10000 + n)
            in
            List.map
              (fun tp_src -> Measure.ingress_header topo ~src ~dst ~tp_src ~tp_dst)
              ports)
          flows
      in
      Measure.replay_layers topo
        ~lookups:(Measure.by_switch headers (table engine))
        ~batches:
          (List.map (fun sw -> Replay.install_batch sw (table engine sw))
             switch_ids)
  in
  { Measure.setup_s;
    timed_s;
    op_walls = !walls;
    throughput = (if timed_s > 0.0 then float_of_int s.delivered /. timed_s else 0.0);
    attempted = sent;
    failed = sent - s.delivered;
    errors;
    layers =
      no_control
      @ [ ("dataplane.events_per_s",
           if timed_s > 0.0 then float_of_int !events /. timed_s else 0.0);
          ("dataplane.events_per_delivered", Measure.ratio !events s.delivered);
          ("dataplane.dropped_queue", float_of_int s.dropped_queue) ]
      @ shard_layers engine
      @ Measure.cache_layers ~before:cache0 ~after:cache1 ~ops:0
      @ replays;
    diag = [] }
