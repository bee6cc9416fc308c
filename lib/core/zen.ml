module Slice = Slice

module Wan = Wan

type net = {
  network : Dataplane.Network.t;
  mutable delta_snap : Netkat.Delta.snapshot option;
      (* last compile's per-switch certificates, the next install's base *)
}

let create ?queue_depth ?fault topo =
  { network = Dataplane.Network.create ?queue_depth ?fault topo;
    delta_snap = None }

let topology t = Dataplane.Network.topology t.network
let network t = t.network
let now t = Dataplane.Network.now t.network

let install_fdd t fdd =
  let previous = t.delta_snap in
  let result =
    Netkat.Delta.compile
      ~switches:(Topo.Topology.switch_ids (topology t)) previous fdd
  in
  t.delta_snap <- Some result.snapshot;
  Controller.Api.load_delta ~previous
    ~table_of:(fun id -> (Dataplane.Network.switch t.network id).table)
    result;
  Netkat.Delta.total_rules result.snapshot

let install_policy t pol = install_fdd t (Netkat.Fdd.of_policy pol)

let install_policy_string t s =
  install_policy t (Netkat.Parser.pol_of_string s)

let with_controller ?resilience t apps =
  Controller.Runtime.create_and_handshake ?resilience t.network apps

let with_replicas ?resilience ?replicas ?lease t mk_apps =
  let r =
    Controller.Replica.create ?resilience ?replicas ?lease t.network mk_apps
  in
  let horizon = now t +. (20.0 *. Dataplane.Ctl_channel.latency) in
  ignore (Dataplane.Network.run ~until:horizon t.network ());
  r

let run ?until ?max_events t =
  Dataplane.Network.run ?until ?max_events t.network ()

(* ------------------------------------------------------------------ *)
(* Sharded simulation (see {!Dataplane.Shard}) *)

let create_sharded ?queue_depth ?fault_config ~shards ?partition topo =
  Dataplane.Shard.create ?queue_depth ?fault_config ?partition ~shards topo

let install_policy_sharded t pol =
  let result =
    Netkat.Delta.compile_policy
      ~switches:(Topo.Topology.switch_ids (Dataplane.Shard.topology t))
      None pol
  in
  Controller.Api.load_delta ~previous:None
    ~table_of:(fun id ->
      (Dataplane.Network.switch (Dataplane.Shard.net_of_switch t id) id).table)
    result;
  Netkat.Delta.total_rules result.snapshot

let run_sharded ?until t = Dataplane.Shard.run ?until t

let snapshot t : Verify.Reach.snapshot =
  { topo = topology t;
    tables =
      (fun switch_id ->
        Flow.Table.rules (Dataplane.Network.switch t.network switch_id).table) }

let reachable t ~src ~dst = Verify.Reach.reachable (snapshot t) ~src ~dst

let ping ?(count = 3) ?(interval = 0.01) t ~src ~dst =
  Dataplane.Traffic.install_responders t.network;
  let result = Dataplane.Traffic.ping t.network ~src ~dst ~count ~interval in
  let horizon = now t +. (float_of_int count *. interval) +. 1.0 in
  ignore (run ~until:horizon t);
  List.rev_map snd !(result.rtts)

let version = "1.0.0"
