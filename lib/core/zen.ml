(** The public facade of the toolkit — the four architectural pillars
    behind one small API.

    {ol
    {- {b Separated planes}: build a topology ({!Topo.Gen}), instantiate
       a simulated dataplane ({!create}), and either program it directly
       ({!install_policy}) or attach a controller with apps
       ({!with_controller}).}
    {- {b Declarative policy}: express intent in the policy language
       ({!Netkat.Syntax}, {!Netkat.Parser}) and let the FDD compiler
       produce the tables.}
    {- {b Slicing}: {!Slice} compiles coexisting tenants onto one
       substrate.}
    {- {b Verification}: {!snapshot} extracts the installed tables for
       header-space analysis ({!Verify.Reach}).}}

    See [examples/] for complete programs built on this module. *)

(** Network slicing (re-exported — this file is the library root). *)
module Slice = Slice

(** TE-allocation realization and validation (re-exported). *)
module Wan = Wan

type net = {
  network : Dataplane.Network.t;
  mutable runtime : Controller.Runtime.t option;
  mutable delta_snap : Netkat.Delta.snapshot option;
      (* last compile's per-switch certificates, the next install's base *)
}

(** [create topo] instantiates the simulated network (empty tables).
    [fault] attaches a chaos layer to the control channel (see
    {!Dataplane.Fault}); without it the network has no fault layer. *)
let create ?queue_depth ?fault topo =
  { network = Dataplane.Network.create ?queue_depth ?fault topo;
    runtime = None; delta_snap = None }

let topology t = Dataplane.Network.topology t.network
let network t = t.network
let now t = Dataplane.Network.now t.network

(** [install_fdd t fdd] compiles an already-built diagram and loads
    every switch's table directly (the "compiled, proactive, no
    controller" mode).  Returns total rules installed.

    The compile runs through {!Netkat.Delta} against the previous
    install's snapshot (the first install compiles against none), and
    {!Controller.Api.load_delta} applies the result through the same
    change → flow-mod mapping a controller push sends: switches whose
    restricted diagram is uid-unchanged are not touched at all (their
    flow caches stay warm), a switch new to the snapshot gets a cookie-0
    replacement, and the rest get in-place add/strict-delete edits.
    @raise Netkat.Local.Not_local on policies with links. *)
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

(** [install_policy t pol] — {!install_fdd} from policy syntax.
    Returns total rules installed.
    @raise Netkat.Local.Not_local on policies with links. *)
let install_policy t pol = install_fdd t (Netkat.Fdd.of_policy pol)

(** [install_policy_string t s] — as {!install_policy}, from concrete
    syntax.  @raise Netkat.Parser.Parse_error on bad syntax. *)
let install_policy_string t s =
  install_policy t (Netkat.Parser.pol_of_string s)

(** [with_controller t apps] attaches a controller running [apps] and
    completes the handshake (the "controller-driven" mode).
    [resilience] turns on keepalives, reliable flow-mod delivery and
    crash resync (see {!Controller.Runtime}). *)
let with_controller ?latency ?resilience t apps =
  let rt =
    Controller.Runtime.create_and_handshake ?latency ?resilience t.network apps
  in
  t.runtime <- Some rt;
  rt

(** [with_replicas t mk_apps] attaches a replicated controller:
    [replicas >= 2] members (default 2) over one network under a leader
    lease of [lease] seconds (default 0.15) — see {!Controller.Replica}.
    [mk_apps] is called once per leader incarnation.  [repl_fault]
    attaches chaos to the inter-controller channel.  The leader's
    handshake is driven to completion before returning.  One controller
    is {!with_controller}. *)
let with_replicas ?(latency = 1e-3) ?resilience ?replicas ?lease
    ?repl_latency ?repl_fault t mk_apps =
  let r =
    Controller.Replica.create ~latency ?resilience ?replicas ?lease
      ?repl_latency ?repl_fault t.network mk_apps
  in
  t.runtime <- Controller.Replica.leader_runtime r;
  let horizon = now t +. (20.0 *. latency) in
  ignore (Dataplane.Network.run ~until:horizon t.network ());
  r

(** [run t ~until] advances simulated time. *)
let run ?until ?max_events t =
  Dataplane.Network.run ?until ?max_events t.network ()

(* ------------------------------------------------------------------ *)
(* Sharded simulation (see {!Dataplane.Shard}) *)

(** [create_sharded ~shards topo] partitions the network over [shards]
    OCaml domains and runs them under conservative lookahead.  The
    sharded simulator is data-plane only: install tables with
    {!install_policy_sharded} (or directly per shard); a controller
    attaches only to a single-domain network ({!with_controller},
    {!with_replicas}).  Observable results are pinned equal to
    {!create} + {!run} on the same seed and workload. *)
let create_sharded ?queue_depth ?fault_config ~shards ?partition topo =
  Dataplane.Shard.create ?queue_depth ?fault_config ?partition ~shards topo

(** [install_policy_sharded t pol] — {!install_policy} for a sharded
    network: one compile of the whole policy against no snapshot,
    loaded by {!Controller.Api.load_delta} into each switch's table in
    the shard that owns it.  Returns total rules installed. *)
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

(** [run_sharded t ~until] advances all shards in parallel; returns
    events executed (including cross-shard queue-release events). *)
let run_sharded ?until t = Dataplane.Shard.run ?until t

(** [snapshot t] captures topology + installed tables for verification. *)
let snapshot t : Verify.Reach.snapshot =
  { topo = topology t;
    tables =
      (fun switch_id ->
        Flow.Table.rules (Dataplane.Network.switch t.network switch_id).table) }

(** One-call check: with the current tables, can [src] reach [dst]? *)
let reachable t ~src ~dst = Verify.Reach.reachable (snapshot t) ~src ~dst

(** One-call end-to-end ping through the simulated dataplane: returns
    measured RTTs in seconds (empty = no connectivity). *)
let ping ?(count = 3) ?(interval = 0.01) t ~src ~dst =
  Dataplane.Traffic.install_responders t.network;
  let result = Dataplane.Traffic.ping t.network ~src ~dst ~count ~interval in
  let horizon = now t +. (float_of_int count *. interval) +. 1.0 in
  ignore (run ~until:horizon t);
  List.rev_map snd !(result.rtts)

(** Version of the toolkit. *)
let version = "1.0.0"
