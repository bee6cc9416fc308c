(** The public facade of the toolkit — the four architectural pillars
    behind one small API.

    {ol
    {- {b Separated planes}: build a topology ({!Topo.Gen}), instantiate
       a simulated dataplane ({!create}), and either program it directly
       ({!install_policy}) or start a controller with apps
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

(** A simulated network, optionally with a controller running on it. *)
type net

(** [create topo] instantiates the simulated network (empty tables).
    [fault] attaches a chaos layer to the control channel (see
    {!Dataplane.Fault}); without it the network has no fault layer. *)
val create :
  ?queue_depth:int -> ?fault:Dataplane.Fault.t -> Topo.Topology.t -> net

val topology : net -> Topo.Topology.t

val network : net -> Dataplane.Network.t

val now : net -> float

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
val install_fdd : net -> Netkat.Fdd.t -> int

(** [install_policy t pol] — {!install_fdd} from policy syntax.
    Returns total rules installed.
    @raise Netkat.Local.Not_local on policies with links. *)
val install_policy : net -> Netkat.Syntax.pol -> int

(** [install_policy_string t s] — as {!install_policy}, from concrete
    syntax.  @raise Netkat.Parser.Parse_error on bad syntax.
    Test-only. *)
val install_policy_string : net -> string -> int

(** [with_controller t apps] starts a controller running [apps], which
    adopts every switch's session, and completes the handshake (the
    "controller-driven" mode).  The
    controller runs keepalives, reliable flow-mod delivery and crash
    resync on the timers of [resilience] (default
    {!Controller.Runtime.default_resilience}); its keepalives schedule
    forever, so run the network with [~until] afterwards (see
    {!Controller.Runtime}). *)
val with_controller :
  ?resilience:Controller.Runtime.resilience ->
  net -> Controller.Api.app list -> Controller.Runtime.t

(** [with_replicas t mk_apps] starts a replicated controller:
    [replicas >= 2] members (default 2) over one network under a leader
    lease of [lease] seconds (default 0.15) — see {!Controller.Replica}.
    [mk_apps] is called once per leader incarnation.  The leader's
    handshake is driven to completion before returning.  One controller
    is {!with_controller}. *)
val with_replicas :
  ?resilience:Controller.Runtime.resilience ->
  ?replicas:int ->
  ?lease:float ->
  net -> (unit -> Controller.Api.app list) -> Controller.Replica.t

(** [run t ~until] advances simulated time. *)
val run : ?until:float -> ?max_events:int -> net -> int

(** [create_sharded ~shards topo] partitions the network over [shards]
    OCaml domains and runs them under conservative lookahead.  The
    sharded simulator is data-plane only: install tables with
    {!install_policy_sharded} (or directly per shard); a controller
    runs only on a single-domain network ({!with_controller},
    {!with_replicas}).  Observable results are pinned equal to
    {!create} + {!run} on the same seed and workload. *)
val create_sharded :
  ?queue_depth:int ->
  ?fault_config:Dataplane.Fault.config ->
  shards:int ->
  ?partition:Dataplane.Shard.partition ->
  Topo.Topology.t -> Dataplane.Shard.t

(** [install_policy_sharded t pol] — {!install_policy} for a sharded
    network: one compile of the whole policy against no snapshot,
    loaded by {!Controller.Api.load_delta} into each switch's table in
    the shard that owns it.  Returns total rules installed. *)
val install_policy_sharded : Dataplane.Shard.t -> Netkat.Syntax.pol -> int

(** [run_sharded t ~until] advances all shards in parallel; returns
    events executed (including cross-shard queue-release events). *)
val run_sharded : ?until:float -> Dataplane.Shard.t -> int

(** [snapshot t] captures topology + installed tables for verification. *)
val snapshot : net -> Verify.Reach.snapshot

(** One-call check: with the current tables, can [src] reach [dst]? *)
val reachable : net -> src:int -> dst:int -> bool

(** One-call end-to-end ping through the simulated dataplane: returns
    measured RTTs in seconds (empty = no connectivity). *)
val ping :
  ?count:int -> ?interval:float -> net -> src:int -> dst:int -> float list

(** Version of the toolkit. *)
val version : string
