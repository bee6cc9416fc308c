(** Sharded parallel simulation driver: one {!Network} per shard, run
    under conservative lookahead (see {!Util.Shard_sync}).

    The sharded simulator is a data-plane-only engine: tables are
    installed offline ([Zen.install_policy_sharded], or directly per
    shard), and no controller runs on it.  A controller
    ({!Controller.Runtime}, {!Controller.Replica}) runs only on a
    single-domain {!Network}, so no control frame ever crosses a shard.

    The topology is partitioned by a pluggable function mapping every
    node to a shard.  Each shard owns the switch/host state of its
    nodes, a {e clone} of the topology (so the mutable link [up] flags
    are never shared across shards), its own {!Sim} clock + timing
    wheel, and — when chaos is configured — its own {!Fault} layer.
    Packets crossing a shard boundary become timestamped envelopes
    posted through {!Util.Shard_sync}; the minimum delay over
    boundary-crossing links is the lookahead that makes the
    conservative window non-trivial.

    Determinism: a sharded run is a pure function of its inputs and its
    shard count (envelopes carry a (time, source shard, sequence) total
    order).  Against the
    {e single-domain} engine the equivalence is exact whenever no two
    causally-independent events share a timestamp: the sequential engine
    breaks such ties by global scheduling order, which no partitioned
    execution can reproduce (the classic conservative-PDES caveat), so
    simultaneous packets contending for one queue may serialize in a
    different — still deterministic — order.  Tie-free workloads (e.g.
    {!Traffic.random_pair_specs} with [~stagger]) give byte-equal
    delivery traces, tables, counters, port stats and chaos traces for
    any shard count: link verdicts come from per-link streams keyed on
    [Fault.config.seed], and every incident runs on the shard that
    owns its node ({!inject}).  Raw executed-event counts always differ:
    a cross-shard hop costs one extra local event (the source-side queue
    release), so [logical events = executed - handoffs]. *)

module Node := Topo.Topology.Node

type t

(** A partition maps every topology node to a shard in [0, shards). *)
type partition = Topo.Topology.t -> shards:int -> Node.t -> int

(** Fat-tree pod partition (for topologies built by {!Topo.Gen.fat_tree}
    with the same [k]): pods map to contiguous shard blocks, the pod's
    hosts follow their edge switch, and the core layer is spread evenly.
    Pod-local traffic then never crosses a shard boundary.
    @raise Invalid_argument unless [k] is even and the topology has the
    [5k²/4] switches of a k-ary fat-tree.
    Test-only. *)
val pod_partition : k:int -> partition

(** Parses a partition name: ["block"], or ["pod:K"] (even [K >= 2])
    for the fat-tree pod partition.  Returns [None] on anything else. *)
val partition_of_string : string -> partition option

(** [create ~shards topo] partitions [topo] and instantiates one network
    per shard.  [partition] defaults to contiguous switch-id blocks;
    [fault_config] attaches a chaos layer ({!Fault.of_config}) to every
    shard; without it the shards have no fault layer.
    @raise Invalid_argument when a cross-shard link has zero delay (the
    conservative lookahead would vanish). *)
val create :
  ?queue_depth:int ->
  ?fault_config:Fault.config ->
  ?partition:partition -> shards:int -> Topo.Topology.t -> t

val shards : t -> int

val topology : t -> Topo.Topology.t

val lookahead : t -> float

(** Test-only. *)
val shard_of : t -> Node.t -> int

(** The shard-local networks, indexed by shard.  Test-only. *)
val nets : t -> Network.t array

(** Test-only. *)
val net : t -> int -> Network.t

val net_of_switch : t -> int -> Network.t

val net_of_host : t -> int -> Network.t

(** [inject t incidents] broadcasts a chaos scenario to every shard: the
    shard owning the incident's node runs it through {!Network.inject}
    (trace, fault note), and on a link flap every {e other} shard
    silently flips its own topology clone at the same instants, so the
    in-flight link-down verdicts every shard makes match the
    single-domain run exactly.  A [Controller_outage] goes to shard 0,
    which notes it; no controller runs sharded to act on it.
    Test-only. *)
val inject : t -> Fault.incident list -> unit

(** [run ?until t] advances every shard under the conservative window
    loop, running each round's windows in shard order on the calling
    domain.  Returns the total number of events executed.  Safe to call
    repeatedly; like {!Sim.run}, [until] is inclusive.  Windows are sized
    adaptively (see {!Util.Shard_sync.drive}). *)
val run : ?until:float -> t -> int

val executed_of : t -> int -> int

(** The window loop's counters (see {!Util.Shard_sync.stats}). *)
val sync_stats : t -> Util.Shard_sync.stats

(** Barrier rounds run so far. *)
val rounds : t -> int

(** Cross-shard envelopes posted, over all shards. *)
val handoffs : t -> int

(** Windows a shard had nothing to run in, over all shards. *)
val stalls : t -> int

(** Always 0: windows run on the calling domain, so none is stolen.
    Kept only for the benchmark's [shard.steals] metric. *)
val steals : t -> int

(** Merged counters, summed across shards (see {!Network.sum_counters}). *)
val stats : t -> Network.counters

(** Merged chaos event traces of all shards, sorted by (time, text). *)
val chaos_events : t -> string list

val net_signature : Topo.Topology.t -> Network.t list -> string

(** The sharded run's observable signature — byte-equal to
    [net_signature topo [single_domain_net]] on the same seed/workload
    for any shard count. *)
val signature : t -> string
