(** Topology generators: the standard shapes used by the examples, tests
    and experiments.  Switch ids start at 1; host ids start at 1 and are
    attached to edge switches in ascending order, one link each.

    Unless stated otherwise links default to 1 Gb/s capacity and 10 us
    propagation delay (datacenter scale); the WAN topologies carry
    realistic millisecond delays. *)

module Node := Topology.Node

(** Test-only. *)
val default_delay : float

val connect :
  ?capacity:float ->
  ?delay:float -> Topology.t -> Node.t -> Node.t -> unit

(** [linear ~switches ~hosts_per_switch ()] is the chain
    s1 - s2 - ... - sn with hosts on every switch. *)
val linear : ?hosts_per_switch:int -> switches:int -> unit -> Topology.t

(** [ring ~switches ~hosts_per_switch ()] closes the chain into a cycle. *)
val ring : ?hosts_per_switch:int -> switches:int -> unit -> Topology.t

(** [star ~leaves ~hosts_per_leaf ()]: switch 1 is the hub; switches
    2..leaves+1 are leaves carrying the hosts.
    Test-only. *)
val star : ?hosts_per_leaf:int -> leaves:int -> unit -> Topology.t

(** [grid ~rows ~cols ()]: rows x cols mesh; switch id of cell (r, c)
    (0-based) is [r * cols + c + 1]; one host per switch.
    Test-only. *)
val grid :
  ?hosts_per_switch:int ->
  ?wrap:bool -> rows:int -> cols:int -> unit -> Topology.t

(** Test-only. *)
val torus :
  ?hosts_per_switch:int -> rows:int -> cols:int -> unit -> Topology.t

(** Description of a fat-tree built by {!fat_tree}, exposing the id
    ranges of each switch layer. *)
type fat_tree_info = {
  k : int;
  core : int list;
  aggregation : int list;
  edge : int list;
  host_ids : int list;
}

(** The standard k-ary fat-tree (Al-Fares et al.): [(k/2)^2] core
    switches, [k] pods of [k/2] aggregation and [k/2] edge switches, and
    [k/2] hosts per edge switch — [k^3/4] hosts total.  [k] must be even
    and >= 2.  Core links get 10x the edge capacity, matching common
    oversubscription setups. *)
val fat_tree : k:int -> unit -> Topology.t * fat_tree_info

(** Two-tier leaf-spine fabric: every leaf connects to every spine;
    hosts hang off the leaves.  Spine ids are 1..spines, leaf ids
    follow.  Spine links carry 4x the edge capacity. *)
val leaf_spine :
  ?hosts_per_leaf:int -> leaves:int -> spines:int -> unit -> Topology.t

(** Jellyfish (random regular graph of switches, Singla et al.): each of
    [switches] switches gets [degree] inter-switch links wired by random
    matching (with patching passes so the graph ends up connected);
    [hosts_per_switch] hosts per switch.
    Test-only. *)
val jellyfish :
  ?hosts_per_switch:int ->
  switches:int -> degree:int -> prng:Util.Prng.t -> unit -> Topology.t

(** Waxman random graph over [n] switches placed uniformly in the unit
    square; edge probability [alpha * exp (-d / (beta * L))], with
    [alpha = beta = 0.4] and [L] the square's diagonal.  The result
    is forced connected by chaining any leftover components.  Link delays
    are proportional to Euclidean distance (1 ms per unit). *)
val waxman :
  ?hosts_per_switch:int -> switches:int -> prng:Util.Prng.t -> unit -> Topology.t

(** The classic 11-node Abilene research backbone (delays approximate
    great-circle latency in ms). *)
val abilene :
  ?hosts_per_switch:int -> ?capacity:float -> unit -> Topology.t

(** A 12-site inter-datacenter WAN in the shape of Google's B4 as
    published at SIGCOMM'13: three geographic clusters (North America,
    Europe, Asia) with rich intra-cluster meshing and a few long
    inter-continental links. *)
val b4 : ?hosts_per_switch:int -> ?capacity:float -> unit -> Topology.t

(** Named lookup used by the CLI: one of "linear:N", "ring:N", "star:N",
    "fattree:K", "grid:RxC", "abilene", "b4", "waxman:N:SEED". *)
val of_spec : string -> Topology.t
