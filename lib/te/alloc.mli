(** Allocation results and the metrics shared by every TE scheme: an
    allocation assigns each demand a set of (path, rate) pairs; from it
    we derive link loads, utilization, carried traffic and fairness. *)

module Node := Topo.Topology.Node

type path_share = { path : Topo.Path.t; rate : float }

type entry = { demand : Demand.t; shares : path_share list }

type t = { topo : Topo.Topology.t; entries : entry list }

(** Test-only. *)
val allocated_rate : entry -> float

(** Fraction of the demand satisfied, in [0, 1]. *)
val satisfaction : entry -> float

(** Total traffic carried (sum of allocations, capped by demand). *)
val carried : t -> float

(** Load placed on each directed link: [(node, port) -> bits/s]. *)
val link_loads : t -> (Node.t * int, float) Hashtbl.t

(** (max, mean) link utilization over links that carry load. *)
val utilization : t -> float * float

(** Jain fairness of demand-satisfaction ratios. *)
val fairness : t -> float

(** Demands receiving less than 99.9% of what they asked. *)
val starved : t -> entry list

(** True when no directed link carries more than its capacity (within a
    relative tolerance of 1e-6).
    Test-only. *)
val feasible : t -> bool

val summary : t -> string
