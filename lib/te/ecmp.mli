(** Baseline: capacity-oblivious ECMP over shortest paths.

    Every demand is split evenly across all fewest-hops paths, ignoring
    capacity (what plain OSPF/ECMP does).  Overloaded links then shed
    traffic: each path share is scaled by its bottleneck factor
    [min (1, capacity / load)], which models per-flow fair drops and
    keeps the reported allocation feasible. *)

val solve : Topo.Topology.t -> Demand.t list -> Alloc.t
