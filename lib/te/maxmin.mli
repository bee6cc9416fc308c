(** Max-min fair allocation by progressive water-filling.

    Each demand is pinned to one least-delay path; all unfrozen demands'
    rates rise together until either a link saturates (its demands
    freeze) or a demand is fully satisfied (it freezes).  The result is
    the classic max-min fair allocation with demand caps — maximally
    fair, but single-path, so it cannot use residual capacity off the
    shortest paths. *)

val solve : Topo.Topology.t -> Demand.t list -> Alloc.t
