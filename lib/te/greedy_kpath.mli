(** B4-style greedy multipath allocation.

    Demands are served in priority order (group 0 first, as B4 serves
    interactive before elastic before copy traffic).  Within a group,
    flows are filled in small quanta (1/50 of the group's largest rate,
    at least 1), round-robin, each flow placing its quantum on the first
    of its [k] precomputed shortest paths with residual capacity — so
    when a shortest path fills up, traffic spills to the next path
    instead of being lost.  This is the property that lets multipath TE
    carry substantially more traffic than ECMP at high load. *)

val solve : ?k:int -> Topo.Topology.t -> Demand.t list -> Alloc.t
