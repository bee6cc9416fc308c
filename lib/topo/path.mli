(** Path computation over a {!Topology.t}.

    All algorithms respect two network realities: links that are down are
    invisible, and hosts never transit traffic (a path may start or end at
    a host but never pass through one).

    A path is a list of hops; each hop records the node left, the egress
    port used, and the link taken. *)

module Node := Topology.Node

type hop = { node : Node.t; out_port : int; next : Node.t; in_port : int }

type t = hop list
(** in travel order; empty for the trivial path from a node to itself *)

(** [bfs topo ~src] returns the predecessor-hop table of a breadth-first
    search from [src]: for each reached node, the hop by which it was first
    reached.  [src] itself is not in the table. *)
val bfs : Topology.t -> src:Node.t -> (Node.t, hop) Hashtbl.t

val walk_back :
  (Node.t, hop) Hashtbl.t -> src:Node.t -> dst:Node.t -> hop list option

(** Fewest-hops path, or [None] when [dst] is unreachable. *)
val shortest_path :
  Topology.t -> src:Node.t -> dst:Node.t -> hop list option

(** [dijkstra topo ~weight ~src] computes least-cost distances and
    predecessor hops from [src].  [weight] maps each half-link to a
    non-negative cost (e.g. [fun l -> l.delay], or [fun _ -> 1.] for hop
    count).
    Test-only. *)
val dijkstra :
  Topology.t ->
  weight:(Topology.link -> float) ->
  src:Node.t -> (Node.t, float) Hashtbl.t * (Node.t, hop) Hashtbl.t

(** Least-[weight] path with its total cost, or [None] if unreachable. *)
val cheapest_path :
  Topology.t ->
  weight:(Topology.link -> float) ->
  src:Node.t -> dst:Node.t -> (hop list * float) option

(** Same contract as the distance table of {!dijkstra}, computed by
    Bellman-Ford relaxation.
    Test-only. *)
val bellman_ford :
  Topology.t ->
  weight:(Topology.link -> float) ->
  src:Node.t -> (Node.t, float) Hashtbl.t

(** [all_shortest_paths topo ~src ~dst] enumerates every fewest-hops path
    (the ECMP set).  The result is empty when [dst] is unreachable and
    [[[]]] when [src = dst]. *)
val all_shortest_paths :
  Topology.t -> src:Node.t -> dst:Node.t -> hop list list

(** [k_shortest topo ~weight ~src ~dst k] returns up to [k] loop-free
    paths in nondecreasing cost order (Yen's algorithm). *)
val k_shortest :
  Topology.t ->
  weight:(Topology.link -> float) ->
  src:Node.t -> dst:Node.t -> int -> hop list list

(** [spanning_tree topo] returns, for each switch, the set of ports that
    belong to a BFS spanning tree of the switch-and-host graph rooted at
    the lowest-id switch.  Flooding along exactly these ports reaches
    every node once with no loops.  Host-facing ports are always
    included. *)
val spanning_tree : Topology.t -> (int, int list) Hashtbl.t
