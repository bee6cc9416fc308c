(** Symbolic reachability over installed flow tables: the header-space
    transfer function of each switch, composed along topology links.

    The input is a {e snapshot}: the topology plus every switch's rule
    list (priority-descending, as {!Flow.Table.rules} returns them).
    Analyses: per-host reachability, loop detection, black-hole
    enumeration, and pairwise isolation of host groups. *)

type snapshot = {
  topo : Topo.Topology.t;
  tables : int -> Flow.Table.rule list;
      (** rules of a switch, highest priority first *)
}

(** A location of the walk: a switch and its ingress port. *)
type located

type delivery = {
  host : int;
  cube : Hsa.cube;
  hops : int;
  via : int list;  (** switches traversed, in order *)
}

type walk_result = {
  deliveries : delivery list;
  loops : located list;        (** locations where a looping slice was cut *)
  black_holes : located list;  (** locations where a slice hit no rule *)
  explored : int;              (** symbolic states expanded *)
}

(** [walk snapshot ~src ~cube] pushes the symbolic packet set [cube],
    injected on the access link of host [src], through the network.  A
    slice arriving at a (switch, port) it has already visited along its
    own path — with a cube subsumed by the earlier one — is reported as a
    loop and cut, as is a slice still travelling after 64 hops. *)
val walk : snapshot -> src:int -> cube:Hsa.cube -> walk_result

(** The cube of packets addressed from host [src] to host [dst]. *)
val flow_cube : src:int -> dst:int -> Hsa.cube

(** [reachable snapshot ~src ~dst] — does some packet addressed from
    [src] to [dst] actually arrive at [dst]? *)
val reachable : snapshot -> src:int -> dst:int -> bool

(** All-pairs reachability matrix over host ids. *)
val reachability_matrix : snapshot -> ((int * int) * bool) list

(** [loop_free snapshot] — walks the full header space from every host;
    returns the looping locations found (empty means loop-free for all
    host-injected traffic). *)
val loop_free : snapshot -> (int * located) list

(** [isolated snapshot ~group_a ~group_b] — no packet injected by a host
    of [group_a] and addressed (by IP) to a host of [group_b] is
    delivered to [group_b], and vice versa.  Returns the offending
    (src, dst) witness pairs. *)
val isolated :
  snapshot -> group_a:int list -> group_b:int list -> (int * int) list

(** Slices of the full header space from [src] that hit no rule
    anywhere — candidate black holes (expected to be non-empty in
    default-drop networks; useful to check {e which} traffic dies).
    Test-only. *)
val black_holes : snapshot -> src:int -> located list

(** Waypoint enforcement: does {e every} delivered packet from [src] to
    [dst] traverse switch [waypoint]?  Returns
    [`No_traffic] when nothing is delivered at all,
    [`Enforced] when all deliveries pass the waypoint, and
    [`Violated witnesses] with the offending deliveries otherwise.
    The classic use: "all cross-zone traffic goes through the firewall
    switch". *)
val waypoint :
  snapshot ->
  src:int ->
  dst:int ->
  waypoint:int -> [> `Enforced | `No_traffic | `Violated of delivery list ]
