(** Policy builders: canonical network-wide policies synthesized from a
    topology.  These are the workloads of the compiler experiments and
    the proactive controller app. *)

open Packet

(** [routing_policy topo] — destination-based shortest-path L2/L3
    forwarding: for every host [h] and every switch [sw] that can reach
    it, match [Eth_dst = mac h] at [sw] and forward out the next-hop port
    of a shortest path.  The union over all pairs is the network-wide
    policy. *)
val routing_policy : Topo.Topology.t -> Syntax.pol

(** IP-destination variant of {!routing_policy} (matches [Ip4_dst]). *)
val ip_routing_policy : Topo.Topology.t -> Syntax.pol

(** One entry of an access-control list. *)
type acl_entry = {
  allow : bool;
  src_ip : Ipv4.t option;
  dst_ip : Ipv4.t option;
  proto : int option;
  dst_port : int option;
}

(** [firewall topo entries] — routing restricted by the ACL. *)
val firewall :
  ?default_allow:bool ->
  Topo.Topology.t -> acl_entry list -> Syntax.pol

(** [isolation_policy topo ~groups] — slices hosts into groups and only
    routes traffic whose source and destination IP belong to the same
    group (a PlanetLab-style coexistence policy). *)
val isolation_policy :
  Topo.Topology.t -> groups:int list list -> Syntax.pol

(** Random exact-match ACL entries for benchmarks: [n] entries over the
    given host-id universe.
    Test-only. *)
val random_acl : Util.Prng.t -> n:int -> hosts:int -> acl_entry list
