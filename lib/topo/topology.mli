(** Network topology: a port-labelled multigraph of switches and hosts.

    Links are bidirectional and are stored as two directed half-links so
    that per-direction state (queues, failures) is natural.  Ports are
    integers local to each node, numbered from 1.  Hosts have exactly one
    port.  The graph is mutable: builders add nodes and links, and the
    failure API flips links up/down in place (routing recomputes from the
    surviving graph). *)

module Node : sig
  type t = Switch of int | Host of int
  val equal : t -> t -> bool
  val is_switch : t -> bool
  val is_host : t -> bool
  val id : t -> int
  val to_string : t -> string
end

(** Attributes of one direction of a link. *)
type link = {
  src : Node.t;
  src_port : int;
  dst : Node.t;
  dst_port : int;
  capacity : float;  (** bits per second *)
  delay : float;     (** propagation delay, seconds *)
  mutable up : bool;
}

type t

val create : unit -> t

(** [copy t] is a structural clone: same nodes, ports and link
    attributes, but with {e fresh} link records so [set_link_up] on the
    copy never touches the original (and vice versa).  The sharded
    simulator gives each shard its own clone so the mutable [up] flags
    are never shared across shards. *)
val copy : t -> t

val add_node : t -> Node.t -> unit

val add_switch : t -> int -> unit

(** All nodes in insertion order. *)
val nodes : t -> Node.t list

val switches : t -> Node.t list

val switch_ids : t -> int list

val host_ids : t -> int list

exception Port_in_use of Node.t * int

(** [add_link t (a, pa) (b, pb) ~capacity ~delay] connects port [pa] of
    [a] to port [pb] of [b] with symmetric attributes.  Both endpoints are
    added to the graph if missing.
    @raise Port_in_use if either port already carries a link.
    @raise Invalid_argument unless [capacity] (bits/s) is positive and
    [delay] (seconds) finite and non-negative: a link with no capacity
    would take forever to serialize a packet. *)
val add_link :
  t -> Node.t * int -> Node.t * int -> capacity:float -> delay:float -> unit

(** The half-link leaving [node] through [port], if any (up or down). *)
val link_via : t -> Node.t -> int -> link option

(** [peer t node port] is [Some (peer, peer_port)] when an {e up} link
    leaves [node] through [port]. *)
val peer : t -> Node.t -> int -> (Node.t * int) option

(** Ports of [node] that carry a link (up or down), ascending. *)
val ports : t -> Node.t -> int list

(** Outgoing up half-links of [node], in ascending port order. *)
val out_links : t -> Node.t -> link list

(** All links as half-link pairs reported once per bidirectional link
    (the direction with the smaller [(node, port)] endpoint). *)
val links : t -> link list

(** [set_link_up t (a, pa) up] marks both directions of the link through
    [(a, pa)] as up/down.  No-op if no such link exists. *)
val set_link_up : t -> Node.t * int -> bool -> unit

val fail_link : t -> Node.t * int -> unit

val restore_link : t -> Node.t * int -> unit

(** [fail_node t n] downs every link of [n]. *)
val fail_node : t -> Node.t -> unit

(** Lowest unused port number of [node] (ports start at 1). *)
val fresh_port : t -> Node.t -> int

(** The switch a host attaches to, with the switch-side port. *)
val attachment : t -> int -> (int * int) option

(** Host ids attached to switch [sw_id], with the switch-side port. *)
val hosts_of_switch : t -> int -> (int * int) list

val switch_count : t -> int

val host_count : t -> int

val link_count : t -> int

val pp : Format.formatter -> t -> unit

(** Graphviz rendering: switches as boxes, hosts as ellipses, one edge
    per bidirectional link labelled with its ports, dashed when down. *)
val to_dot : t -> string
