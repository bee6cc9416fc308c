(** Wildcard match patterns: the left-hand side of a flow-table rule.
    A pattern constrains a subset of header fields; unconstrained fields
    match anything.  IPv4 source/destination support CIDR prefixes
    (longest-prefix matching emerges from rule priorities). *)

open Packet

type t = {
  in_port : int option;
  eth_src : Mac.t option;
  eth_dst : Mac.t option;
  eth_type : int option;
  vlan : int option;
  ip_proto : int option;
  ip4_src : Ipv4.Prefix.t option;
  ip4_dst : Ipv4.Prefix.t option;
  tp_src : int option;
  tp_dst : int option;
}

(** Matches every packet. *)
val any : t

(** Test-only. *)
val is_any : t -> bool

(** [of_field f v] constrains exactly field [f] to [v] (addresses become
    host prefixes).  @raise Invalid_argument for [Fields.Switch], which is
    a policy-level meta-field that never appears in a table. *)
val of_field : Fields.t -> int -> t

(** [matches t h] tests headers [h] against the pattern. *)
val matches : t -> Headers.t -> bool

exception Contradiction

(** [conj a b] is the pattern matching exactly the packets matched by
    both, or [None] when the conjunction is unsatisfiable. *)
val conj : t -> t -> t option

(** [subsumes ~general t] holds when every packet matching [t] also
    matches [general]. *)
val subsumes : general:t -> t -> bool

(** Two patterns overlap when some packet matches both. *)
val overlap : t -> t -> bool

(** A shape packed into an int: bits 0-7 flag the exact-match fields
    (in_port, eth_src, eth_dst, eth_type, vlan, ip_proto, tp_src,
    tp_dst); bits 8-13 and 14-19 hold [prefix length + 1] for ip4_src
    and ip4_dst, or 0 when the field is unconstrained. *)
type shape = int

val shape_of : t -> shape

(** [shape_project shape h] masks headers down to the fields [shape]
    constrains (everything else, including [switch], becomes 0).  A
    pattern [p] matches [h] iff
    [shape_project (shape_of p) h = shape_key p]. *)
val shape_project : shape -> Headers.t -> Headers.t

(** [shape_union a b] constrains every field either shape constrains,
    with the longer of the two prefix lengths on each address field: a
    header's projection under the union determines its projection under
    [a] and under [b]. *)
val shape_union : shape -> shape -> shape

(** [shape_key t] is the masked-tuple key under which a rule with this
    pattern lives in its shape's hashtable. *)
val shape_key : t -> Headers.t

(** Number of constrained fields — a rough specificity measure.  Test-only. *)
val weight : t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string
