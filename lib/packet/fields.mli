(** The header fields visible to the policy language and to match-action
    tables.  The declaration order of [t] fixes the variable order of the
    forwarding decision diagrams built by the compiler: fields tested
    earlier in the order appear nearer the root. *)

type t =
  | Switch      (** datapath identifier (meta-field; never in a table pattern) *)
  | In_port     (** ingress port *)
  | Eth_src
  | Eth_dst
  | Eth_type
  | Vlan        (** VLAN id; [vlan_none] when untagged *)
  | Ip_proto
  | Ip4_src
  | Ip4_dst
  | Tp_src      (** transport source port (TCP/UDP) *)
  | Tp_dst      (** transport destination port *)

(** Value carried by an untagged frame in the [Vlan] field. *)
val vlan_none : int

val all : t list

val index : t -> int

(** Total order used by the FDD: compares declaration positions. *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** Test-only. *)
val to_string : t -> string

(** Inverse of {!to_string}; recognized names follow the NetKAT surface
    syntax. @raise Invalid_argument on an unknown name. *)
val of_string : string -> t

val pp : Format.formatter -> t -> unit

(** Renders a field value using the natural notation for the field
    (dotted quads for addresses, colon hex for MACs, decimal otherwise). *)
val pp_value : Format.formatter -> t * int -> unit
