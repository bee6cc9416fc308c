(** Structured packet representation: a conventional protocol tree of
    Ethernet / VLAN / ARP / IPv4 / TCP / UDP / ICMP.  {!Codec} maps values
    of this type to and from wire bytes; {!to_headers} projects them onto
    the flat {!Headers.t} view used by tables and policies. *)

type tcp = {
  tcp_src : int;
  tcp_dst : int;
  seq : int;
  ack : int;
  flags : int;  (** low 9 bits: NS CWR ECE URG ACK PSH RST SYN FIN *)
  window : int;
  tcp_payload : bytes;
}

type udp = { udp_src : int; udp_dst : int; udp_payload : bytes }

type icmp = { icmp_type : int; icmp_code : int; icmp_payload : bytes }

type ip_payload =
  | Tcp of tcp
  | Udp of udp
  | Icmp of icmp
  | Ip_raw of int * bytes  (** unknown protocol number, raw body *)

type ipv4 = {
  ip_src : Ipv4.t;
  ip_dst : Ipv4.t;
  ttl : int;
  ident : int;
  dscp : int;
  ip_payload : ip_payload;
}

type arp_op = Arp_request | Arp_reply

type arp = {
  op : arp_op;
  sha : Mac.t;   (** sender hardware address *)
  spa : Ipv4.t;  (** sender protocol address *)
  tha : Mac.t;   (** target hardware address *)
  tpa : Ipv4.t;  (** target protocol address *)
}

type eth_payload =
  | Ip of ipv4
  | Arp of arp
  | Eth_raw of int * bytes  (** unknown ethertype, raw body *)

type t = {
  eth_src : Mac.t;
  eth_dst : Mac.t;
  vlan : int option;
  eth_payload : eth_payload;
}

val ethertype_ip : int

val ethertype_arp : int

val ethertype_vlan : int

val proto_icmp : int

val proto_tcp : int

val proto_udp : int

val ip_proto_of_payload : ip_payload -> int

val ethertype_of_payload : eth_payload -> int

(** Projects a frame onto the flat header record, locating it at
    [switch]/[in_port].  Non-IP frames carry zeros in the IP/transport
    fields; ARP frames expose their protocol addresses as IP fields, as
    OpenFlow 1.0 does.
    Test-only. *)
val to_headers : switch:int -> in_port:int -> t -> Headers.t

(** Total on-wire size in bytes (without FCS), as {!Codec.encode} emits. *)
val size : t -> int

(** {2 Convenience constructors used throughout tests and examples} *)

(** A TCP SYN segment in an IPv4 frame. *)
val tcp_packet :
  ?vlan:int option ->
  ?ttl:int ->
  ?payload:bytes ->
  eth_src:Mac.t ->
  eth_dst:Mac.t ->
  ip_src:Ipv4.t ->
  ip_dst:Ipv4.t -> tp_src:int -> tp_dst:int -> unit -> t

(** Test-only. *)
val udp_packet :
  ?vlan:int option ->
  ?ttl:int ->
  ?payload:bytes ->
  eth_src:Mac.t ->
  eth_dst:Mac.t ->
  ip_src:Ipv4.t ->
  ip_dst:Ipv4.t -> tp_src:int -> tp_dst:int -> unit -> t

(** Test-only. *)
val icmp_echo :
  ?reply:bool ->
  ?payload:bytes ->
  eth_src:Mac.t ->
  eth_dst:Mac.t ->
  ip_src:Ipv4.t -> ip_dst:Ipv4.t -> unit -> t

(** Test-only. *)
val arp_query :
  sha:Mac.t -> spa:Ipv4.t -> tpa:Ipv4.t -> t

(** Test-only. *)
val arp_answer :
  sha:Mac.t ->
  spa:Ipv4.t -> tha:Mac.t -> tpa:Ipv4.t -> t
