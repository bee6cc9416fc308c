(** ARP proxy: the controller answers every ARP request from its global
    knowledge of host addresses, so broadcasts never flood the fabric —
    a standard SDN win over conventional L2 learning.

    ARP packets appear on the control channel via a punt rule on
    [ethType = 0x806]; requests (the ARP opcode rides in [ip_proto] in
    the flat header projection, see {!Packet.Frame.to_headers}) whose
    target address belongs to a known host are answered directly with a
    packet-out through the ingress port. *)

type t

(** Test-only. *)
val create : unit -> t

(** Test-only. *)
val app : t -> Api.app

(** Test-only. *)
val answered : t -> int

(** Test-only. *)
val unknown : t -> int
