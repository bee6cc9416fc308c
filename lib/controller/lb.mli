(** Reactive L4 load balancer.

    A virtual IP (VIP) fronts a pool of destination hosts (DIPs).  The
    first packet of each client flow to the VIP reaches the controller,
    which picks a backend by hashing the client 5-tuple, installs a
    forward rule (rewrite [ip4_dst]/[eth_dst] to the DIP and forward
    toward it) and a reverse rule (rewrite the DIP's replies back to the
    VIP) at the same switch, then re-injects the packet.

    Assumption (documented): replies traverse the switch that rewrote
    the forward direction — true when the LB app is deployed on the
    backends' common edge/hub switch, as in the examples. *)

type t

val create :
  vip:Packet.Ipv4.t ->
  ?vip_mac:Packet.Mac.t ->
  ?idle_timeout:float -> backends:int list -> unit -> t

val app : t -> Api.app

val flows : t -> int

(** Flows assigned per backend host id. *)
val distribution : t -> (int * int) list
