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

(** [create ~vip ?idle_timeout ~backends ()] balances flows to [vip]
    over the host ids [backends]; its rules expire after [idle_timeout]
    seconds (default 60) without a hit, and the VIP's rewritten replies
    carry the source MAC [02:de:ad:be:ef:01]. *)
val create :
  vip:Packet.Ipv4.t -> ?idle_timeout:float -> backends:int list -> unit -> t

val app : t -> Api.app

val flows : t -> int

(** Flows assigned per backend host id. *)
val distribution : t -> (int * int) list
