(** Source NAT at a gateway switch.

    Traffic from the configured {e inside} hosts is rewritten at the
    gateway to come from a single public IP with an allocated source
    port; replies to the public address are translated back.  Both
    directions are installed reactively on the first packet of each flow
    (with idle timeouts), exactly like consumer NAT boxes — and like
    them, it is the canonical example of per-flow state in the network.

    Deployment assumption: both directions of a flow traverse the
    gateway switch (compose with {!Routing} on topologies where the
    gateway is a cut vertex, e.g. a star hub or the border of a chain). *)

open Packet

type binding = {
  private_ip : Ipv4.t;
  private_port : int;
  public_port : int;
  dst_ip : Ipv4.t;
}

type t

(** Test-only. *)
val create :
  gateway:int ->
  public_ip:Packet.Ipv4.t ->
  ?public_mac:Packet.Mac.t ->
  ?idle_timeout:float -> inside:int list -> unit -> t

(** Test-only. *)
val app : t -> Api.app

(** Test-only. *)
val translations : t -> int

(** Test-only. *)
val bindings : t -> binding list
