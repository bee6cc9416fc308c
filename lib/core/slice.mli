(** Network slices: named groups of hosts that share the substrate but
    must not exchange traffic — the PlanetLab lesson ("many architectures
    on one substrate") expressed as policy.

    A slice compiles to the routing policy restricted to packets whose
    source {e and} destination IP belong to the slice; the network policy
    is the union over slices.  Isolation is then a checkable property of
    the compiled tables ({!verify_isolation}). *)

type t = {
  name : string;
  hosts : int list;  (** member host ids *)
}

val make : name:string -> hosts:int list -> t

(** [policy topo slices] — the sliced network policy: traffic is routed
    iff both endpoints are in the same slice. *)
val policy : Topo.Topology.t -> t list -> Netkat.Syntax.pol

(** [verify_isolation snapshot a b] — leaks between two slices as
    (src, dst) witness pairs (empty = isolated). *)
val verify_isolation : Verify.Reach.snapshot -> t -> t -> (int * int) list

(** [verify_all snapshot slices] — checks every slice pair; returns
    [(slice_a, slice_b, leaks)] for pairs with leaks. *)
val verify_all :
  Verify.Reach.snapshot ->
  t list -> (string * string * (int * int) list) list

(** Intra-slice connectivity: pairs of same-slice hosts that cannot
    reach each other (empty = fully connected inside the slice). *)
val verify_connectivity : Verify.Reach.snapshot -> t -> (int * int) list
