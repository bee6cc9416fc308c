(** The flat header record: the view of a packet that policies and flow
    tables operate on.  It corresponds to a "located packet" in NetKAT
    terminology — the [switch] and [in_port] fields record where the
    packet currently is. *)

type t = {
  switch : int;
  in_port : int;
  eth_src : Mac.t;
  eth_dst : Mac.t;
  eth_type : int;
  vlan : int;  (** {!Fields.vlan_none} when untagged *)
  ip_proto : int;
  ip4_src : Ipv4.t;
  ip4_dst : Ipv4.t;
  tp_src : int;
  tp_dst : int;
}

(** All-zero headers on switch 0 port 0, untagged. *)
val default : t

val get : t -> Fields.t -> int

val set : t -> Fields.t -> int -> t

val equal : t -> t -> bool

val compare : t -> t -> int

(** Cheap deterministic hash over the full header tuple, suitable as a
    hashtable key, e.g. for the classifier's per-shape buckets (avoids
    the generic [Hashtbl.hash] traversal). *)
val hash : t -> int

val pp : Format.formatter -> t -> unit

(** A plausible TCP packet between two synthesized hosts, convenient for
    tests and workload generators. *)
val tcp :
  switch:int ->
  in_port:int ->
  src_host:int -> dst_host:int -> tp_src:int -> tp_dst:int -> t
