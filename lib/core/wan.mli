(** From TE allocation to forwarding state: realizes a {!Te.Alloc.t} as
    compilable policy and drives packet traffic along it, closing the
    loop between the analytic allocation and the simulated dataplane.

    A demand's allocation may split across several paths; since exact-match
    rules cannot express ratios, each demand is realized as [subflows]
    micro-flows (distinct [tp_src] ports) apportioned to paths by largest
    remainder — the standard flow-level approximation of weighted
    multipath (WCMP). *)

type subflow = {
  demand : Te.Demand.t;
  src_host : int;
  dst_host : int;
  tp_src : int;
  rate : float;           (** bits per second assigned to this subflow *)
  path : Topo.Path.t;     (** switch-level path from the demand's source *)
}

(** Test-only. *)
val apportion : total:int -> float list -> int list

(** [subflows_of_alloc topo alloc ~subflows] — the micro-flows realizing
    the allocation.  Demands with no usable share are skipped.
    Test-only. *)
val subflows_of_alloc :
  Topo.Topology.t -> Te.Alloc.t -> subflows:int -> subflow list

type measurement = {
  m_demand : Te.Demand.t;
  allocated : float;  (** bits/s the TE scheme granted *)
  measured : float;   (** bits/s observed at the destination host *)
}

(** One call: realize [alloc] on a fresh network over [topo], drive it,
    and report.  [subflows] micro-flows per demand (default 8). *)
val validate :
  ?subflows:int ->
  ?pkt_size:int ->
  ?duration:float -> Topo.Topology.t -> Te.Alloc.t -> measurement list

(** Aggregate deviation: total measured / total allocated. *)
val accuracy : measurement list -> float
