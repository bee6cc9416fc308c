(** Workload generators and simple host applications layered on the
    simulated network: constant-bit-rate and Poisson flows, ping-style
    request/response with RTT measurement, and random traffic mixes. *)

type flow_spec = {
  src : int;           (** source host id *)
  dst : int;           (** destination host id *)
  rate_pps : float;    (** packets per second *)
  pkt_size : int;      (** bytes *)
  start : float;
  stop : float;
  tp_dst : int;
  tp_src : int option; (** fixed source port, or [None] to vary per packet *)
}

val default_flow : src:int -> dst:int -> flow_spec

(** [cbr net spec] schedules a constant-bit-rate packet train.  Returns a
    counter cell incremented per packet sent.  A flow with a fixed
    [tp_src] builds one immutable packet and sends it every time, so
    its receiver sees the same physical packet on every delivery; with
    [tp_src = None] each send builds its own.  One event, built here,
    reschedules itself for every send. *)
val cbr : Network.t -> flow_spec -> int ref

(** [poisson net ~prng spec] — as {!cbr} with exponential inter-arrivals
    of mean [1 / rate_pps].
    Test-only. *)
val poisson : Network.t -> prng:Util.Prng.t -> flow_spec -> int ref

val install_responders : Network.t -> unit

type ping_result = { rtts : (int * float) list ref; lost : unit -> int }

(** [ping net ~src ~dst ~count ~interval] sends [count] echo requests and
    records (sequence, RTT) pairs as replies arrive.  Call after
    {!install_responders}. *)
val ping :
  Network.t ->
  src:int -> dst:int -> count:int -> interval:float -> ping_result

(** [random_pair_specs ~prng ~host_ids ...] draws [flows] CBR flow specs
    between uniformly chosen distinct host pairs — the spec-drawing half
    of {!random_pairs}, split out so a sharded run can draw the exact
    same PRNG stream and then install each flow on the shard owning its
    source host.

    [stagger] draws each flow's start uniformly from [0, stagger)
    instead of starting every flow at 0.  Synchronized starts make
    causally-independent packets contend for the same link at the {e same
    instant}; the sequential engine breaks such ties by global scheduling
    order, which a sharded run cannot reproduce (see {!Shard}).  A
    staggered workload has no cross-flow timestamp ties, so sharded and
    single-domain traces stay byte-equal. *)
val random_pair_specs :
  ?fixed_ports:bool ->
  ?stagger:float ->
  prng:Util.Prng.t ->
  host_ids:int array ->
  flows:int ->
  rate_pps:float -> pkt_size:int -> stop:float -> unit -> flow_spec list

(** [random_pairs net ~prng ~flows ~rate_pps ~stop] starts [flows] CBR
    flows between uniformly chosen distinct host pairs; returns the
    per-flow sent counters.  By default every packet carries a fresh
    [tp_src]: each is a new microflow, which a megaflow cache still
    serves from one entry while no rule matches on [tp_src];
    [~fixed_ports:true] pins one [tp_src] per flow instead, modelling
    long-lived 5-tuple flows. *)
val random_pairs :
  ?fixed_ports:bool ->
  Network.t ->
  prng:Util.Prng.t ->
  flows:int -> rate_pps:float -> pkt_size:int -> stop:float -> int ref list
