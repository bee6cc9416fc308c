(** The simulated network: switches, hosts and links instantiated from a
    {!Topo.Topology.t} and driven by a {!Sim.t}.

    Switches forward with {!Flow.Table} match-action semantics; a table
    miss (or an explicit controller output) produces a packet-in on the
    control channel.  The control channel speaks wire-encoded
    {!Openflow} messages with a one-way latency of
    {!Ctl_channel.latency}, so the protocol codec is on the hot path
    exactly as in a real deployment.
    Its timing (latency, chaos verdicts, FIFO clamps, partitions) and
    each switch's control session (owner, fencing, stream gate) live in
    {!Ctl_channel}; this module encodes, routes and applies what that
    session admits.

    Links model serialization (size / capacity), propagation delay and a
    drop-tail queue of configurable depth per direction.  A packet in
    flight is a flat header record plus size and an opaque tag.

    Per-hop forwarding is allocation- and lookup-light: a hop carries the
    packet's location and remaining hop budget beside it (see {!pkt}),
    and a link lands its packets, in the order it sent them, with one
    reused event, so a hop allocates only the boxed arrival time it
    schedules.  The per-direction {!link_state} caches the resolved
    topology link, the egress port's tx counters and the {e destination}
    object (switch or host record), so a hop touches no hashtable —
    switch egress states live in a per-switch array indexed by port,
    hosts cache their access link.
    The topology's [up] flag is mutated in place by the failure API, so
    the cached link record always reflects live link status. *)

module Node := Topo.Topology.Node

(** A packet as its sender built it.  Forwarding never writes it: a hop
    carries the packet's location (switch, arrival port) and remaining
    hop budget beside it, and copies it only where a [Set_field]
    rewrites its headers.  So a host's [on_receive] sees the sender's
    [ttl] and [hdr.switch]/[hdr.in_port], not the values in flight, and
    the controller sees a packet-in's headers located at the switch
    that sent it. *)
type pkt = {
  hdr : Packet.Headers.t;  (** addressing; [switch]/[in_port] are the
                               sender's, not the packet's location *)
  size : int;              (** bytes *)
  tag : int;               (** correlation tag for host applications *)
  ttl : int;               (** hop budget at the send: each switch spends
                               one of it, and a packet arriving with none
                               left is dropped (bounds transient loops) *)
}

type switch = {
  sw_id : int;
  table : Flow.Table.t;
  port_stats : (int, Openflow.Message.port_stat) Hashtbl.t;
  mutable packet_ins : int;
  mutable has_timeouts : bool;  (* whether an expiry sweep is scheduled *)
  mutable out_ports : link_state option array;
      (* lazily resolved egress state, indexed by port *)
  mutable alive : bool;
      (** false while crashed: drops packets and control messages *)
  ctl : Ctl_channel.session;  (** the switch's control session *)
}

and host = {
  host_id : int;
  mac : Packet.Mac.t;
  ip : Packet.Ipv4.t;
  mutable received : int;
  mutable rx_bytes : int;
  mutable on_receive : (pkt -> unit) option;
  mutable uplink : link_state option;  (* cached access-link egress *)
}

and dest

and link_state

(** How a shard-local network reaches the rest of a sharded simulation
    (see {!Shard}).  [ri_shard_of] is the partition function;
    [ri_post] hands a packet crossing a shard boundary to the
    destination shard as a timestamped envelope. *)
type remote_iface = {
  ri_self : int;  (** this network's shard index *)
  ri_shard_of : Node.t -> int;
  ri_post :
    rem_shard:int -> time:float -> src:Node.t -> src_port:int -> ttl:int ->
    pkt -> unit;
      (** [ttl] is the packet's remaining hop budget *)
}

type counters = {
  mutable delivered : int;       (* packets that reached a host app *)
  mutable dropped_policy : int;  (* explicit drop by a matching rule *)
  mutable dropped_miss : int;    (* table miss with no controller *)
  mutable dropped_queue : int;   (* drop-tail queue overflow *)
  mutable dropped_link : int;    (* transmission into a down/absent link *)
  mutable dropped_ttl : int;     (* hop budget exhausted (loops) *)
  mutable dropped_down : int;    (* packets / control frames arriving at a
                                    crashed switch (or dropped by a
                                    control-channel partition) *)
  mutable dropped_chaos : int;   (* data packets lost to link chaos *)
  mutable corrupted : int;       (* data packets mangled on the wire
                                    (modeled as a receiver CRC discard) *)
  mutable reordered : int;       (* data packets delivered late by chaos *)
  mutable forwarded : int;       (* switch forwarding operations *)
  mutable control_msgs : int;    (* messages on the control channel *)
  mutable control_bytes : int;
  mutable fenced_writes : int;   (* flow-mods rejected by the lease fence
                                    (a stale leader wrote after deposal) *)
}

type t

(** Counters summed over [cs] (all zero for [[]]).  Each event of a
    sharded run is counted by exactly one shard, so the sum over the
    shards matches a single-domain run. *)
val sum_counters : counters list -> counters

(** [create ?only topo] instantiates the network.  [only] restricts which
    topology nodes get switch/host state — a shard populates just the
    nodes it owns and reaches the rest through its {!remote_iface}.  A
    switch with timed rules sweeps out the expired ones once a second.
    Nodes are kept in arrays indexed by id, sized by the largest id.
    @raise Invalid_argument if a node it owns has a negative id. *)
val create :
  ?queue_depth:int ->
  ?fault:Fault.t -> ?only:(Node.t -> bool) -> Topo.Topology.t -> t

(** Attaches the cross-shard interface (before any traffic flows). *)
val set_remote : t -> remote_iface -> unit

val sim : t -> Sim.t

val topology : t -> Topo.Topology.t

val stats : t -> counters

val now : t -> float

val fault : t -> Fault.t option

(** Test-only. *)
val remote_reorders : t -> int

(** The switch with this id, found without hashing.
    @raise Invalid_argument for a switch this network does not own. *)
val switch : t -> int -> switch

(** The host with this id, likewise.
    @raise Invalid_argument for a host this network does not own. *)
val host : t -> int -> host

val switch_list : t -> switch list

val host_list : t -> host list

(** [set_tracer t f] attaches the network's event log: from now on [f
    time line] receives every event of the run, in execution order, as
    one line of text stamped with its sim time.  It is the run's only
    log: forwarding and drops (["h4 rx tag=7"], ["s2 drop(miss)"]),
    control verdicts ({!Ctl_channel.transmit}: ["drop ctl->s3"]),
    link-chaos verdicts (["link-drop s1[2]"]), the session gate
    ({!Ctl_channel.admit}: ["s3 stale fence 1 < 2"]), incidents, each
    once (["link s1[2] down"], ["s2 crash"], ["s2 restart"], ["s2
    ctl-cut"], ["s2 ctl-heal"], ["c0 ctl-crash"], ["c0 ctl-restart"])
    and the replicated controller's lifecycle ({!Controller.Replica}:
    ["takeover c1 epoch=2"]).  A seed, configuration and workload
    replay it byte for byte, so determinism checks diff it.  Without a
    tracer nothing is formatted. *)
val set_tracer : t -> (float -> string -> unit) -> unit

(** [trace t fmt ...] writes one line to the event log at the current
    sim time; without a tracer it formats nothing. *)
val trace : t -> ('a, unit, string, unit) format4 -> 'a

(** Test-only. *)
val port_stat : switch -> int -> Openflow.Message.port_stat

(** [receive_remote t ~src ~src_port ~ttl pkt] completes a cross-shard
    hop: the packet left the remote shard through link [(src, src_port)]
    with [ttl] hops of budget left and arrives here (simulated time must already be the arrival time).  The
    in-flight link-down check runs against {e this} shard's topology
    clone — incidents are broadcast to every shard's clone at identical
    times, so the verdict matches the single-domain run exactly. *)
val receive_remote :
  t -> src:Node.t -> src_port:int -> ttl:int -> pkt -> unit

(** The control session of [switch_id].  @raise Invalid_argument for
    switches this network does not own. *)
val ctl_channel : t -> int -> Ctl_channel.session

(** {!Ctl_channel.adopt}: the one way a controller takes a switch.  The
    adopted handler receives the switch's wire-encoded messages;
    {!controller_send} carries messages the other way.  A switch whose
    session nobody adopted sends nothing up: a table miss is dropped. *)
val adopt :
  Ctl_channel.session -> (switch_id:int -> bytes -> unit) -> unit

(** Registers the interpreter for {!Fault.Controller_outage} incidents
    (see {!Controller.Replica}); without one they are ignored. *)
val set_ctl_outage_handler :
  t -> (controller_id:int -> up:bool -> unit) -> unit

val apply_flow_mod : t -> switch -> Openflow.Message.flow_mod -> unit

(** Controller → switch: delivers wire-encoded [data] to [switch_id]
    after the control-channel latency.  [data] may carry one message or
    a whole batch (concatenated frames, see {!Openflow.Wire.encode_batch});
    stats count the logical messages, and a batch is decoded and applied
    in frame order as one delivery event.  The controller and the switch
    live on this one network: a controller never runs on a sharded
    simulation.
    @raise Invalid_argument for a switch this network does not own.
    @raise Openflow.Wire.Wire_error on undecodable bytes (at delivery). *)
val controller_send : t -> switch_id:int -> bytes -> unit

(** Fails the link at [(node, port)] and notifies the controller with
    port-status messages from both endpoints (switches only). *)
val fail_link : t -> Node.t -> int -> unit

val restore_link : t -> Node.t -> int -> unit

(** [crash_switch t id] models a switch reboot's first half: forwarding
    stops, the flow table and its caches are wiped (a restarted switch
    has an empty table), flood configuration is reset and the
    controller's reliable stream closes ({!Ctl_channel.reconnect}).
    Packets and control frames addressed to the switch are counted in
    [dropped_down] until {!restart_switch}.
    Test-only. *)
val crash_switch : t -> int -> unit

(** [restart_switch t id] brings a crashed switch back with an empty
    table and announces it to the controller with a [Hello] — the
    runtime answers with a fresh feature handshake and resyncs the
    intended rules.
    Test-only. *)
val restart_switch : t -> int -> unit

(** [inject t incidents] schedules a chaos scenario: each incident's
    failure and recovery ride the simulator at their configured absolute
    times, through {!fail_link}/{!restore_link}/{!crash_switch}/
    {!restart_switch} — so port-status notifications, controller
    reaction and the event log all happen exactly as for a manual
    failure. *)
val inject : t -> Fault.incident list -> unit

(** [send_from t ~host pkt] puts [pkt] on the host's access link at the
    current simulated time with [pkt.ttl] hops of budget (headers should
    carry the intended addressing; their location fields are ignored,
    since each switch looks the packet up where it arrived). *)
val send_from : t -> host:int -> pkt -> unit

(** Builds a TCP-shaped packet from one synthesized host to another. *)
val make_pkt :
  ?size:int ->
  ?tag:int ->
  ?tp_src:int -> ?tp_dst:int -> ?ttl:int -> src:int -> dst:int -> unit -> pkt

(** [run t ?until ()] advances the simulation (see {!Sim.run}). *)
val run : ?until:float -> ?strict:bool -> ?max_events:int -> t -> unit -> int

val pp_stats : Format.formatter -> counters -> unit
