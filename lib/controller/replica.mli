(** Replicated controller: 2+ {!Runtime} instances over one
    {!Dataplane.Network} under a leader-lease protocol.

    One member holds the lease and owns every switch control session
    (its runtime adopted them, as every {!Runtime.create} does); it is
    the only writer.
    The leader streams its intended state to the standbys over a
    seeded-chaos-capable inter-controller channel: heartbeats every
    [lease/3] carry the lease epoch, and every flow-mod it shadows is
    forwarded as a delta, so each standby maintains a replica of
    {!Runtime.intended_rules} for every switch.  Nothing else is
    replicated: apps keep no state across a failover.

    {b Failover.}  A standby that misses heartbeats for a full lease
    (staggered per member so two standbys never take over in the same
    instant) declares the lease expired, bumps the epoch, creates a
    fresh runtime {e seeded from its replica} ([~shadows]), which adopts
    every switch session — frames already in flight re-home with the
    session — and re-handshakes, retrying a lost handshake after one
    RTO ({!Runtime}), so a takeover over a lossy channel completes in
    about one RTO more than over a clean one, not one keepalive period.
    Because the seeded shadow marks every switch as previously
    handshaked, the first features reply triggers the runtime's resync:
    every switch is re-pushed, in full, the table the replica says it
    should hold.  A warm converged table reloads the same rules, so its
    installed keys do not change.

    {b Split brain.}  The lease alone is only a failure detector: a
    deposed leader that is merely partitioned from its peers still
    believes it holds the lease and keeps (re)transmitting.  Safety
    comes from fencing: every transmission of a leader opens with a
    {!Openflow.Message.Fence} carrying its epoch, switches remember the
    highest epoch seen and drop whatever is fenced with a lower one,
    barriers included ([fenced_writes] counts the flow-mods).  A
    strictly higher fence also closes the switch's reliable stream until
    the new leader's handshake opens its own, so no frame or ack of the
    old leader's stream can touch the new one.  On heal, the deposed
    leader sees a higher-epoch heartbeat and steps down to standby.

    {b Event log.}  Every lifecycle step is a line in the network's
    event log ({!Dataplane.Network.set_tracer}), with or without a fault
    layer: ["lease-expired c1"], ["takeover c1 epoch=2"],
    ["failover-complete c1 <seconds>"], ["step-down c0 epoch=2"],
    ["sync c2 epoch=2"], ["repl-partition c0"], ["repl-heal c0"] and
    ["repl-drop c0->c1"] for a replication message lost to
    [repl_fault]'s chaos.

    A single controller is a plain {!Runtime}, not a one-member replica
    set: {!create} rejects [replicas < 2]. *)

type role = Leader | Standby | Down

type stats = {
  mutable failovers : int;        (** lease expiries acted on (takeovers begun) *)
  mutable takeovers_completed : int;
  mutable step_downs : int;       (** deposed leaders demoted on heal *)
  mutable hb_sent : int;
  mutable deltas_sent : int;
  mutable repl_msgs : int;        (** inter-controller messages sent *)
  mutable repl_bytes : int;       (** at modeled wire size *)
  mutable repl_drops : int;       (** lost to chaos or partition *)
  mutable syncs : int;            (** full-state transfers to rejoining standbys *)
  mutable failover_samples : float list;
      (** lease-expiry detection → every switch re-upped, newest first *)
}

type t

(** Cuts member [controller_id] off the inter-controller channel (its
    switch sessions are untouched): the canonical split-brain lever — a
    partitioned leader keeps writing while its standbys' leases expire. *)
val partition : t -> controller_id:int -> unit

val heal : t -> controller_id:int -> unit

val leader : t -> int option

val epoch : t -> int

val leader_runtime : t -> Runtime.t option

(** Test-only. *)
val runtime_of : t -> controller_id:int -> Runtime.t option

(** Test-only. *)
val role_of : t -> controller_id:int -> role

val stats : t -> stats

val failover_samples : t -> float list

(** Switches whose installed table differs from the current leader's
    intended shadow (see {!Runtime.diverged}); every switch when no
    leader holds the lease. *)
val diverged : t -> int list

(** Stops every member's loops and runtimes so the simulation can drain
    its event queue. *)
val shutdown : t -> unit

(** [create net mk_apps] starts [replicas] controller members over [net]
    (default 2): member 0 as leader at epoch 1, the rest as synced
    standbys.  [mk_apps] is called once per leader incarnation: every
    promotion runs fresh app instances, which see [switch_up] for every
    switch as the new leader's handshakes complete and rebuild their
    state from those events.

    [lease] (default 0.15 s) bounds failover detection; heartbeats ride
    every [lease/3].  The inter-controller channel has the control
    channel's one-way latency ({!Dataplane.Ctl_channel.latency});
    [repl_fault] puts chaos on it.  [resilience] sets every member
    runtime's timers (default {!Runtime.default_resilience}).

    {!Dataplane.Fault.Controller_outage} incidents injected into [net] crash and
    restart members by id.
    @raise Invalid_argument when [replicas < 2], [lease <= 0] or
    [resilience] fails {!Runtime.check_resilience}. *)
val create :
  ?resilience:Runtime.resilience ->
  ?replicas:int ->
  ?lease:float ->
  ?repl_fault:Dataplane.Fault.t ->
  Dataplane.Network.t -> (unit -> Api.app list) -> t
