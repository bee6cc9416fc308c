(** The controller runtime: owns the controller end of the control
    channel, performs the feature handshake with every switch, decodes
    incoming wire messages and dispatches them to the registered apps.

    Every outgoing operation is wire-encoded before entering the channel
    and decoded at the switch, so the protocol layer is exercised
    end-to-end in every simulation.

    The runtime also keeps a per-switch {e intended-state} shadow table:
    every flow-mod it sends is applied to the shadow as well (see
    {!shadow_flow_mod}), so the permanent rules each switch {e should}
    hold are always known — introspection ({!intended_rules}), {!diverged}
    and crash resync all read it.  Rules with an idle timeout are soft
    state: the switch expires them on its own, so the shadow never
    records them.

    The runtime survives a lossy control channel and switch crashes
    (see {!Dataplane.Fault}), on the timers of its [resilience] record:

    - a per-switch Echo keepalive loop echoes a switch that is up,
      declares it down after a configurable number of consecutive
      misses and fires the apps' [switch_down] callback;
    - a switch that is not up (at start, after a switch-down or a
      restart [Hello], and for every switch a new leader adopts) is
      probed by its handshake alone: sent at once, then re-sent after
      [retx_timeout], each wait [retx_backoff] times the last, up to
      [min retx_cap echo_period], until the features reply arrives.  A
      lost handshake frame costs one RTO, and a dead switch is probed
      no more often than once per keepalive period.  Every copy goes
      out while the switch's stream is held, so all carry the same
      opening number, and the lane is FIFO, so all reach the switch
      before the first batch of the stream the reply opens;
    - flow-mod batches become reliable: each switch has one go-back-N
      stream ({!Util.Gbn}) of barrier-terminated batches, numbered
      contiguously, up to eight in flight.  The switch applies them in
      number order only and its barrier reply is a cumulative ack
      ({!Dataplane.Ctl_channel.admit}).  A timeout resends every unacked
      batch, with capped exponential backoff; the timeout adapts to the
      control RTT (Karn's rule).  Each features handshake opens the
      stream at the number of the next batch, so a crash, a re-handshake
      or a new leader starts a stream no older frame or ack can touch;
    - a switch that re-handshakes (after a crash, a control-channel
      partition, or adoption by a new leader — its restart [Hello], a
      switch-down or the adoption starts a fresh features exchange) is
      resynced:
      the runtime re-pushes the full intended table from the shadow as
      one reliable delete-all-plus-adds batch, the first of the new
      stream; it supersedes the batches queued while the switch was down.
      The resync reads nothing from the switch, so it is the same
      whether the table survived or was wiped.

    The keepalive loop schedules forever, so a simulation with a
    controller running never drains its event queue: run it with
    [~until], or call {!shutdown} first. *)

(** Knobs for the keepalive / retransmission machinery. *)
type resilience = {
  echo_period : float;
      (** seconds between keepalive ticks per switch; also the ceiling
          on the handshake retry interval *)
  echo_miss_limit : int;   (** consecutive unanswered echos ⇒ switch down *)
  retx_timeout : float;
      (** retransmission timeout (RTO) before the first RTT sample, and
          the wait before the first handshake retry *)
  retx_backoff : float;
      (** RTO multiplier per retransmission, batch or handshake *)
  retx_cap : float;
      (** ceiling on the RTT estimate and the backed-off RTO, and (with
          [echo_period]) on the handshake retry interval *)
}

val default_resilience : resilience

(** [check_resilience who r] raises [Invalid_argument] (naming [who]
    and the field) unless [r] can drive its timers forward: a zero or
    non-finite period or timeout would schedule keepalives or
    retransmissions at one simulated instant forever.  Requires
    [echo_period] finite and > 0 and [echo_miss_limit] >= 1; the three
    [retx_] fields go through {!Util.Gbn.bad_arg}, the validation
    {!Dataplane.Transport.start} shares: [retx_timeout] finite and > 0,
    [retx_backoff] finite and >= 1, [retx_cap] finite and >=
    [retx_timeout]. *)
val check_resilience : string -> resilience -> unit


(** Resilience counters. *)
type resilience_stats = {
  mutable retransmits : int;      (** batches resent on a timeout *)
  mutable echo_misses : int;      (** keepalive ticks with an unanswered echo *)
  mutable switch_downs : int;     (** switch-down declarations *)
  mutable resyncs : int;          (** full-table re-pushes after re-handshake *)
  mutable acked_batches : int;    (** reliable batches confirmed by barrier *)
  mutable dropped_batches : int;
      (** un-acked batches discarded at switch-down, and batches queued
          while down that a resync superseded *)
  mutable recovery_samples : float list;
      (** down → re-handshake durations, newest first *)
}

type t

(** [shadow_flow_mod table fm] applies [fm] to an intended-state shadow:
    exactly as the switch does (same cookies, so deletes scoped by
    cookie hit the same rules), except that an add or modify with an
    idle timeout only clears its (priority, pattern) key — the switch
    expires such a rule on its own, so the shadow holds exactly the
    switch's permanent rules.  The runtime and every replica of its
    shadow ({!Controller.Replica}) write through this one function. *)
val shadow_flow_mod : Flow.Table.t -> Openflow.Message.flow_mod -> unit

(** The permanent rules the runtime believes [switch_id] should hold
    (every flow-mod ever sent, applied to a shadow table with
    {!shadow_flow_mod}). *)
val intended_rules : t -> switch_id:int -> Flow.Table.rule list

(** [diverged t] — the switches of the runtime's network whose permanent
    rules differ from the intended shadow; empty = zero divergence.
    Rules are compared as (priority, pattern, actions, cookie) sets;
    timed rules on the switch are soft state and not compared. *)
val diverged : t -> int list

(** [settle t] advances the simulation in 10 ms steps until {!diverged}
    is empty, for at most 2 s; returns the switches still diverged.
    Under never-ending control loss a false switch-down can be
    rerouting at any one instant, so convergence is a state a run must
    reach, not a property of one sample time. *)
val settle : t -> int list

(** Resilience counters. *)
val resilience_stats : t -> resilience_stats

(** Down → re-handshake durations observed so far, in seconds (newest
    first); feeds the recovery-time percentiles in E9. *)
val recovery_times : t -> float list

(** Stops the keepalive loops and disarms retransmission and handshake
    retry timers, so a simulation can drain its event queue. *)
val shutdown : t -> unit

(** Crashes the runtime: {!shutdown}, plus incoming frames are ignored
    and outgoing sends refused — a dead controller process neither reads
    nor writes.  Used by {!Controller.Replica} for controller-outage
    incidents (a {e deposed} leader is NOT halted: it keeps writing, and
    only the fencing tokens protect the switches). *)
val halt : t -> unit

(** [create ?resilience net apps] starts a controller speaking the wire
    protocol on [net] and registers [apps] (dispatched in list order).
    It takes every switch of [net] the one way a controller owns a
    switch: it adopts the switch's session ({!Dataplane.Network.adopt}
    with {!handler}) and sends the handshake (hello + features request)
    at once, retrying it until the features reply returns; apps then
    receive [switch_up].  A later runtime on the same network (a new leader) adopts
    the sessions in turn.  [resilience] (default {!default_resilience})
    sets the keepalive and retransmission timers.  [net] is a
    single-domain network: a sharded simulation ({!Dataplane.Shard})
    takes no controller.

    The remaining knobs exist for {!Controller.Replica} and leave the
    single-controller behavior byte-identical at their defaults:
    [fence] opens every transmission with a lease-epoch
    {!Openflow.Message.Fence}; [shadows] seeds per-switch intended state
    from a replica (those switches resync on their first features
    reply); [on_shadow] observes every shadowed flow-mod — the
    replication delta stream.
    @raise Invalid_argument on a [resilience] record that
    {!check_resilience} rejects. *)
val create :
  ?resilience:resilience ->
  ?fence:int ->
  ?shadows:(int * Flow.Table.rule list) list ->
  ?on_shadow:(switch_id:int -> Openflow.Message.flow_mod -> unit) ->
  Dataplane.Network.t -> Api.app list -> t

val ctx : t -> Api.ctx

(** The control-channel receive handler — what {!create} adopts every
    switch session to ({!Dataplane.Ctl_channel.adopt}). *)
val handler : t -> switch_id:int -> bytes -> unit

(** Switches that have completed the feature handshake (re-handshakes
    after a crash count again).
    Test-only. *)
val ready_switches : t -> int

(** Whether [switch_id] is currently believed up: it has answered a
    features request and not missed [echo_miss_limit] keepalives since. *)
val switch_up : t -> switch_id:int -> bool

(** Convenience: create the runtime and run the simulation for 10
    control RTTs: the handshake takes one, and a switch's batches then
    land a window of eight per round trip, so on a clean channel dozens
    of batches pushed per switch at [switch_up] (40 in a test) are
    installed when this returns.  Apps with periodic loops (e.g.
    {!Monitor}) schedule beyond this horizon and are unaffected. *)
val create_and_handshake :
  ?resilience:resilience ->
  Dataplane.Network.t -> Api.app list -> t
