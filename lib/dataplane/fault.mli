(** Deterministic fault injection for the control channel and the
    substrate.

    A [Fault.t] is a seeded source of adversity: every control-channel
    transmission consults it once and may be dropped, duplicated or
    delayed (latency jitter); scheduled {!incident}s flap links and
    crash/restart switches through the failure API of {!Network}.  All
    randomness flows from one {!Util.Prng} stream drawn in simulation
    order, so a given seed + configuration reproduces the exact same
    run — chaos runs are experiments, not flakes.

    The module is pure verdicts plus counters: it keeps no log.
    {!Ctl_channel.transmit} draws the per-transmission verdicts;
    {!Network} owns the other hooks (see [Network.create ?fault],
    [Network.crash_switch], [Network.inject]).  What the verdicts and
    incidents did is written to the network's one event log
    ({!Network.set_tracer}), and only while a tracer is attached. *)

type config

(** A scheduled substrate incident (interpreted by [Network.inject]). *)
type incident =
  | Link_flap of {
      node : Topo.Topology.Node.t;
      port : int;
      at : float;        (** absolute sim time of the failure *)
      duration : float;  (** seconds until [restore_link] *)
    }
  | Switch_outage of {
      switch_id : int;
      at : float;
      duration : float;  (** seconds until restart (fresh handshake) *)
    }
  | Ctl_outage of {
      switch_id : int;
      at : float;
      duration : float;
      (** seconds of control-channel partition: the switch stays alive
          and keeps its (warm) table, but every control frame in either
          direction is dropped — the controller runtime declares it down
          and must reconcile the surviving state on re-handshake. *)
    }
  | Controller_outage of {
      controller_id : int;
      at : float;
      duration : float;
      (** crash/restart of a controller {e replica} (see
          {!Controller.Replica}): the member stops sending and receiving
          at [at] and rejoins as a standby at [at + duration].  Routed
          through [Network.set_ctl_outage_handler]; a network without a
          replicated controller ignores it. *)
    }

type t

val default_seed : int

val make_config :
  ?seed:int ->
  ?drop:float ->
  ?dup:float ->
  ?jitter:float ->
  ?link_drop:float ->
  ?link_corrupt:float -> ?link_reorder:float -> unit -> config

val of_config : config -> t

val create :
  ?seed:int ->
  ?drop:float ->
  ?dup:float ->
  ?jitter:float ->
  ?link_drop:float -> ?link_corrupt:float -> ?link_reorder:float -> unit -> t

(** An independent chaos PRNG derived from the fault's stream — use it
    for scenario generation (random flap targets, crash times) so the
    whole run stays a function of one seed. *)
val derive_prng : t -> Util.Prng.t

type verdict = {
  v_drop : bool;
  v_dup : bool;
  v_delay : float;       (** extra latency for the first copy *)
  v_dup_delay : float;   (** extra latency for the duplicate, if any *)
}

(** One verdict per control-channel transmission, drawn by
    {!Ctl_channel.transmit}.  Draws a fixed number of samples per call
    (given the configuration), so the random stream — and therefore the
    event log — is a deterministic function of the sequence of
    transmissions. *)
val decide : t -> verdict

(** [has_link_chaos t] — does any link-level rate fire?  [Network]
    caches this so the zero-rate transmit path stays byte-identical to
    a run with no fault attached. *)
val has_link_chaos : t -> bool

type link_verdict = {
  lv_drop : bool;     (** packet vanishes on the wire *)
  lv_corrupt : bool;  (** payload mangled: receiver fails the CRC *)
  lv_extra : float;   (** extra delivery latency (reorder), >= 0 *)
}

val clean_verdict : link_verdict

(** A fresh verdict stream for the link leaving [node] via [port].
    Keyed on [seed] and the link, not drawn from the shared control
    verdict stream, so the same link replays the same stream at any shard
    count. *)
val link_prng : t -> node:Topo.Topology.Node.t -> port:int -> Util.Prng.t

(** One verdict per data-packet transmission on a link, drawn from that
    link's own stream.  Fixed number of samples per call given the
    configuration; precedence drop > corrupt > reorder.  The reorder
    delay is uniform in [0, 4x the link's propagation [delay]) so a
    reordered packet genuinely lands behind its successors. *)
val decide_link : t -> Util.Prng.t -> delay:float -> link_verdict

val drops : t -> int

val dups : t -> int

(** Test-only. *)
val link_decisions : t -> int

val pp_stats : Format.formatter -> t -> unit
