(** The control channel: the per-switch control session, and the one
    transmit path that every ordered, lossy channel in the simulator
    shares.

    A {!lane} is one direction of an ordered channel.  {!transmit} puts
    one transmission on a lane.  It checks the partition flag, draws the
    chaos verdict ({!Fault.decide}: drop, duplicate, jitter), clamps the
    arrival so that jitter never reorders the lane (the channel models
    TCP) and hands each arrival time to the caller's [emit].  Two
    channels use it: a switch's control session in both directions, and
    the inter-controller channel of {!Controller.Replica}.  Every lane
    has the same one-way {!latency}.

    A {!session} is the switch's half of the OpenFlow channel.  It holds
    both lanes, the partition flag, the owner of up-direction frames,
    the lease-fencing token and the go-back-N receiver of the
    controller's reliable stream.  {!admit} is the session's gate on a
    delivered controller→switch transmission: fence frames, fenced
    deliveries and stream batches out of order stop here, and everything
    else goes on to the switch.  A controller owns a switch by adopting
    its session ({!adopt}), as an OpenFlow switch hands its connection
    to the controller in the master role.  A controller runs only on a
    single-domain network, so a session's frames never leave the
    network that owns the switch.

    The module keeps no clock, no counters and no log.  Callers pass the
    current time and the network's event log ({!Network.set_tracer}),
    and account for the {!fate} that {!transmit} returns. *)

type lane

val lane : string option -> lane

(** The one-way latency of every lane: 1 ms. *)
val latency : float

(** What became of one transmission. *)
type fate =
  | Sent     (** one or two arrivals were emitted *)
  | Cut      (** lost to a partition; no verdict was drawn *)
  | Dropped  (** lost to a chaos drop verdict *)

(** [transmit ~tracer fault lane ~cut ~now emit] sends one transmission
    on [lane] at time [now].  Without a fault it arrives {!latency}
    later.  Under chaos the verdict may drop it, delay it by jitter or
    duplicate it; every copy's arrival is clamped to the lane's latest
    so far.  Draws exactly one verdict per transmission that is not
    [cut], so a seed replays the same realization.  A labelled lane
    reports its verdicts to [tracer], the network's event log
    ({!Network.set_tracer}): ["drop ctl->s3"], ["jitter ctl->s3
    +0.000412"], ["dup ctl->s3"]; an unlabelled one reports nothing. *)
val transmit :
  tracer:(float -> string -> unit) option ->
  Fault.t option ->
  lane -> cut:bool -> now:float -> (float -> unit) -> fate

type session = {
  sw_id : int;
  down : lane;  (** controller → switch *)
  up : lane;    (** switch → controller *)
  mutable cut : bool;
      (** control channel partitioned: frames in either direction vanish
          while the switch keeps forwarding *)
  mutable owner : (switch_id:int -> bytes -> unit) option;
      (** the controller that adopted the session ({!adopt}); [None]
          means no controller, and the switch sends nothing up *)
  mutable fence : int;
      (** highest lease-fencing token seen ({!Openflow.Message.Fence}),
          0 = never fenced.  Survives a switch reboot: it models the
          durable epoch a real switch learns from its connection
          manager, and forgetting it would re-open the split-brain
          window after every crash. *)
  mutable next : int;
      (** the number of the stream batch the switch applies next, or -1
          while no stream is open (see {!admit}) *)
}

val create : int -> session

(** [adopt s handler] re-homes the session: from now on the switch's
    up-direction frames go to [handler].  Frames already in flight
    re-home too, because the owner is read at delivery.  Adoption is
    like handing a connected socket to a new process: nothing is lost or
    reordered, and the stream stays as it was.  It is silent (it writes
    nothing to the event log), so adoption by the same logical
    controller is invisible to a chaos-free run. *)
val adopt : session -> (switch_id:int -> bytes -> unit) -> unit

(** A switch reboot is a fresh control connection: the stream closes
    until the next handshake, the fencing token stays. *)
val reconnect : session -> unit

(** What became of one delivery at the gate. *)
type admission =
  | Admitted  (** passed, or held replays or batches past a gap *)
  | Fenced of int  (** a stale fence dropped it, with this many flow-mods *)
  | Unopened
      (** it held a stream batch and no stream is open: the switch should
          announce itself so the controller handshakes again *)

(** [admit s ~tracer ~now frames apply] gates one delivered
    controller→switch transmission (a batch of decoded [(xid, msg)]
    frames) and calls [apply xid msg] on each frame that passes.

    Flow-mods and barriers form the controller's reliable stream, and
    the session is its go-back-N receiver.  Every frame of a stream
    batch carries the batch's number ({!Util.Gbn}) as its xid.  A
    [Features_request] opens the stream at its xid, the number of the
    controller's next batch, much as a SYN carries TCP's initial
    sequence number; the controller sends one only while nothing of its
    is in flight, and the lane is FIFO, so no older frame follows it.
    The next batch in number is applied; a replay is not applied again,
    but its barrier is answered; a batch past a gap is dropped whole.  A
    barrier reply's xid is the number of the last batch applied: a
    cumulative ack.  A reboot ({!reconnect}) and a strictly higher fence
    close the stream until the next [Features_request], so no frame from
    before a crash or from another leader is applied or acked.

    A [Fence] frame below the highest token seen drops the rest of the
    delivery, barrier included: a deposed leader wrote after failover.
    Frames outside the stream (handshake, echo, stats, packet-out)
    otherwise pass.  What it stops is reported to [tracer], the
    network's event log: ["s3 stale fence 1 < 2"], ["s3 dedup flow-mod
    xid=7"], ["s3 drop(gap) ..."], ["s3 drop(unopened) ..."]. *)
val admit :
  session ->
  tracer:(float -> string -> unit) option ->
  now:float ->
  (int * Openflow.Message.t) list ->
  (int -> Openflow.Message.t -> unit) -> admission
