(** The controller programming interface.

    An {!app} is a record of event callbacks; the {!Runtime} dispatches
    control-channel events to every registered app and provides a
    {!ctx} whose operations (rule installation, packet-out, stats
    polling) are encoded as wire messages and sent down the control
    channel.  Several apps can run side by side (they see the same
    events); apps that install rules should use distinct cookie spaces
    if they need to delete selectively. *)

type ctx = {
  net : Dataplane.Network.t;
  send_batch : switch_id:int -> Openflow.Message.t list -> unit;
      (** low-level: the one send path.  Sends one or more messages to a
          switch as one wire batch, applied in order at delivery.  A
          batch that carries a flow-mod or a barrier joins the switch's
          reliable stream: the runtime ends it with a barrier unless it
          already does, resends it until acked, and the switch applies
          the stream's batches in order (see {!Runtime}) *)
  await_stats :
    switch_id:int -> (Openflow.Message.stats_reply -> unit) -> unit;
      (** enqueue a one-shot continuation for the switch's next stats
          reply (replies arrive in request order on the ordered control
          channel) *)
}

(** The network topology as currently known (link state included). *)
val topology : ctx -> Topo.Topology.t

(** Current simulated time. *)
val time : ctx -> float

(** [schedule ctx ~delay f] runs [f] after [delay] seconds of simulated
    time. *)
val schedule : ctx -> delay:float -> (unit -> unit) -> unit

(** [install ctx ~switch_id ?priority ?idle_timeout ?cookie pattern
    actions] adds a flow rule; with [idle_timeout] the switch evicts it
    after that many seconds without a hit. *)
val install :
  ctx ->
  switch_id:int ->
  ?priority:int ->
  ?idle_timeout:float ->
  ?cookie:int -> Flow.Pattern.t -> Flow.Action.group -> unit

(** [change_flow_mods ?cookie ~known change] is the one mapping from a
    {!Netkat.Delta.change} to flow-mods, shared by every table writer
    (sent over the wire by {!push_delta}, applied offline by
    {!load_delta}):
    - [Unchanged] → nothing (the switch's flow cache stays warm);
    - a switch the writer has not programmed before ([known = false])
      → a delete of every rule under [cookie], then one add per rule
      (a cookie-scoped full replacement);
    - otherwise → one add/modify per rule of [adds] (an OpenFlow add
      with an existing [(priority, pattern)] is a modify), then one
      strict delete per rule of [deletes]. *)
val change_flow_mods :
  ?cookie:int ->
  known:bool -> Netkat.Delta.change -> Openflow.Message.flow_mod list

(** [known_switch previous switch_id] — whether a writer whose last
    compile was [previous] has programmed [switch_id] (the [known]
    argument of {!change_flow_mods}). *)
val known_switch : Netkat.Delta.snapshot option -> int -> bool

(** [send_flow_mods ctx ~switch_id fms] sends [fms] as one reliable
    batch, which the runtime terminates with a barrier; nothing at all
    when [fms] is empty. *)
val send_flow_mods :
  ctx -> switch_id:int -> Openflow.Message.flow_mod list -> unit

(** [push_delta ctx ?cookie ~previous result] pushes one
    {!Netkat.Delta.compile} step compiled against [previous]: each
    switch's {!change_flow_mods}, as one batch per switch.  Returns
    [(full, delta)]: the rules sent as replacements and the flow-mods
    sent as deltas. *)
val push_delta :
  ctx ->
  ?cookie:int ->
  previous:Netkat.Delta.snapshot option -> Netkat.Delta.result -> int * int

(** [load_delta ~previous ~table_of result] is {!push_delta} (under
    cookie 0) without a control channel: each switch's
    {!change_flow_mods} is applied to [table_of switch_id] through
    {!Openflow.Message.apply_to_table}, the mapping a switch applies to
    the flow-mods it receives, so an offline table equals the one a
    controller push converges to. *)
val load_delta :
  previous:Netkat.Delta.snapshot option ->
  table_of:(int -> Flow.Table.t) -> Netkat.Delta.result -> unit

(** [uninstall ctx ~switch_id ?cookie pattern] deletes all rules subsumed
    by [pattern] (restricted to [cookie] when given). *)
val uninstall : ctx -> switch_id:int -> ?cookie:int -> Flow.Pattern.t -> unit

(** [packet_out ctx ~switch_id ~in_port actions payload] re-injects a
    packet at the switch, applying [actions]. *)
val packet_out :
  ctx ->
  switch_id:int ->
  in_port:int -> Flow.Action.seq -> Openflow.Message.payload -> unit

(** [request_stats ctx ~switch_id req k] polls statistics; [k] receives
    the matching {!Openflow.Message.stats_reply}. *)
val request_stats :
  ctx ->
  switch_id:int ->
  Openflow.Message.stats_request ->
  (Openflow.Message.stats_reply -> unit) -> unit

(** An app holds no replicated state: under {!Controller.Replica} each
    promoted leader runs fresh instances, which rebuild their tables and
    topology reactions from the [switch_up] events of its handshakes. *)
type app = {
  switch_up : ctx -> switch_id:int -> ports:int list -> unit;
  switch_down : ctx -> switch_id:int -> unit;
      (** fired by the runtime's keepalive loop when a switch misses the
          echo threshold (or greets mid-session, betraying a restart);
          a later re-handshake fires [switch_up] again *)
  packet_in :
    ctx -> switch_id:int -> port:int ->
    reason:Openflow.Message.packet_in_reason ->
    Openflow.Message.payload -> unit;
  port_status : ctx -> switch_id:int -> port:int -> up:bool -> unit;
}

(** An app with every callback a no-op; override the fields you need. *)
val default_app : app
