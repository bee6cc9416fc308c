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
  send : switch_id:int -> Openflow.Message.t -> unit;
      (** low-level: send any message to a switch *)
  send_batch : switch_id:int -> Openflow.Message.t list -> unit;
      (** low-level: send several messages to a switch as one wire batch
          (one transmission, applied in order at delivery) *)
  await_stats :
    switch_id:int -> (Openflow.Message.stats_reply -> unit) -> unit;
      (** enqueue a one-shot continuation for the switch's next stats
          reply (replies arrive in request order on the ordered control
          channel) *)
}

(** The network topology as currently known (link state included). *)
let topology ctx = Dataplane.Network.topology ctx.net

(** Current simulated time. *)
let time ctx = Dataplane.Network.now ctx.net

(** [schedule ctx ~delay f] runs [f] after [delay] seconds of simulated
    time. *)
let schedule ctx ~delay f =
  Dataplane.Sim.schedule (Dataplane.Network.sim ctx.net) ~delay f

(** [install ctx ~switch_id ?priority ?idle_timeout ?hard_timeout ?cookie
    pattern actions] adds a flow rule. *)
let install ctx ~switch_id ?(priority = 0) ?idle_timeout ?hard_timeout
    ?(cookie = 0) ?(notify_when_removed = false) pattern actions =
  ctx.send ~switch_id
    (Openflow.Message.Flow_mod
       (Openflow.Message.add_flow ~priority ~idle_timeout ~hard_timeout
          ~cookie ~notify_when_removed ~pattern ~actions ()))

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
let change_flow_mods ?(cookie = 0) ~known (change : Netkat.Delta.change) =
  let add (r : Netkat.Local.rule) =
    Openflow.Message.add_flow ~priority:r.priority ~cookie ~pattern:r.pattern
      ~actions:r.actions ()
  in
  match change with
  | Unchanged -> []
  | Changed { adds; deletes; _ } when known ->
    List.map add adds
    @ List.map
        (fun (r : Netkat.Local.rule) ->
          Openflow.Message.delete_strict_flow ~cookie:(Some cookie)
            ~priority:r.priority ~pattern:r.pattern ())
        deletes
  | Changed { rules; _ } ->
    Openflow.Message.delete_flow ~cookie:(Some cookie)
      ~pattern:Flow.Pattern.any ()
    :: List.map add rules

(** [known_switch previous switch_id] — whether a writer whose last
    compile was [previous] has programmed [switch_id] (the [known]
    argument of {!change_flow_mods}). *)
let known_switch previous switch_id =
  match previous with
  | Some p -> Netkat.Delta.find p switch_id <> None
  | None -> false

(** [send_flow_mods ctx ~switch_id fms] sends [fms] as one batched
    transmission terminated by a barrier; nothing at all when [fms] is
    empty. *)
let send_flow_mods ctx ~switch_id = function
  | [] -> ()
  | fms ->
    ctx.send_batch ~switch_id
      (List.map (fun fm -> Openflow.Message.Flow_mod fm) fms
       @ [ Openflow.Message.Barrier_request ])

(** [push_delta ctx ?cookie ~previous result] pushes one
    {!Netkat.Delta.compile} step compiled against [previous]: each
    switch's {!change_flow_mods}, as one batch per switch.  Returns
    [(full, delta)]: the rules sent as replacements and the flow-mods
    sent as deltas. *)
let push_delta ctx ?(cookie = 0) ~previous (result : Netkat.Delta.result) =
  List.fold_left
    (fun (full, delta) (switch_id, (change : Netkat.Delta.change)) ->
      let known = known_switch previous switch_id in
      send_flow_mods ctx ~switch_id (change_flow_mods ~cookie ~known change);
      match change with
      | Unchanged -> (full, delta)
      | Changed { adds; deletes; _ } when known ->
        (full, delta + List.length adds + List.length deletes)
      | Changed { rules; _ } -> (full + List.length rules, delta))
    (0, 0) result.changes

(** [load_delta ~previous ~table_of result] is {!push_delta} (under
    cookie 0) without a control channel: each switch's
    {!change_flow_mods} is applied to [table_of switch_id] through
    {!Openflow.Message.apply_to_table}, the mapping a switch applies to
    the flow-mods it receives, so an offline table equals the one a
    controller push converges to. *)
let load_delta ~previous ~table_of (result : Netkat.Delta.result) =
  List.iter
    (fun (switch_id, change) ->
      match
        change_flow_mods ~known:(known_switch previous switch_id) change
      with
      | [] -> ()
      | fms ->
        let table = table_of switch_id in
        List.iter (Openflow.Message.apply_to_table ~now:0.0 table) fms)
    result.changes

(** [uninstall ctx ~switch_id ?cookie pattern] deletes all rules subsumed
    by [pattern] (restricted to [cookie] when given). *)
let uninstall ctx ~switch_id ?cookie pattern =
  ctx.send ~switch_id
    (Openflow.Message.Flow_mod (Openflow.Message.delete_flow ~cookie ~pattern ()))

(** [uninstall_strict ctx ~switch_id ~priority pattern] deletes exactly
    the rule with this priority and pattern. *)
let uninstall_strict ctx ~switch_id ?cookie ~priority pattern =
  ctx.send ~switch_id
    (Openflow.Message.Flow_mod
       (Openflow.Message.delete_strict_flow ~cookie ~priority ~pattern ()))

(** [clear ctx ~switch_id] empties the switch's table. *)
let clear ctx ~switch_id = uninstall ctx ~switch_id Flow.Pattern.any

(** [packet_out ctx ~switch_id ~in_port actions payload] re-injects a
    packet at the switch, applying [actions]. *)
let packet_out ctx ~switch_id ~in_port actions payload =
  ctx.send ~switch_id
    (Openflow.Message.Packet_out
       { out_in_port = in_port; out_actions = actions; out_packet = payload })

(** [flood ctx ~switch_id ~in_port payload] sends out all (spanning-tree)
    ports except the ingress. *)
let flood ctx ~switch_id ~in_port payload =
  packet_out ctx ~switch_id ~in_port [ Flow.Action.Output Flood ] payload

(** [request_stats ctx ~switch_id req k] polls statistics; [k] receives
    the matching {!Openflow.Message.stats_reply}. *)
let request_stats ctx ~switch_id req k =
  ctx.await_stats ~switch_id k;
  ctx.send ~switch_id (Openflow.Message.Stats_request req)

(** [set_flood_ports ctx ~switch_id ports] restricts the switch's [Flood]
    action to [ports] (plus never the ingress).  This models configuring
    the spanning-tree port set and takes effect immediately. *)
let set_flood_ports ctx ~switch_id ports =
  (Dataplane.Network.switch ctx.net switch_id).flood_ports <- Some ports

type app = {
  name : string;
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
  flow_removed : ctx -> switch_id:int -> Openflow.Message.flow_removed -> unit;
  export_state : ctx -> string option;
      (** replication hook (see {!Controller.Replica}): an opaque blob of
          the app's durable state, shipped to standby controllers with
          each heartbeat.  [None] (the default) = stateless — tables and
          topology reactions are rebuilt from events, nothing to carry.
          Export only what a fresh instance cannot re-derive (e.g. a
          version counter whose values are still live in the dataplane,
          see {!Update.export_state}). *)
  import_state : ctx -> string -> unit;
      (** replication hook: a newly-promoted leader's fresh app instance
          receives the latest blob the old leader exported (called once,
          before any [switch_up] events).  Default: ignore. *)
}

(** An app with every callback a no-op; override the fields you need. *)
let default_app name =
  { name;
    switch_up = (fun _ ~switch_id:_ ~ports:_ -> ());
    switch_down = (fun _ ~switch_id:_ -> ());
    packet_in = (fun _ ~switch_id:_ ~port:_ ~reason:_ _ -> ());
    port_status = (fun _ ~switch_id:_ ~port:_ ~up:_ -> ());
    flow_removed = (fun _ ~switch_id:_ _ -> ());
    export_state = (fun _ -> None);
    import_state = (fun _ _ -> ()) }
