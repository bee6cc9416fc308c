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

(** [install_rules ctx ~switch_id ?cookie rules] installs all of
    [rules] — [(priority, pattern, actions)] triples — as {e one}
    batched transmission (see {!Openflow.Wire.encode_batch}) terminated
    by a barrier request, so install cost on the control channel is
    per-batch, not per-rule.  [replace] prepends a delete of every rule
    the cookie owns, making the batch a full-table replacement.  A
    no-op on an empty rule list with [replace] off. *)
let install_rules ctx ~switch_id ?idle_timeout ?hard_timeout ?(cookie = 0)
    ?(notify_when_removed = false) ?(replace = false) rules =
  if rules <> [] || replace then begin
    let adds =
      List.map
        (fun (priority, pattern, actions) ->
          Openflow.Message.Flow_mod
            (Openflow.Message.add_flow ~priority ~idle_timeout ~hard_timeout
               ~cookie ~notify_when_removed ~pattern ~actions ()))
        rules
    in
    let msgs =
      if replace then
        Openflow.Message.Flow_mod
          (Openflow.Message.delete_flow ~cookie:(Some cookie)
             ~pattern:Flow.Pattern.any ())
        :: adds
      else adds
    in
    ctx.send_batch ~switch_id (msgs @ [ Openflow.Message.Barrier_request ])
  end

(** [delta_flow_mods ?cookie ~adds ~deletes ()] — the flow-mod messages
    for a minimal table edit: one add/modify per rule of [adds], one
    strict delete per rule of [deletes].  No barrier; see
    {!apply_delta}. *)
let delta_flow_mods ?idle_timeout ?hard_timeout ?(cookie = 0)
    ?(notify_when_removed = false) ~(adds : Netkat.Local.rule list)
    ~(deletes : Netkat.Local.rule list) () =
  let add_msgs =
    List.map
      (fun (r : Netkat.Local.rule) ->
        Openflow.Message.Flow_mod
          (Openflow.Message.add_flow ~priority:r.priority ~idle_timeout
             ~hard_timeout ~cookie ~notify_when_removed ~pattern:r.pattern
             ~actions:r.actions ()))
      adds
  in
  let delete_msgs =
    List.map
      (fun (r : Netkat.Local.rule) ->
        Openflow.Message.Flow_mod
          (Openflow.Message.delete_strict_flow ~cookie:(Some cookie)
             ~priority:r.priority ~pattern:r.pattern ()))
      deletes
  in
  add_msgs @ delete_msgs

(** [apply_delta ctx ~switch_id ?cookie ~adds ~deletes ()] pushes a
    minimal table edit as one batched transmission terminated by a
    barrier: adds/modifies first (an OpenFlow add with an existing
    [(priority, pattern)] is a modify), then strict deletes of vanished
    rules.  Sends nothing at all when both lists are empty — a no-op
    edit must not touch the switch (its flow cache stays warm). *)
let apply_delta ctx ~switch_id ?idle_timeout ?hard_timeout ?cookie
    ?notify_when_removed ~adds ~deletes () =
  match (adds, deletes) with
  | [], [] -> ()
  | _ ->
    let msgs =
      delta_flow_mods ?idle_timeout ?hard_timeout ?cookie
        ?notify_when_removed ~adds ~deletes ()
    in
    ctx.send_batch ~switch_id (msgs @ [ Openflow.Message.Barrier_request ])

(** [push_delta ctx ?cookie ~previous result] pushes one
    {!Netkat.Delta.compile} step compiled against [previous], one batch
    per changed switch, all under [cookie]: an [Unchanged] switch gets
    nothing; a switch absent from [previous] (first contact, or
    rejoining after being compiled around) gets a cookie-scoped full
    replacement ({!install_rules} [~replace:true]); every other changed
    switch gets its minimal {!apply_delta}.  Returns [(full, delta)]:
    the rules sent as replacements and the flow-mods sent as deltas. *)
let push_delta ctx ?(cookie = 0) ~previous (result : Netkat.Delta.result) =
  let known switch_id =
    match previous with
    | Some p -> Netkat.Delta.find p switch_id <> None
    | None -> false
  in
  List.fold_left
    (fun (full, delta) (switch_id, (change : Netkat.Delta.change)) ->
      match change with
      | Unchanged -> (full, delta)
      | Changed { adds; deletes; _ } when known switch_id ->
        apply_delta ctx ~switch_id ~cookie ~adds ~deletes ();
        (full, delta + List.length adds + List.length deletes)
      | Changed { rules; _ } ->
        install_rules ctx ~switch_id ~cookie ~replace:true
          (List.map
             (fun (r : Netkat.Local.rule) -> (r.priority, r.pattern, r.actions))
             rules);
        (full + List.length rules, delta))
    (0, 0) result.changes

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
