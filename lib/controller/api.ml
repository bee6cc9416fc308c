type ctx = {
  net : Dataplane.Network.t;
  send_batch : switch_id:int -> Openflow.Message.t list -> unit;
  await_stats :
    switch_id:int -> (Openflow.Message.stats_reply -> unit) -> unit;
}

let topology ctx = Dataplane.Network.topology ctx.net

let time ctx = Dataplane.Network.now ctx.net

let schedule ctx ~delay f =
  Dataplane.Sim.schedule (Dataplane.Network.sim ctx.net) ~delay f

let install ctx ~switch_id ?(priority = 0) ?idle_timeout ?(cookie = 0)
    pattern actions =
  ctx.send_batch ~switch_id
    [ Openflow.Message.Flow_mod
        (Openflow.Message.add_flow ~priority ~idle_timeout ~cookie ~pattern
           ~actions ()) ]

let change_flow_mods ?(cookie = 0) ~known (change : Netkat.Delta.change) =
  let add (r : Netkat.Delta.rule) =
    Openflow.Message.add_flow ~priority:r.priority ~cookie ~pattern:r.pattern
      ~actions:r.actions ()
  in
  match change with
  | Unchanged -> []
  | Changed { adds; deletes; _ } when known ->
    List.map add adds
    @ List.map
        (fun (r : Netkat.Delta.rule) ->
          Openflow.Message.delete_strict_flow ~cookie:(Some cookie)
            ~priority:r.priority ~pattern:r.pattern ())
        deletes
  | Changed { rules; _ } ->
    Openflow.Message.delete_flow ~cookie:(Some cookie)
      ~pattern:Flow.Pattern.any ()
    :: List.map add rules

let known_switch previous switch_id =
  match previous with
  | Some p -> Netkat.Delta.find p switch_id <> None
  | None -> false

let send_flow_mods ctx ~switch_id = function
  | [] -> ()
  | fms ->
    ctx.send_batch ~switch_id
      (List.map (fun fm -> Openflow.Message.Flow_mod fm) fms)

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

let uninstall ctx ~switch_id ?cookie pattern =
  ctx.send_batch ~switch_id
    [ Openflow.Message.Flow_mod
        (Openflow.Message.delete_flow ~cookie ~pattern ()) ]

let packet_out ctx ~switch_id ~in_port actions payload =
  ctx.send_batch ~switch_id
    [ Openflow.Message.Packet_out
        { out_in_port = in_port; out_actions = actions;
          out_packet = payload } ]

let request_stats ctx ~switch_id req k =
  ctx.await_stats ~switch_id k;
  ctx.send_batch ~switch_id [ Openflow.Message.Stats_request req ]

type app = {
  switch_up : ctx -> switch_id:int -> ports:int list -> unit;
  switch_down : ctx -> switch_id:int -> unit;
  packet_in :
    ctx -> switch_id:int -> port:int ->
    reason:Openflow.Message.packet_in_reason ->
    Openflow.Message.payload -> unit;
  port_status : ctx -> switch_id:int -> port:int -> up:bool -> unit;
}

let default_app =
  { switch_up = (fun _ ~switch_id:_ ~ports:_ -> ());
    switch_down = (fun _ ~switch_id:_ -> ());
    packet_in = (fun _ ~switch_id:_ ~port:_ ~reason:_ _ -> ());
    port_status = (fun _ ~switch_id:_ ~port:_ ~up:_ -> ()) }
