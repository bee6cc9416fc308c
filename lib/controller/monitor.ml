type port_key = { m_switch : int; m_port : int }

type t = {
  app : Api.app;
  period : float;
  (* (switch, port) -> cumulative tx-bytes series *)
  tx_series : (port_key, Util.Stats.Series.t) Hashtbl.t;
  drops : (port_key, int) Hashtbl.t;
  (* switch -> latest table stats (incl. flow-cache counters) *)
  tables : (int, Openflow.Message.table_stat) Hashtbl.t;
  mutable polls : int;
  (* liveness observations from the runtime's keepalive loop: switches
     currently believed down, and the recovery durations seen when they
     came back *)
  polling : (int, unit) Hashtbl.t;
  down_at : (int, float) Hashtbl.t;
  mutable down_events : int;
  mutable recoveries : float list;
}

let series t key =
  match Hashtbl.find_opt t.tx_series key with
  | Some s -> s
  | None ->
    let s = Util.Stats.Series.create () in
    Hashtbl.replace t.tx_series key s;
    s

let record t ~time (ps : Openflow.Message.port_stat) ~switch_id =
  let key = { m_switch = switch_id; m_port = ps.pstat_port } in
  Util.Stats.Series.add (series t key) ~time ~value:(float_of_int ps.tx_bytes);
  Hashtbl.replace t.drops key ps.drops

let create ?(period = 0.5) () =
  let t_ref = ref None in
  let get () = Option.get !t_ref in
  let rec poll ctx ~switch_id =
    let t = get () in
    Api.request_stats ctx ~switch_id
      (Openflow.Message.Port_stats_request None)
      (fun reply ->
        match reply with
        | Openflow.Message.Port_stats_reply stats ->
          t.polls <- t.polls + 1;
          List.iter (record t ~time:(Api.time ctx) ~switch_id) stats
        | Openflow.Message.Table_stats_reply _ -> ());
    Api.request_stats ctx ~switch_id Openflow.Message.Table_stats_request
      (fun reply ->
        match reply with
        | Openflow.Message.Table_stats_reply ts ->
          Hashtbl.replace t.tables switch_id ts
        | Openflow.Message.Port_stats_reply _ -> ());
    Api.schedule ctx ~delay:t.period (fun () -> poll ctx ~switch_id)
  in
  let switch_up ctx ~switch_id ~ports:_ =
    let t = get () in
    (match Hashtbl.find_opt t.down_at switch_id with
     | Some since ->
       (* the switch re-handshook: record how long it was out *)
       t.recoveries <- (Api.time ctx -. since) :: t.recoveries;
       Hashtbl.remove t.down_at switch_id
     | None -> ());
    (* one poll loop per switch, however many times it re-handshakes *)
    if not (Hashtbl.mem t.polling switch_id) then begin
      Hashtbl.replace t.polling switch_id ();
      Api.schedule ctx ~delay:t.period (fun () -> poll ctx ~switch_id)
    end
  in
  let switch_down ctx ~switch_id =
    let t = get () in
    t.down_events <- t.down_events + 1;
    if not (Hashtbl.mem t.down_at switch_id) then
      Hashtbl.replace t.down_at switch_id (Api.time ctx)
  in
  let app = { Api.default_app with switch_up; switch_down } in
  let t =
    { app; period; tx_series = Hashtbl.create 64; drops = Hashtbl.create 64;
      tables = Hashtbl.create 16; polls = 0;
      polling = Hashtbl.create 16; down_at = Hashtbl.create 16;
      down_events = 0; recoveries = [] }
  in
  t_ref := Some t;
  t

let app t = t.app
let polls t = t.polls

let down_events t = t.down_events

let recoveries t = t.recoveries

let cache_summary t =
  Hashtbl.fold
    (fun _ (ts : Openflow.Message.table_stat) (h, m, i) ->
      (h + ts.cache_hits, m + ts.cache_misses, i + ts.cache_invalidations))
    t.tables (0, 0, 0)

(** Average transmit rate (bytes/s) observed on a port over the whole
    monitoring window; 0 when unobserved. *)
let tx_rate t ~switch_id ~port =
  match Hashtbl.find_opt t.tx_series { m_switch = switch_id; m_port = port } with
  | None -> 0.0
  | Some s -> Util.Stats.Series.rate s

let utilization t net ~switch_id ~port =
  match
    Topo.Topology.link_via
      (Dataplane.Network.topology net)
      (Topo.Topology.Node.Switch switch_id) port
  with
  | None -> 0.0
  | Some l -> tx_rate t ~switch_id ~port *. 8.0 /. l.capacity

let hot_links t net =
  Hashtbl.fold
    (fun key _ acc ->
      (key.m_switch, key.m_port,
       utilization t net ~switch_id:key.m_switch ~port:key.m_port)
      :: acc)
    t.tx_series []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
