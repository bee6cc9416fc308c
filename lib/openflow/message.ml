type payload = {
  headers : Packet.Headers.t;
  size : int;
  tag : int;
}

type packet_in_reason =
  | No_match
  | Explicit_send

type packet_in = {
  in_port : int;
  reason : packet_in_reason;
  packet : payload;
}

type packet_out = {
  out_in_port : int;
  out_actions : Flow.Action.seq;
  out_packet : payload;
}

type flow_mod_command =
  | Add_flow
  | Delete_flow
  | Delete_strict_flow

type flow_mod = {
  command : flow_mod_command;
  fm_priority : int;
  fm_pattern : Flow.Pattern.t;
  fm_actions : Flow.Action.group;
  idle_timeout : float option;
  fm_cookie : int;
}

let add_flow ?(priority = 0) ?(idle_timeout = None) ?(cookie = 0) ~pattern
    ~actions () =
  { command = Add_flow; fm_priority = priority; fm_pattern = pattern;
    fm_actions = actions; idle_timeout; fm_cookie = cookie }

let delete_flow ?(cookie = None) ~pattern () =
  { command = Delete_flow; fm_priority = 0; fm_pattern = pattern;
    fm_actions = []; idle_timeout = None;
    fm_cookie = (match cookie with None -> -1 | Some c -> c) }

let delete_strict_flow ?(cookie = None) ~priority ~pattern () =
  { command = Delete_strict_flow; fm_priority = priority;
    fm_pattern = pattern; fm_actions = []; idle_timeout = None;
    fm_cookie = (match cookie with None -> -1 | Some c -> c) }

let apply_to_table ~now table fm =
  let scope = if fm.fm_cookie = -1 then None else Some fm.fm_cookie in
  match fm.command with
  | Add_flow ->
    Flow.Table.add table
      (Flow.Table.make_rule ~priority:fm.fm_priority ~pattern:fm.fm_pattern
         ~actions:fm.fm_actions ~idle_timeout:fm.idle_timeout
         ~cookie:fm.fm_cookie ~now ())
  | Delete_flow -> Flow.Table.remove ?cookie:scope table ~pattern:fm.fm_pattern
  | Delete_strict_flow ->
    Flow.Table.remove_strict ?cookie:scope table ~priority:fm.fm_priority
      ~pattern:fm.fm_pattern

type port_status_reason =
  | Port_up
  | Port_down

type port_status = { ps_port : int; ps_reason : port_status_reason }

type features_reply = {
  datapath_id : int;
  port_list : int list;
}

type stats_request =
  | Port_stats_request of int option
  | Table_stats_request

type port_stat = {
  pstat_port : int;
  mutable rx_packets : int;
  mutable tx_packets : int;
  mutable rx_bytes : int;
  mutable tx_bytes : int;
  mutable drops : int;
}

type table_stat = {
  active_rules : int;
  table_hits : int;
  table_misses : int;
  cache_hits : int;
  cache_misses : int;
  cache_invalidations : int;
  classifier_probes : int;
  classifier_shapes : int;
}

type stats_reply =
  | Port_stats_reply of port_stat list
  | Table_stats_reply of table_stat

type t =
  | Hello
  | Echo_request of string
  | Echo_reply of string
  | Features_request
  | Features_reply of features_reply
  | Packet_in of packet_in
  | Packet_out of packet_out
  | Flow_mod of flow_mod
  | Port_status of port_status
  | Stats_request of stats_request
  | Stats_reply of stats_reply
  | Barrier_request
  | Barrier_reply
  | Fence of int

let type_name = function
  | Hello -> "hello"
  | Echo_request _ -> "echo_request"
  | Echo_reply _ -> "echo_reply"
  | Features_request -> "features_request"
  | Features_reply _ -> "features_reply"
  | Packet_in _ -> "packet_in"
  | Packet_out _ -> "packet_out"
  | Flow_mod _ -> "flow_mod"
  | Port_status _ -> "port_status"
  | Stats_request _ -> "stats_request"
  | Stats_reply _ -> "stats_reply"
  | Barrier_request -> "barrier_request"
  | Barrier_reply -> "barrier_reply"
  | Fence _ -> "fence"

let pp fmt t = Format.pp_print_string fmt (type_name t)
