(** Control-channel messages between the controller and switches, modeled
    on OpenFlow 1.0.  Every message travels with a transaction id ([xid]);
    {!Wire} provides the binary framing.

    Packet payloads on the control channel (packet-in / packet-out) carry
    the flat {!Packet.Headers.t} view plus the original size and an opaque
    tag, which is exactly the state the simulated dataplane attaches to a
    packet in flight. *)

type payload = {
  headers : Packet.Headers.t;
  size : int;  (** original frame size in bytes *)
  tag : int;   (** opaque correlation tag (e.g. ping id) *)
}

type packet_in_reason =
  | No_match       (** table miss *)
  | Explicit_send  (** an [Output Controller] action fired *)

type packet_in = {
  in_port : int;
  reason : packet_in_reason;
  packet : payload;
}

type packet_out = {
  out_in_port : int;  (** ingress port context for [In_port_out]/[Flood] *)
  out_actions : Flow.Action.seq;
  out_packet : payload;
}

type flow_mod_command =
  | Add_flow
  | Delete_flow        (** remove rules subsumed by the pattern *)
  | Delete_strict_flow (** remove exactly the (priority, pattern) rule *)

type flow_mod = {
  command : flow_mod_command;
  fm_priority : int;
  fm_pattern : Flow.Pattern.t;
  fm_actions : Flow.Action.group;
  idle_timeout : float option;
      (** evict after this many seconds without a hit; [None] = permanent *)
  fm_cookie : int;
}

val add_flow :
  ?priority:int ->
  ?idle_timeout:float option ->
  ?cookie:int ->
  pattern:Flow.Pattern.t -> actions:Flow.Action.group -> unit -> flow_mod

val delete_flow :
  ?cookie:int option -> pattern:Flow.Pattern.t -> unit -> flow_mod

val delete_strict_flow :
  ?cookie:int option ->
  priority:int -> pattern:Flow.Pattern.t -> unit -> flow_mod

(** [apply_to_table ~now table fm] is the table half of a flow-mod: the
    one mapping from [fm] to table operations, shared by the switch and
    by every controller-side shadow of its table, so a shadow cannot
    drift from what the switch installs.  An added rule carries
    [fm_cookie] unchanged and [now] as its last-hit time; a cookie of
    [-1] scopes a delete to every cookie. *)
val apply_to_table : now:float -> Flow.Table.t -> flow_mod -> unit

type port_status_reason =
  | Port_up
  | Port_down

type port_status = { ps_port : int; ps_reason : port_status_reason }

type features_reply = {
  datapath_id : int;
  port_list : int list;  (** ports that carry links *)
}

type stats_request =
  | Port_stats_request of int option       (** one port, or all when [None] *)
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
  cache_hits : int;          (** megaflow-cache hits *)
  cache_misses : int;        (** flow-cache misses (fell to the classifier) *)
  cache_invalidations : int; (** generation bumps from table mutations *)
  classifier_probes : int;   (** tuple-space shape-table probes *)
  classifier_shapes : int;   (** distinct pattern shapes in the table *)
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
      (** leader-lease fencing token (see {!Controller.Replica}): prefixes
          a flow-mod batch with the sender's lease epoch.  A switch
          remembers the highest token it has seen and rejects flow-mods
          in any delivery fenced with a lower one, so a deposed leader's
          writes cannot land after a failover.  A strictly higher token
          also resets the switch's flow-mod xid dedup — each epoch is a
          fresh reliable stream. *)

(** Test-only. *)
val pp : Format.formatter -> t -> unit
