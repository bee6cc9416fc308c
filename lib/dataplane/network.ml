module Node = Topo.Topology.Node

type pkt = {
  hdr : Packet.Headers.t;
  size : int;
  tag : int;
  ttl : int;
}

(* when a link's transmitter next falls idle: a float-only record keeps
   the float unboxed, so a hop's write allocates nothing *)
type busy = { mutable until : float }

type switch = {
  sw_id : int;
  table : Flow.Table.t;
  port_stats : (int, Openflow.Message.port_stat) Hashtbl.t;
  mutable packet_ins : int;
  mutable has_timeouts : bool;  (* whether an expiry sweep is scheduled *)
  mutable out_ports : link_state option array;
      (* lazily resolved egress state, indexed by port *)
  mutable alive : bool;
  ctl : Ctl_channel.session;
}

and host = {
  host_id : int;
  mac : Packet.Mac.t;
  ip : Packet.Ipv4.t;
  mutable received : int;
  mutable rx_bytes : int;
  mutable on_receive : (pkt -> unit) option;
  mutable uplink : link_state option;  (* cached access-link egress *)
}

and dest =
  | To_switch of switch
  | To_host of host
  | To_remote of { rem_src : Node.t; rem_src_port : int; rem_shard : int }
      (** the link's far end lives on another shard; [rem_src]/[rem_src_port]
          identify the link so the destination shard can resolve its own
          view of it at arrival *)

(* per-direction link state: queueing plus the resolved endpoints *)
and link_state = {
  ls_link : Topo.Topology.link;
      (* shares the topology's mutable [up] flag *)
  ls_tx : Openflow.Message.port_stat option;  (* switch-side tx counters *)
  ls_rx : Openflow.Message.port_stat option;  (* switch-side rx counters *)
  ls_dst : dest;
  ls_dst_port : int;
  ls_busy : busy;
  mutable queued : int;
      (* packets on the wire: the length of the in-flight ring, whose
         entries start at [ring_head] in [ring_pkts]/[ring_ttls] (a
         power-of-two capacity) in the order they land *)
  mutable ring_head : int;
  mutable ring_pkts : pkt array;
  mutable ring_ttls : int array;
  mutable ls_land : (unit -> unit) option;
      (* the one landing event of every packet on this link, built on
         first use *)
  mutable tx_drops : int;
  mutable ls_chaos : Util.Prng.t option;
      (* this link's chaos verdict stream, created on first use; keyed
         on the fault's [seed] and the egress (node, port), so it
         replays identically at any shard count *)
}

type remote_iface = {
  ri_self : int;
  ri_shard_of : Node.t -> int;
  ri_post :
    rem_shard:int -> time:float -> src:Node.t -> src_port:int -> ttl:int ->
    pkt -> unit;
}

type counters = {
  mutable delivered : int;       (* packets that reached a host app *)
  mutable dropped_policy : int;  (* explicit drop by a matching rule *)
  mutable dropped_miss : int;    (* table miss with no controller *)
  mutable dropped_queue : int;   (* drop-tail queue overflow *)
  mutable dropped_link : int;    (* transmission into a down/absent link *)
  mutable dropped_ttl : int;     (* hop budget exhausted (loops) *)
  mutable dropped_down : int;    (* packets / control frames arriving at a
                                    crashed switch (or dropped by a
                                    control-channel partition) *)
  mutable dropped_chaos : int;   (* data packets lost to link chaos *)
  mutable corrupted : int;       (* data packets mangled on the wire
                                    (modeled as a receiver CRC discard) *)
  mutable reordered : int;       (* data packets delivered late by chaos *)
  mutable forwarded : int;       (* switch forwarding operations *)
  mutable control_msgs : int;    (* messages on the control channel *)
  mutable control_bytes : int;
  mutable fenced_writes : int;   (* flow-mods rejected by the lease fence
                                    (a stale leader wrote after deposal) *)
}

type t = {
  sim : Sim.t;
  topo : Topo.Topology.t;
  switches : switch option array;  (* by id; [None]: not this network's *)
  hosts : host option array;  (* by id, likewise *)
  queue_depth : int;  (** drop-tail queue depth, packets per direction *)
  stats : counters;
  mutable tracer : (float -> string -> unit) option;  (* the event log *)
  fault : Fault.t option;  (** chaos injection on control channel + links *)
  link_chaos : bool;
      (* cached [Fault.has_link_chaos]: the data transmit path consults
         the fault only when a link-level rate is actually set, so the
         zero-chaos path is byte-identical to having no fault at all *)
  mutable remote : remote_iface option;  (** set when part of a sharded run *)
  mutable ctl_outage : (controller_id:int -> up:bool -> unit) option;
      (** interpreter for {!Fault.Controller_outage} incidents (set by
          {!Controller.Replica}); [up:false] crashes the member,
          [up:true] restarts it as a standby *)
  mutable remote_reorders : int;
      (* reorder verdicts on cross-shard links: their late delivery is a
         distinct event in the single-domain run too, so (unlike a clean
         handoff) the envelope is not sharding overhead — the shard
         equivalence accounting subtracts these from the handoff count *)
  (* resolved ingress state for links whose source is on another shard,
     keyed by the remote (node, port) *)
  ingress_tbl : (Node.t * int, link_state) Hashtbl.t;
}

let sum_counters cs =
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 cs in
  { delivered = sum (fun c -> c.delivered);
    dropped_policy = sum (fun c -> c.dropped_policy);
    dropped_miss = sum (fun c -> c.dropped_miss);
    dropped_queue = sum (fun c -> c.dropped_queue);
    dropped_link = sum (fun c -> c.dropped_link);
    dropped_ttl = sum (fun c -> c.dropped_ttl);
    dropped_down = sum (fun c -> c.dropped_down);
    dropped_chaos = sum (fun c -> c.dropped_chaos);
    corrupted = sum (fun c -> c.corrupted);
    reordered = sum (fun c -> c.reordered);
    forwarded = sum (fun c -> c.forwarded);
    control_msgs = sum (fun c -> c.control_msgs);
    control_bytes = sum (fun c -> c.control_bytes);
    fenced_writes = sum (fun c -> c.fenced_writes) }

let default_queue_depth = 64

(** Default hop budget of injected packets. *)
let default_ttl = 64

(* seconds between sweeps of a switch's timed-out rules *)
let expiry_period = 1.0

(* one slot per id up to the largest of [ids] *)
let id_array ids = Array.make (List.fold_left max (-1) ids + 1) None

let create ?(queue_depth = default_queue_depth) ?fault ?only topo =
  let t =
    { sim = Sim.create (); topo;
      switches = id_array (Topo.Topology.switch_ids topo);
      hosts = id_array (Topo.Topology.host_ids topo);
      queue_depth;
      stats = sum_counters [];
      tracer = None; fault;
      link_chaos =
        (match fault with Some f -> Fault.has_link_chaos f | None -> false);
      remote = None; ctl_outage = None; remote_reorders = 0;
      ingress_tbl = Hashtbl.create 8 }
  in
  let owned n = match only with Some f -> f n | None -> true in
  List.iter
    (fun n ->
      if owned n then
        match n with
        | Node.Switch id ->
          t.switches.(id) <-
            Some
              { sw_id = id; table = Flow.Table.create ();
                port_stats = Hashtbl.create 8;
                packet_ins = 0; has_timeouts = false; out_ports = [||];
                alive = true; ctl = Ctl_channel.create id }
        | Node.Host id ->
          t.hosts.(id) <-
            Some
              { host_id = id; mac = Packet.Mac.of_host_id id;
                ip = Packet.Ipv4.of_host_id id; received = 0; rx_bytes = 0;
                on_receive = None; uplink = None })
    (Topo.Topology.nodes topo);
  t

let set_remote t ri = t.remote <- Some ri

let sim t = t.sim
let topology t = t.topo
let stats t = t.stats
let now t = Sim.now t.sim
let fault t = t.fault
let remote_reorders t = t.remote_reorders

(* a node by id is a bounds check and a load, with no hashing: every
   host send looks its host up *)
let find_switch t id =
  if id >= 0 && id < Array.length t.switches then
    Array.unsafe_get t.switches id
  else None

let find_host t id =
  if id >= 0 && id < Array.length t.hosts then Array.unsafe_get t.hosts id
  else None

let switch t id =
  match find_switch t id with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Network.switch: no switch %d" id)

let host t id =
  match find_host t id with
  | Some h -> h
  | None -> invalid_arg (Printf.sprintf "Network.host: no host %d" id)

(* ascending id, as the arrays are *)
let switch_list t = List.filter_map Fun.id (Array.to_list t.switches)
let host_list t = List.filter_map Fun.id (Array.to_list t.hosts)

(* formatting is skipped entirely when no tracer is attached — trace
   calls sit on the per-hop hot path *)
let trace t fmt =
  match t.tracer with
  | None -> Printf.ikfprintf ignore () fmt
  | Some f -> Printf.ksprintf (fun s -> f (now t) s) fmt

let set_tracer t f = t.tracer <- Some f

let port_stat sw port =
  match Hashtbl.find_opt sw.port_stats port with
  | Some ps -> ps
  | None ->
    let ps =
      { Openflow.Message.pstat_port = port; rx_packets = 0; tx_packets = 0;
        rx_bytes = 0; tx_bytes = 0; drops = 0 }
    in
    Hashtbl.replace sw.port_stats port ps;
    ps

(* ------------------------------------------------------------------ *)
(* Egress resolution *)

let link_state (l : Topo.Topology.link) ~tx ~rx dst =
  { ls_link = l; ls_tx = tx; ls_rx = rx; ls_dst = dst;
    ls_dst_port = l.dst_port; ls_busy = { until = 0.0 }; queued = 0;
    ring_head = 0; ring_pkts = [||]; ring_ttls = [||]; ls_land = None;
    tx_drops = 0; ls_chaos = None }

(* the far end of link [l] on this network, with its rx counters *)
let local_dest t (l : Topo.Topology.link) =
  match l.dst with
  | Node.Switch id ->
    let sw = switch t id in
    (To_switch sw, Some (port_stat sw l.dst_port))
  | Node.Host id -> (To_host (host t id), None)

(* Build the cached egress state for [(node, port)].  Returns [None]
   when the topology has no link there (not cached, so links added to
   the topology later are still found). *)
let resolve_egress t node port =
  match Topo.Topology.link_via t.topo node port with
  | None -> None
  | Some l ->
    let ls_dst, ls_rx =
      match t.remote with
      | Some ri when ri.ri_shard_of l.dst <> ri.ri_self ->
        (* the far end is another shard's: rx counters and delivery
           happen over there (see [receive_remote]) *)
        ( To_remote
            { rem_src = node; rem_src_port = port;
              rem_shard = ri.ri_shard_of l.dst },
          None )
      | Some _ | None -> local_dest t l
    in
    let ls_tx =
      match node with
      | Node.Switch id -> Some (port_stat (switch t id) port)
      | Node.Host _ -> None
    in
    Some (link_state l ~tx:ls_tx ~rx:ls_rx ls_dst)

let switch_egress_slow t sw port =
  match resolve_egress t (Node.Switch sw.sw_id) port with
  | None -> None
  | Some ls as r ->
    let n = Array.length sw.out_ports in
    if port >= n then begin
      let arr = Array.make (max (port + 1) (max 8 (2 * n))) None in
      Array.blit sw.out_ports 0 arr 0 n;
      sw.out_ports <- arr
    end;
    sw.out_ports.(port) <- Some ls;
    r

let switch_egress t sw port =
  if port >= 0 && port < Array.length sw.out_ports then
    match Array.unsafe_get sw.out_ports port with
    | Some _ as r -> r
    | None -> switch_egress_slow t sw port
  else if port < 0 then None
  else switch_egress_slow t sw port

let host_egress t h port =
  if port = 1 then
    match h.uplink with
    | Some _ as r -> r
    | None ->
      let r = resolve_egress t (Node.Host h.host_id) 1 in
      h.uplink <- r;
      r
  else resolve_egress t (Node.Host h.host_id) port

(* ------------------------------------------------------------------ *)
(* Control-channel transmission *)

(* one control transmission on [lane] of session [s] (see
   {!Ctl_channel.transmit}); a partitioned session loses it here, counted
   like a frame that reaches a crashed switch *)
let ctl_transmit t (s : Ctl_channel.session) lane emit =
  match
    Ctl_channel.transmit ~tracer:t.tracer t.fault lane ~cut:s.cut
      ~now:(now t) emit
  with
  | Cut ->
    t.stats.dropped_down <- t.stats.dropped_down + 1;
    trace t "s%d drop(ctl-cut)" s.sw_id
  | Sent | Dropped -> ()

(* ------------------------------------------------------------------ *)
(* Forwarding *)

(* A hop carries the packet's location beside it, not inside it: [pkt]
   is immutable from the host's send on (only a [Set_field] copies it),
   its hop budget travels as the argument [ttl], and the arrival port
   is the link's.  A flood or a multi-output group hands every branch
   the same [pkt].

   A packet on the wire is an entry of its link's in-flight ring, and
   its landing event is the link's one landing closure, pushed once per
   packet at the packet's arrival time.  A link's arrivals never go
   backwards in time (its [busy_until] only grows and its delay is
   fixed) and the wheel breaks ties by push order, so the k-th landing
   on a link pops the k-th packet enqueued on it: the events run at the
   same (time, seq) as one closure per packet would.  So a hop
   allocates only the boxed arrival time it hands to
   {!Sim.schedule_at} (and the clock's box when time advances). *)

(* Stands in the ring for a packet that will not land here: one lost to
   chaos, handed to another shard, or delivered late by its own event.
   Its landing only frees the queue slot.  Also the filler of an empty
   entry, so the ring keeps no landed packet alive. *)
let released = { hdr = Packet.Headers.default; size = 0; tag = 0; ttl = 0 }

(* double the ring, laying its entries out from index 0 *)
let ring_grow ls =
  let cap = Array.length ls.ring_pkts in
  let ncap = max 8 (2 * cap) in
  let pkts = Array.make ncap released and ttls = Array.make ncap 0 in
  for k = 0 to ls.queued - 1 do
    let j = (ls.ring_head + k) land (cap - 1) in
    pkts.(k) <- ls.ring_pkts.(j);
    ttls.(k) <- ls.ring_ttls.(j)
  done;
  ls.ring_pkts <- pkts;
  ls.ring_ttls <- ttls;
  ls.ring_head <- 0

let ring_push ls pkt ttl =
  if ls.queued = Array.length ls.ring_pkts then ring_grow ls;
  let i = (ls.ring_head + ls.queued) land (Array.length ls.ring_pkts - 1) in
  ls.ring_pkts.(i) <- pkt;
  ls.ring_ttls.(i) <- ttl;
  ls.queued <- ls.queued + 1

(* schedule [pkt] onto a resolved, up egress link (queue check done) *)
let rec enqueue t ls pkt ttl =
  let nowt = now t in
  let l = ls.ls_link in
  let ser = float_of_int (pkt.size * 8) /. l.capacity in
  let busy = ls.ls_busy.until in
  let start = if nowt > busy then nowt else busy in
  ls.ls_busy.until <- start +. ser;
  (match ls.ls_tx with
   | Some ps ->
     ps.tx_packets <- ps.tx_packets + 1;
     ps.tx_bytes <- ps.tx_bytes + pkt.size
   | None -> ());
  let arrival = start +. ser +. l.delay in
  (* link-level chaos verdict, drawn from this link's own seeded stream
     at egress (verdicts happen where the link is owned, so sharded runs
     replay them identically).  Serialization already happened: the
     queue slot and tx counters are spent whatever the verdict. *)
  let v =
    if not t.link_chaos then Fault.clean_verdict
    else begin
      let f = Option.get t.fault in
      let prng =
        match ls.ls_chaos with
        | Some p -> p
        | None ->
          let p = Fault.link_prng f ~node:l.src ~port:l.src_port in
          ls.ls_chaos <- Some p;
          p
      in
      let v = Fault.decide_link f prng ~delay:l.delay in
      if v.lv_drop then begin
        t.stats.dropped_chaos <- t.stats.dropped_chaos + 1;
        trace t "link-drop %s[%d]" (Node.to_string l.src) l.src_port
      end
      else if v.lv_corrupt then begin
        t.stats.corrupted <- t.stats.corrupted + 1;
        trace t "link-corrupt %s[%d]" (Node.to_string l.src) l.src_port
      end
      else if v.lv_extra > 0.0 then begin
        t.stats.reordered <- t.stats.reordered + 1;
        trace t "link-reorder %s[%d] +%.9f" (Node.to_string l.src)
          l.src_port v.lv_extra
      end;
      v
    end
  in
  (* a packet lost on the wire (or discarded by the receiver's CRC), one
     crossing to another shard and one delivered late all free their
     queue slot on time, at [arrival] *)
  let lost = v.lv_drop || v.lv_corrupt and late = v.lv_extra > 0.0 in
  let remote =
    match ls.ls_dst with To_remote _ -> true | To_switch _ | To_host _ -> false
  in
  ring_push ls (if lost || late || remote then released else pkt) ttl;
  Sim.schedule_at t.sim ~time:arrival (landing t ls);
  if not lost then
    match ls.ls_dst with
    | To_remote { rem_src; rem_src_port; rem_shard } ->
      (* cross-shard handoff, posted at {e enqueue} time so the envelope's
         timestamp is >= now + link delay >= now + lookahead; the
         destination shard checks its own clone's [up] flag (see
         [receive_remote]) *)
      if late then t.remote_reorders <- t.remote_reorders + 1;
      (match t.remote with
       | Some ri ->
         ri.ri_post ~rem_shard ~time:(arrival +. v.lv_extra) ~src:rem_src
           ~src_port:rem_src_port ~ttl pkt
       | None -> assert false (* To_remote only resolved with an iface *))
    | To_switch _ | To_host _ ->
      if late then
        (* reordered: delivery lands late, by its own event *)
        Sim.schedule_at t.sim ~time:(arrival +. v.lv_extra) (fun () ->
          arrive t ls pkt ttl)

and landing t ls =
  match ls.ls_land with
  | Some f -> f
  | None ->
    let f () = land_head t ls in
    ls.ls_land <- Some f;
    f

(* the ring's oldest packet reaches the far end of its link *)
and land_head t ls =
  let i = ls.ring_head in
  let pkt = ls.ring_pkts.(i) and ttl = ls.ring_ttls.(i) in
  ls.ring_pkts.(i) <- released;
  ls.ring_head <- (i + 1) land (Array.length ls.ring_pkts - 1);
  ls.queued <- ls.queued - 1;
  if pkt != released then arrive t ls pkt ttl

and transmit_switch t sw port pkt ttl =
  match switch_egress t sw port with
  | None ->
    t.stats.dropped_link <- t.stats.dropped_link + 1;
    trace t "drop(no-link) s%d port %d" sw.sw_id port
  | Some ls when not ls.ls_link.up ->
    t.stats.dropped_link <- t.stats.dropped_link + 1;
    (match ls.ls_tx with Some ps -> ps.drops <- ps.drops + 1 | None -> ());
    trace t "drop(link-down) s%d port %d" sw.sw_id port
  | Some ls ->
    if ls.queued >= t.queue_depth then begin
      t.stats.dropped_queue <- t.stats.dropped_queue + 1;
      ls.tx_drops <- ls.tx_drops + 1;
      trace t "drop(queue) s%d port %d" sw.sw_id port
    end
    else enqueue t ls pkt ttl

and transmit_host t h port pkt =
  match host_egress t h port with
  | None ->
    t.stats.dropped_link <- t.stats.dropped_link + 1;
    trace t "drop(no-link) h%d port %d" h.host_id port
  | Some ls when not ls.ls_link.up ->
    t.stats.dropped_link <- t.stats.dropped_link + 1;
    trace t "drop(link-down) h%d port %d" h.host_id port
  | Some ls ->
    if ls.queued >= t.queue_depth then begin
      t.stats.dropped_queue <- t.stats.dropped_queue + 1;
      ls.tx_drops <- ls.tx_drops + 1;
      trace t "drop(queue) h%d port %d" h.host_id port
    end
    else enqueue t ls pkt pkt.ttl

(* the link may have failed while the packet was in flight *)
and arrive t ls pkt ttl =
  if ls.ls_link.up then deliver_ls t ls pkt ttl
  else begin
    t.stats.dropped_link <- t.stats.dropped_link + 1;
    trace t "drop(in-flight, link-down) -> %s" (Node.to_string ls.ls_link.dst)
  end

and deliver_ls t ls pkt ttl =
  match ls.ls_dst with
  | To_host h ->
    h.received <- h.received + 1;
    h.rx_bytes <- h.rx_bytes + pkt.size;
    t.stats.delivered <- t.stats.delivered + 1;
    (* [trace] skips formatting without a tracer, but its format
       closures would still be built on every delivery *)
    if Option.is_some t.tracer then trace t "h%d rx tag=%d" h.host_id pkt.tag;
    (match h.on_receive with Some f -> f pkt | None -> ())
  | To_switch sw ->
    switch_process t sw ~in_port:ls.ls_dst_port ~rx:ls.ls_rx pkt ttl
  | To_remote _ -> assert false (* remote hops never reach deliver_ls *)

and switch_process t sw ~in_port ~rx pkt ttl =
  if not sw.alive then begin
    t.stats.dropped_down <- t.stats.dropped_down + 1;
    trace t "s%d drop(switch-down)" sw.sw_id
  end
  else if ttl <= 0 then begin
    t.stats.dropped_ttl <- t.stats.dropped_ttl + 1;
    trace t "s%d drop(ttl)" sw.sw_id
  end
  else switch_process_live t sw ~in_port ~rx pkt (ttl - 1)

and switch_process_live t sw ~in_port ~rx pkt ttl =
  let ps = match rx with Some ps -> ps | None -> port_stat sw in_port in
  ps.rx_packets <- ps.rx_packets + 1;
  ps.rx_bytes <- ps.rx_bytes + pkt.size;
  let group =
    Flow.Table.apply_at sw.table ~now:(now t) ~size:pkt.size
      ~switch:sw.sw_id ~in_port pkt.hdr
  in
  if group == Flow.Table.miss then
    packet_in t sw ~in_port ~reason:Openflow.Message.No_match pkt
  else
    match group with
    | [] ->
      t.stats.dropped_policy <- t.stats.dropped_policy + 1;
      trace t "s%d drop(policy)" sw.sw_id
    | [ [ Flow.Action.Output port ] ] ->
      (* the common unicast rule: no interpreter closure *)
      t.stats.forwarded <- t.stats.forwarded + 1;
      output t sw ~in_port ~ttl pkt port
    | group ->
      t.stats.forwarded <- t.stats.forwarded + 1;
      execute_group t sw ~in_port ~ttl pkt group

(* interpret [group] on [pkt]: a branch whose headers no [Set_field]
   changed goes out as [pkt] itself, and every branch spends [ttl] on
   its own *)
and execute_group t sw ~in_port ~ttl pkt group =
  Flow.Action.iter_group
    (fun hdr port ->
      output t sw ~in_port ~ttl
        (if hdr == pkt.hdr then pkt else { pkt with hdr })
        port)
    pkt.hdr group

and output t sw ~in_port ~ttl pkt (port : Flow.Action.port) =
  match port with
  | Physical p -> transmit_switch t sw p pkt ttl
  | In_port_out -> transmit_switch t sw in_port pkt ttl
  | Controller ->
    packet_in t sw ~in_port ~reason:Openflow.Message.Explicit_send pkt
  | Flood ->
    List.iter (fun p -> if p <> in_port then transmit_switch t sw p pkt ttl)
      (Topo.Topology.ports t.topo (Node.Switch sw.sw_id))

(* ------------------------------------------------------------------ *)
(* Control channel *)

(* switch → controller: a session no controller adopted sends nothing,
   and the owner is read at delivery, so a frame in flight re-homes with
   its session *)
and control_send t ?(xid = 0) sw msg =
  let s = sw.ctl in
  if Option.is_some s.owner then begin
    let data = Openflow.Wire.encode ~xid msg in
    t.stats.control_msgs <- t.stats.control_msgs + 1;
    t.stats.control_bytes <- t.stats.control_bytes + Bytes.length data;
    ctl_transmit t s s.up (fun time ->
      Sim.schedule_at t.sim ~time (fun () ->
        Option.iter (fun owner -> owner ~switch_id:s.sw_id data) s.owner))
  end

and packet_in t sw ~in_port ~reason pkt =
  if Option.is_none sw.ctl.owner then begin
    t.stats.dropped_miss <- t.stats.dropped_miss + 1;
    trace t "s%d drop(miss)" sw.sw_id
  end
  else begin
    sw.packet_ins <- sw.packet_ins + 1;
    trace t "s%d packet-in port=%d" sw.sw_id in_port;
    (* the controller sees the packet where it is *)
    let headers = { pkt.hdr with switch = sw.sw_id; in_port } in
    control_send t sw
      (Openflow.Message.Packet_in
         { in_port; reason;
           packet = { headers; size = pkt.size; tag = pkt.tag } })
  end

(* Resolved ingress state for a link arriving from another shard: same
   shape as an egress [link_state], but tx counters live on the remote
   side ([ls_tx = None]) and only the local rx/destination half is
   populated.  Cached per remote (node, port). *)
let remote_ingress t src src_port =
  match Hashtbl.find_opt t.ingress_tbl (src, src_port) with
  | Some _ as r -> r
  | None ->
    (match Topo.Topology.link_via t.topo src src_port with
     | None -> None
     | Some l ->
       let ls_dst, ls_rx = local_dest t l in
       let ls = link_state l ~tx:None ~rx:ls_rx ls_dst in
       Hashtbl.replace t.ingress_tbl (src, src_port) ls;
       Some ls)

let receive_remote t ~src ~src_port ~ttl pkt =
  match remote_ingress t src src_port with
  | None ->
    t.stats.dropped_link <- t.stats.dropped_link + 1;
    trace t "drop(no-link) %s port %d" (Node.to_string src) src_port
  | Some ls -> arrive t ls pkt ttl

let ctl_channel t switch_id = (switch t switch_id).ctl

let adopt = Ctl_channel.adopt

let set_ctl_outage_handler t h = t.ctl_outage <- Some h

(* Periodic sweep evicting timed-out rules; started lazily when the
   first rule with a timeout is installed. *)
let rec schedule_expiry t sw =
  Sim.schedule t.sim ~delay:expiry_period (fun () ->
    ignore (Flow.Table.expire sw.table ~now:(now t));
    if sw.has_timeouts then schedule_expiry t sw)

let apply_flow_mod t sw (fm : Openflow.Message.flow_mod) =
  Openflow.Message.apply_to_table ~now:(now t) sw.table fm;
  match fm.command with
  | Add_flow when fm.idle_timeout <> None && not sw.has_timeouts ->
    sw.has_timeouts <- true;
    schedule_expiry t sw
  | Add_flow | Delete_flow | Delete_strict_flow -> ()

let handle_at_switch t sw ~xid (msg : Openflow.Message.t) =
  match msg with
  | Hello ->
    (* No echo: the handshake is confirmed by [Features_reply], and the
       only switch-originated Hello is the spontaneous restart
       announcement ([restart_switch]).  Echoing here would let a
       duplicated echo masquerade as a restart at the controller — a
       positive feedback loop under chaos duplication. *)
    ()
  | Echo_request s -> control_send t ~xid sw (Openflow.Message.Echo_reply s)
  | Features_request ->
    control_send t sw
      (Openflow.Message.Features_reply
         { datapath_id = sw.sw_id;
           port_list = Topo.Topology.ports t.topo (Node.Switch sw.sw_id) })
  | Flow_mod fm -> apply_flow_mod t sw fm  (* admitted by the session *)
  | Packet_out po ->
    execute_group t sw ~in_port:po.out_in_port ~ttl:default_ttl
      { hdr = po.out_packet.headers; size = po.out_packet.size;
        tag = po.out_packet.tag; ttl = default_ttl }
      [ po.out_actions ]
  | Barrier_request ->
    (* [xid] is the number of the last stream batch applied (see
       {!Ctl_channel.admit}): the reply is a cumulative ack *)
    control_send t ~xid sw Openflow.Message.Barrier_reply
  | Stats_request (Port_stats_request which) ->
    let ports =
      match which with
      | Some p -> [ port_stat sw p ]
      | None ->
        Topo.Topology.ports t.topo (Node.Switch sw.sw_id)
        |> List.map (port_stat sw)
    in
    control_send t sw (Openflow.Message.Stats_reply (Port_stats_reply ports))
  | Stats_request Table_stats_request ->
    control_send t sw
      (Openflow.Message.Stats_reply
         (Table_stats_reply
            { active_rules = Flow.Table.size sw.table;
              table_hits = Flow.Table.hits sw.table;
              table_misses = Flow.Table.misses sw.table;
              cache_hits = Flow.Table.cache_hits sw.table;
              cache_misses = Flow.Table.cache_misses sw.table;
              cache_invalidations = Flow.Table.invalidations sw.table;
              classifier_probes = Flow.Table.classifier_probes sw.table;
              classifier_shapes = Flow.Table.shape_count sw.table }))
  | Fence _ -> ()  (* consumed by the session gate *)
  | Echo_reply _ | Features_reply _ | Packet_in _ | Port_status _
  | Stats_reply _ | Barrier_reply ->
    ()  (* controller-bound messages are meaningless at a switch *)

(* apply a delivered controller→switch transmission to the switch,
   through the session's fence and stream gate.  A stream batch with no
   stream open is answered with the switch's Hello, as after a restart,
   so the controller re-handshakes instead of resending into the void *)
let deliver_down t sw data =
  if sw.alive then begin
    match
      Ctl_channel.admit sw.ctl ~tracer:t.tracer ~now:(now t)
        (Openflow.Wire.decode_all data)
        (fun xid msg -> handle_at_switch t sw ~xid msg)
    with
    | Admitted -> ()
    | Fenced n -> t.stats.fenced_writes <- t.stats.fenced_writes + n
    | Unopened -> control_send t sw Openflow.Message.Hello
  end
  else begin
    let n = Openflow.Wire.frame_count data in
    t.stats.dropped_down <- t.stats.dropped_down + n;
    trace t "s%d drop(ctl, switch-down) %d frame(s)" sw.sw_id n
  end

let controller_send t ~switch_id data =
  let sw = switch t switch_id in
  t.stats.control_msgs <-
    t.stats.control_msgs + Openflow.Wire.frame_count data;
  t.stats.control_bytes <- t.stats.control_bytes + Bytes.length data;
  ctl_transmit t sw.ctl sw.ctl.down (fun time ->
    Sim.schedule_at t.sim ~time (fun () -> deliver_down t sw data))

(* ------------------------------------------------------------------ *)
(* Failures *)

(* flips the link at [(node, port)] and notifies the controller with
   port-status messages from both endpoints (switches only) *)
let set_link t node port ~up =
  match Topo.Topology.link_via t.topo node port with
  | None -> ()
  | Some l ->
    let state = if up then "up" else "down" in
    Topo.Topology.set_link_up t.topo (node, port) up;
    trace t "link %s[%d] %s" (Node.to_string node) port state;
    (* a far endpoint on another shard has no switch record here; its
       own clone flips at the same time (see {!Shard.inject}) *)
    let notify n p =
      match n with
      | Node.Switch id ->
        (match find_switch t id with
         | Some sw ->
           control_send t sw
             (Openflow.Message.Port_status
                { ps_port = p;
                  ps_reason =
                    (if up then Openflow.Message.Port_up
                     else Openflow.Message.Port_down) })
         | None -> ())
      | Node.Host _ -> ()
    in
    notify node port;
    notify l.dst l.dst_port

let fail_link t node port = set_link t node port ~up:false

let restore_link t node port = set_link t node port ~up:true

let crash_switch t id =
  let sw = switch t id in
  if sw.alive then begin
    sw.alive <- false;
    Flow.Table.clear sw.table;
    sw.has_timeouts <- false;  (* stops the expiry sweep from rescheduling *)
    Ctl_channel.reconnect sw.ctl;
    trace t "s%d crash" id
  end

let restart_switch t id =
  let sw = switch t id in
  if not sw.alive then begin
    sw.alive <- true;
    trace t "s%d restart" id;
    control_send t sw Openflow.Message.Hello
  end

(** [cut_control t id] partitions the control channel of a live switch:
    every control transmission in either direction is dropped (counted in
    [dropped_down]) until {!heal_control}.  The switch keeps forwarding
    with its current table — the scenario where re-handshake resync meets
    a {e warm} table instead of a rebooted empty one. *)
let cut_control t id =
  let sw = switch t id in
  if not sw.ctl.cut then begin
    sw.ctl.cut <- true;
    trace t "s%d ctl-cut" id
  end

(** [heal_control t id] ends a control partition.  The switch reconnects
    with a spontaneous [Hello] (as after a restart) so the controller
    runs a fresh handshake — but unlike a restart the table survived. *)
let heal_control t id =
  let sw = switch t id in
  if sw.ctl.cut then begin
    sw.ctl.cut <- false;
    trace t "s%d ctl-heal" id;
    control_send t sw Openflow.Message.Hello
  end

let inject t incidents =
  List.iter
    (fun (i : Fault.incident) ->
      match i with
      | Fault.Link_flap { node; port; at; duration } ->
        Sim.schedule_at t.sim ~time:at (fun () -> fail_link t node port);
        Sim.schedule_at t.sim ~time:(at +. duration) (fun () ->
          restore_link t node port)
      | Fault.Switch_outage { switch_id; at; duration } ->
        Sim.schedule_at t.sim ~time:at (fun () -> crash_switch t switch_id);
        Sim.schedule_at t.sim ~time:(at +. duration) (fun () ->
          restart_switch t switch_id)
      | Fault.Ctl_outage { switch_id; at; duration } ->
        Sim.schedule_at t.sim ~time:at (fun () -> cut_control t switch_id);
        Sim.schedule_at t.sim ~time:(at +. duration) (fun () ->
          heal_control t switch_id)
      | Fault.Controller_outage { controller_id; at; duration } ->
        let fire up label =
          trace t "c%d %s" controller_id label;
          match t.ctl_outage with
          | Some h -> h ~controller_id ~up
          | None -> ()
        in
        Sim.schedule_at t.sim ~time:at (fun () -> fire false "ctl-crash");
        Sim.schedule_at t.sim ~time:(at +. duration) (fun () ->
          fire true "ctl-restart"))
    incidents

(* ------------------------------------------------------------------ *)
(* Host sending *)

let send_from t ~host:id pkt = transmit_host t (host t id) 1 pkt

let make_pkt ?(size = 1000) ?(tag = 0) ?(tp_src = 10000) ?(tp_dst = 80)
    ?(ttl = default_ttl) ~src ~dst () =
  { hdr =
      Packet.Headers.tcp ~switch:0 ~in_port:0 ~src_host:src ~dst_host:dst
        ~tp_src ~tp_dst;
    size; tag; ttl }

let run ?until ?strict ?max_events t () =
  Sim.run ?until ?strict ?max_events t.sim

let pp_stats fmt (c : counters) =
  Format.fprintf fmt
    "delivered=%d forwarded=%d dropped(policy=%d miss=%d queue=%d link=%d ttl=%d down=%d chaos=%d corrupt=%d) reordered=%d control(msgs=%d bytes=%d)"
    c.delivered c.forwarded c.dropped_policy c.dropped_miss c.dropped_queue
    c.dropped_link c.dropped_ttl c.dropped_down c.dropped_chaos c.corrupted
    c.reordered c.control_msgs c.control_bytes;
  if c.fenced_writes > 0 then
    Format.fprintf fmt " fenced=%d" c.fenced_writes
