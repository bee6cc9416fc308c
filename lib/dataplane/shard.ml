module Node = Topo.Topology.Node

(* a cross-shard envelope payload: a data packet identified by the link
   (sending endpoint) it left through, with the hop budget it carries *)
type load = {
  ld_src : Node.t;
  ld_src_port : int;
  ld_ttl : int;
  ld_pkt : Network.pkt;
}

type shard = {
  sh_index : int;
  sh_net : Network.t;
  mutable sh_executed : int;
}

type t = {
  topo : Topo.Topology.t;  (* the original; shards run on clones *)
  nshards : int;
  shard_of : Node.t -> int;
  shards : shard array;
  sync : load Util.Shard_sync.t;
  lookahead : float;  (* min delay over cross-shard links (+inf if none) *)
  dist : float array array;
      (* shard-quotient distance matrix for the adaptive window bound
         (see Shard_sync.drive) *)
}

(* ------------------------------------------------------------------ *)
(* Partition functions *)

type partition = Topo.Topology.t -> shards:int -> Node.t -> int

(** Contiguous switch-id blocks; hosts follow their uplink switch.  The
    topology-agnostic default: id-adjacent switches are usually
    topologically adjacent for the generators in {!Topo.Gen}. *)
let block_partition : partition =
 fun topo ~shards ->
  let sw = Array.of_list (Topo.Topology.switch_ids topo) in
  Array.sort compare sw;
  let n = Array.length sw in
  let tbl = Hashtbl.create (2 * (n + 1)) in
  Array.iteri
    (fun i id -> Hashtbl.replace tbl (Node.Switch id) (i * shards / max n 1))
    sw;
  List.iter
    (fun h ->
      let s =
        match Topo.Topology.attachment topo h with
        | Some (sw_id, _) ->
          (match Hashtbl.find_opt tbl (Node.Switch sw_id) with
           | Some s -> s
           | None -> 0)
        | None -> 0
      in
      Hashtbl.replace tbl (Node.Host h) s)
    (Topo.Topology.host_ids topo);
  fun node -> match Hashtbl.find_opt tbl node with Some s -> s | None -> 0

let pod_partition ~k : partition =
 fun topo ~shards ->
  let switches = List.length (Topo.Topology.switch_ids topo) in
  if k < 2 || k mod 2 <> 0 || switches <> 5 * k * k / 4 then
    invalid_arg
      (Printf.sprintf
         "Shard.pod_partition: pod:%d needs a fat-tree with even k = %d \
          (5k^2/4 switches); the topology has %d switches"
         k k switches);
  let half = k / 2 in
  let n_core = half * half in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun id ->
      let s =
        if id <= n_core then (id - 1) * shards / n_core
        else (id - n_core - 1) / k * shards / k
      in
      Hashtbl.replace tbl (Node.Switch id) s)
    (Topo.Topology.switch_ids topo);
  List.iter
    (fun h ->
      let s =
        match Topo.Topology.attachment topo h with
        | Some (sw_id, _) ->
          (match Hashtbl.find_opt tbl (Node.Switch sw_id) with
           | Some s -> s
           | None -> 0)
        | None -> 0
      in
      Hashtbl.replace tbl (Node.Host h) s)
    (Topo.Topology.host_ids topo);
  fun node -> match Hashtbl.find_opt tbl node with Some s -> s | None -> 0

let partition_of_string s =
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ "block" ] -> Some block_partition
  | [ "pod"; k ] ->
    (match int_of_string_opt k with
     | Some k when k >= 2 && k mod 2 = 0 -> Some (pod_partition ~k)
     | Some _ | None -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Construction *)

let lookahead_of topo shard_of =
  List.fold_left
    (fun acc (l : Topo.Topology.link) ->
      if shard_of l.src <> shard_of l.dst then Float.min acc l.delay else acc)
    infinity (Topo.Topology.links topo)

(* Shard-quotient distance matrix: d.(j).(i) lower-bounds the boundary
   delay any causal chain accumulates getting from shard [j] to shard
   [i] (edge weight = min delay over the pair's boundary links); the
   diagonal holds the minimum return cycle.  Feeds the adaptive window
   bound in {!Util.Shard_sync.drive}. *)
let quotient_dist topo shard_of ~shards =
  let d =
    Array.init shards (fun j ->
      Array.init shards (fun i -> if i = j then 0.0 else infinity))
  in
  let edge a b w =
    if a <> b then begin
      if w < d.(a).(b) then d.(a).(b) <- w;
      if w < d.(b).(a) then d.(b).(a) <- w
    end
  in
  List.iter
    (fun (l : Topo.Topology.link) ->
      edge (shard_of l.src) (shard_of l.dst) l.delay)
    (Topo.Topology.links topo);
  (* Floyd–Warshall over the quotient graph (diagonal 0 while relaxing) *)
  for k = 0 to shards - 1 do
    for i = 0 to shards - 1 do
      for j = 0 to shards - 1 do
        let v = d.(i).(k) +. d.(k).(j) in
        if v < d.(i).(j) then d.(i).(j) <- v
      done
    done
  done;
  (* diagonal := min return cycle through any other shard (uses only
     off-diagonal entries, so order does not matter) *)
  for i = 0 to shards - 1 do
    let cyc = ref infinity in
    for j = 0 to shards - 1 do
      if j <> i then begin
        let v = d.(i).(j) +. d.(j).(i) in
        if v < !cyc then cyc := v
      end
    done;
    d.(i).(i) <- !cyc
  done;
  d

let create ?queue_depth ?fault_config
    ?(partition = block_partition) ~shards topo =
  if shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
  let shard_of =
    let f = partition topo ~shards in
    fun node ->
      let s = f node in
      if s < 0 || s >= shards then
        invalid_arg "Shard.create: partition out of range"
      else s
  in
  let lookahead = lookahead_of topo shard_of in
  if lookahead <= 0.0 then
    invalid_arg "Shard.create: cross-shard links must have positive delay";
  let sync = Util.Shard_sync.create ~shards () in
  let t =
    { topo; nshards = shards; shard_of;
      shards =
        Array.init shards (fun i ->
          let clone = Topo.Topology.copy topo in
          let fault = Option.map Fault.of_config fault_config in
          let net =
            Network.create ?queue_depth ?fault
              ~only:(fun n -> shard_of n = i)
              clone
          in
          { sh_index = i; sh_net = net; sh_executed = 0 });
      sync; lookahead; dist = quotient_dist topo shard_of ~shards }
  in
  Array.iter
    (fun sh ->
      Network.set_remote sh.sh_net
        { ri_self = sh.sh_index; ri_shard_of = shard_of;
          ri_post =
            (fun ~rem_shard ~time ~src ~src_port ~ttl pkt ->
              Util.Shard_sync.post t.sync ~src:sh.sh_index ~dst:rem_shard
                ~time
                { ld_src = src; ld_src_port = src_port; ld_ttl = ttl;
                  ld_pkt = pkt }) })
    t.shards;
  t

let shards t = t.nshards
let topology t = t.topo
let lookahead t = t.lookahead
let shard_of t node = t.shard_of node

let nets t = Array.map (fun sh -> sh.sh_net) t.shards

let net t i = t.shards.(i).sh_net
let net_of_switch t id = t.shards.(t.shard_of (Node.Switch id)).sh_net
let net_of_host t id = t.shards.(t.shard_of (Node.Host id)).sh_net

(* ------------------------------------------------------------------ *)
(* Incidents *)

let inject t incidents =
  Array.iter
    (fun sh ->
      let owns node = t.shard_of node = sh.sh_index in
      List.iter
        (fun (i : Fault.incident) ->
          match i with
          | Fault.Link_flap { node; port; at; duration } ->
            if owns node then Network.inject sh.sh_net [ i ]
            else begin
              let sim = Network.sim sh.sh_net in
              let clone = Network.topology sh.sh_net in
              Sim.schedule_at sim ~time:at (fun () ->
                Topo.Topology.set_link_up clone (node, port) false);
              Sim.schedule_at sim ~time:(at +. duration) (fun () ->
                Topo.Topology.set_link_up clone (node, port) true)
            end
          | Fault.Switch_outage { switch_id; _ }
          | Fault.Ctl_outage { switch_id; _ } ->
            if owns (Node.Switch switch_id) then Network.inject sh.sh_net [ i ]
          | Fault.Controller_outage _ ->
            if sh.sh_index = 0 then Network.inject sh.sh_net [ i ])
        incidents)
    t.shards

(* ------------------------------------------------------------------ *)
(* Running *)

let run ?until t =
  let before = Array.fold_left (fun a sh -> a + sh.sh_executed) 0 t.shards in
  let next_time i =
    match Sim.peek (Network.sim t.shards.(i).sh_net) with
    | Some (time, _) -> time
    | None -> infinity
  in
  let run_window i ~stop ~strict =
    let sh = t.shards.(i) in
    let sim = Network.sim sh.sh_net in
    List.iter
      (fun (e : load Util.Shard_sync.envelope) ->
        let { ld_src; ld_src_port; ld_ttl; ld_pkt } = e.env_load in
        Sim.schedule_at sim ~time:e.env_time (fun () ->
          Network.receive_remote sh.sh_net ~src:ld_src ~src_port:ld_src_port
            ~ttl:ld_ttl ld_pkt))
      (Util.Shard_sync.drain t.sync i);
    sh.sh_executed <-
      sh.sh_executed + Network.run ~until:stop ~strict sh.sh_net ()
  in
  Util.Shard_sync.drive t.sync ~lookahead:t.lookahead ?until ~dist:t.dist
    ~next_time ~run_window ();
  Array.fold_left (fun a sh -> a + sh.sh_executed) 0 t.shards - before

(* ------------------------------------------------------------------ *)
(* Merged observables *)

let executed_of t i = t.shards.(i).sh_executed
let sync_stats t = Util.Shard_sync.stats t.sync
let rounds t = (sync_stats t).rounds
let total a = Array.fold_left ( + ) 0 a
let handoffs t = total (sync_stats t).handoffs
let stalls t = total (sync_stats t).stalls
let steals (_ : t) = 0

let stats t =
  Network.sum_counters (List.map Network.stats (Array.to_list (nets t)))

(* ------------------------------------------------------------------ *)
(* Observable signature *)

(* The canonical rendering of everything a simulation is supposed to
   compute: merged counters, per-host delivery, per-switch tables with
   match counters, and per-port stats.  Ports are enumerated from the
   topology (not from lazily-materialized stat records) so zero-valued
   entries render identically however the run was sharded. *)
let net_signature topo nets =
  let buf = Buffer.create 4096 in
  let merged = Network.sum_counters (List.map Network.stats nets) in
  Buffer.add_string buf (Format.asprintf "%a@." Network.pp_stats merged);
  let hosts =
    List.concat_map Network.host_list nets
    |> List.sort (fun (a : Network.host) b -> compare a.host_id b.host_id)
  in
  List.iter
    (fun (h : Network.host) ->
      Buffer.add_string buf
        (Printf.sprintf "h%d received=%d rx_bytes=%d\n" h.host_id h.received
           h.rx_bytes))
    hosts;
  let switches =
    List.concat_map
      (fun net -> List.map (fun sw -> (net, sw)) (Network.switch_list net))
      nets
    |> List.sort (fun (_, (a : Network.switch)) (_, b) ->
      compare a.sw_id b.sw_id)
  in
  List.iter
    (fun ((_ : Network.t), (sw : Network.switch)) ->
      Buffer.add_string buf
        (Printf.sprintf "s%d rules=%d\n" sw.sw_id (Flow.Table.size sw.table));
      List.iter
        (fun (r : Flow.Table.rule) ->
          Buffer.add_string buf
            (Printf.sprintf "  %d %s => %s packets=%d bytes=%d\n" r.priority
               (Flow.Pattern.to_string r.pattern)
               (Flow.Action.group_to_string r.actions)
               r.packets r.bytes))
        (Flow.Table.rules sw.table);
      List.iter
        (fun port ->
          match Hashtbl.find_opt sw.port_stats port with
          | Some ps ->
            Buffer.add_string buf
              (Printf.sprintf
                 "  p%d rx=%d/%d tx=%d/%d drops=%d\n" port ps.rx_packets
                 ps.rx_bytes ps.tx_packets ps.tx_bytes ps.drops)
          | None ->
            Buffer.add_string buf
              (Printf.sprintf "  p%d rx=0/0 tx=0/0 drops=0\n" port))
        (Topo.Topology.ports topo (Node.Switch sw.sw_id)))
    switches;
  Buffer.contents buf

let signature t =
  net_signature t.topo (Array.to_list (nets t))
