module Node = Topo.Topology.Node

type subflow = {
  demand : Te.Demand.t;
  src_host : int;
  dst_host : int;
  tp_src : int;
  rate : float;
  path : Topo.Path.t;
}

let host_of_switch topo sw =
  match Topo.Topology.hosts_of_switch topo sw with
  | (h, _) :: _ -> h
  | [] ->
    invalid_arg
      (Printf.sprintf "Wan: switch %d has no attached host to source traffic"
         sw)

(* largest-remainder apportionment of [total] slots over weights *)
let apportion ~total weights =
  let sum = List.fold_left ( +. ) 0.0 weights in
  if sum <= 0.0 then List.map (fun _ -> 0) weights
  else begin
    let exact = List.map (fun w -> float_of_int total *. w /. sum) weights in
    let floors = List.map int_of_float exact in
    let assigned = List.fold_left ( + ) 0 floors in
    let remainders =
      List.mapi (fun i e -> (e -. Float.of_int (List.nth floors i), i)) exact
      |> List.sort compare |> List.rev
    in
    let extra = total - assigned in
    let bonus = List.filteri (fun rank _ -> rank < extra) remainders in
    List.mapi
      (fun i fl -> fl + if List.exists (fun (_, j) -> j = i) bonus then 1 else 0)
      floors
  end

let subflows_of_alloc topo (alloc : Te.Alloc.t) ~subflows =
  List.concat
    (List.mapi
       (fun di (e : Te.Alloc.entry) ->
         let shares =
           List.filter (fun (s : Te.Alloc.path_share) -> s.rate > 1e-9 && s.path <> [])
             e.shares
         in
         match shares with
         | [] -> []
         | _ ->
           let counts =
             apportion ~total:subflows
               (List.map (fun (s : Te.Alloc.path_share) -> s.rate) shares)
           in
           let src_host = host_of_switch topo e.demand.src in
           let dst_host = host_of_switch topo e.demand.dst in
           let flows = ref [] in
           let flow_index = ref 0 in
           List.iteri
             (fun si (s : Te.Alloc.path_share) ->
               let n = List.nth counts si in
               for _ = 1 to n do
                 flows :=
                   { demand = e.demand; src_host; dst_host;
                     tp_src = 20000 + (di * 256) + !flow_index;
                     rate = s.rate /. float_of_int (max 1 n);
                     path = s.path }
                   :: !flows;
                 incr flow_index
               done)
             shares;
           List.rev !flows)
       alloc.entries)

(** Forwarding policy pinning every subflow to its allocated path
    (including delivery from/to the attached hosts). *)
let policy_of_subflows topo flows =
  let open Netkat in
  let rules = ref [] in
  List.iter
    (fun f ->
      let match_flow =
        Syntax.conj
          (Syntax.test Packet.Fields.Ip4_src (Packet.Ipv4.of_host_id f.src_host))
          (Syntax.conj
             (Syntax.test Packet.Fields.Ip4_dst (Packet.Ipv4.of_host_id f.dst_host))
             (Syntax.test Packet.Fields.Tp_src f.tp_src))
      in
      (* hops along the switch-level path *)
      List.iter
        (fun (h : Topo.Path.hop) ->
          match h.node with
          | Node.Host _ -> ()
          | Node.Switch sw ->
            rules :=
              Syntax.big_seq
                [ Syntax.at ~switch:sw; Syntax.filter match_flow;
                  Syntax.forward h.out_port ]
              :: !rules)
        f.path;
      (* final delivery: destination switch to its host *)
      let dst_sw =
        match List.rev f.path with
        | last :: _ -> Node.id last.next
        | [] -> f.demand.src
      in
      match Topo.Topology.hosts_of_switch topo dst_sw
            |> List.find_opt (fun (h, _) -> h = f.dst_host)
      with
      | Some (_, host_port) ->
        rules :=
          Syntax.big_seq
            [ Syntax.at ~switch:dst_sw; Syntax.filter match_flow;
              Syntax.forward host_port ]
          :: !rules
      | None -> ())
    flows;
  Netkat.Syntax.big_union (List.rev !rules)

type measurement = {
  m_demand : Te.Demand.t;
  allocated : float;
  measured : float;
}

(** [drive network flows ~pkt_size ~duration] — sends CBR traffic for
    every subflow at its allocated rate (fixed [tp_src], so the installed
    policy pins it to its path), runs the simulation, and reports
    per-demand allocated vs measured throughput over the window. *)
let drive network flows ~pkt_size ~duration =
  let key (d : Te.Demand.t) = (d.src, d.dst, d.priority) in
  let received : (int * int * int, int ref) Hashtbl.t = Hashtbl.create 32 in
  let allocated : (int * int * int, float) Hashtbl.t = Hashtbl.create 32 in
  let demands : (int * int * int, Te.Demand.t) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun f ->
      let k = key f.demand in
      Hashtbl.replace demands k f.demand;
      Hashtbl.replace allocated k
        (f.rate +. Option.value ~default:0.0 (Hashtbl.find_opt allocated k));
      let cell =
        match Hashtbl.find_opt received k with
        | Some c -> c
        | None ->
          let c = ref 0 in
          Hashtbl.replace received k c;
          c
      in
      let host = Dataplane.Network.host network f.dst_host in
      let previous = host.on_receive in
      let src_ip = Packet.Ipv4.of_host_id f.src_host in
      let tp_src = f.tp_src in
      host.on_receive <-
        Some
          (fun pkt ->
            (match previous with Some g -> g pkt | None -> ());
            if pkt.hdr.tp_src = tp_src && pkt.hdr.ip4_src = src_ip then
              cell := !cell + pkt.size);
      let pps = f.rate /. (8.0 *. float_of_int pkt_size) in
      if pps > 0.01 then
        ignore
          (Dataplane.Traffic.cbr network
             { src = f.src_host; dst = f.dst_host; rate_pps = pps; pkt_size;
               start = 0.0; stop = duration; tp_dst = 80;
               tp_src = Some f.tp_src }))
    flows;
  ignore (Dataplane.Network.run ~until:(duration +. 1.0) network ());
  Hashtbl.fold
    (fun k bytes acc ->
      { m_demand = Hashtbl.find demands k;
        allocated = Hashtbl.find allocated k;
        measured = float_of_int !bytes *. 8.0 /. duration }
      :: acc)
    received []
  |> List.sort (fun a b -> compare (key a.m_demand) (key b.m_demand))

let validate ?(subflows = 8) ?(pkt_size = 1000) ?(duration = 2.0) topo alloc =
  let flows = subflows_of_alloc topo alloc ~subflows in
  let pol = policy_of_subflows topo flows in
  let network = Dataplane.Network.create topo in
  Controller.Api.load_delta ~previous:None
    ~table_of:(fun id -> (Dataplane.Network.switch network id).table)
    (Netkat.Delta.compile_policy ~switches:(Topo.Topology.switch_ids topo)
       None pol);
  drive network flows ~pkt_size ~duration

let accuracy measurements =
  let alloc = List.fold_left (fun a m -> a +. m.allocated) 0.0 measurements in
  let meas = List.fold_left (fun a m -> a +. m.measured) 0.0 measurements in
  if alloc <= 0.0 then 1.0 else meas /. alloc
