module Node = Topo.Topology.Node

type snapshot = {
  topo : Topo.Topology.t;
  tables : int -> Flow.Table.rule list;
}

type located = { switch : int; in_port : int }

type transfer_result = {
  out_sets : (int * Hsa.cube) list;  (** (egress port, rewritten cube) *)
  missed : Hsa.cube list;            (** slices hitting no rule *)
  dropped : Hsa.cube list;           (** slices matching a drop rule *)
}

(* Apply one action sequence to a cube; the output port is the final
   In_port value (In_port_out uses the concrete ingress port). *)
let apply_seq ~in_port cube (s : Flow.Action.seq) =
  let cube, out =
    List.fold_left
      (fun (cube, out) atom ->
        match (atom : Flow.Action.atom) with
        | Set_field (f, v) -> (Hsa.rewrite cube f v, out)
        | Output (Physical p) -> (cube, Some p)
        | Output In_port_out -> (cube, Some in_port)
        | Output Flood | Output Controller ->
          (cube, out (* flood/punt are not forwarding state; ignored *)))
      (cube, None) s
  in
  match out with Some p -> Some (p, cube) | None -> None

(** Transfer function of one switch: split the incoming cube across the
    table's rules in priority order. *)
let transfer snapshot ~switch ~in_port cube =
  let in_cube =
    match Hsa.inter cube (Hsa.eq Packet.Fields.In_port in_port) with
    | Some c -> c
    | None -> cube  (* contradictory port constraint: caller error *)
  in
  let rules = snapshot.tables switch in
  let rec go remaining rules acc =
    match (remaining, rules) with
    | [], _ -> acc
    | _, [] -> { acc with missed = remaining @ acc.missed }
    | _, (r : Flow.Table.rule) :: rest ->
      let pat = Hsa.of_pattern r.pattern in
      let hits = List.filter_map (fun c -> Hsa.inter c pat) remaining in
      let rest_cubes =
        List.concat_map (fun c -> Hsa.subtract c pat) remaining
      in
      let acc =
        if hits = [] then acc
        else if r.actions = [] then { acc with dropped = hits @ acc.dropped }
        else begin
          let outs =
            List.concat_map
              (fun c ->
                List.filter_map (apply_seq ~in_port c) r.actions)
              hits
          in
          { acc with out_sets = outs @ acc.out_sets }
        end
      in
      go rest_cubes rest acc
  in
  go [ in_cube ] rules { out_sets = []; missed = []; dropped = [] }

(* ------------------------------------------------------------------ *)
(* Reachability walk *)

type delivery = {
  host : int;
  cube : Hsa.cube;
  hops : int;
  via : int list;
}

type walk_result = {
  deliveries : delivery list;
  loops : located list;
  black_holes : located list;
  explored : int;
}

(* a slice still travelling after this many hops is reported as a loop *)
let max_hops = 64

let walk snapshot ~src ~cube =
  let deliveries = ref [] in
  let loops = ref [] in
  let black_holes = ref [] in
  let explored = ref 0 in
  (* history: (switch, port, cube) triples along the current path *)
  let rec step ~(loc : located) ~history ~hops c =
    explored := !explored + 1;
    if hops > max_hops then loops := loc :: !loops
    else begin
      let looping =
        List.exists
          (fun (sw, pt, seen) ->
            sw = loc.switch && pt = loc.in_port && Hsa.subsumes ~general:seen c)
          history
      in
      if looping then loops := loc :: !loops
      else begin
        let r = transfer snapshot ~switch:loc.switch ~in_port:loc.in_port c in
        List.iter (fun _ -> black_holes := loc :: !black_holes) r.missed;
        List.iter
          (fun (out_port, c') ->
            match
              Topo.Topology.peer snapshot.topo (Node.Switch loc.switch) out_port
            with
            | None -> ()  (* egress into a down link: traffic dies *)
            | Some (Node.Host h, _) ->
              let via =
                List.rev (loc.switch :: List.map (fun (sw, _, _) -> sw) history)
              in
              deliveries := { host = h; cube = c'; hops; via } :: !deliveries
            | Some (Node.Switch sw, in_port) ->
              (* the cube's In_port constraint is stale after moving *)
              let c' = Hsa.set_constr c' Packet.Fields.In_port Hsa.Any in
              step
                ~loc:{ switch = sw; in_port }
                ~history:((loc.switch, loc.in_port, c) :: history)
                ~hops:(hops + 1) c')
          r.out_sets
      end
    end
  in
  (match Topo.Topology.attachment snapshot.topo src with
   | None -> ()
   | Some (sw, sw_port) ->
     step ~loc:{ switch = sw; in_port = sw_port } ~history:[] ~hops:1 cube);
  { deliveries = !deliveries; loops = !loops; black_holes = !black_holes;
    explored = !explored }

(* The cube of packets host [src] would address to host [dst] (matching
   the synthesized addressing scheme). *)
let flow_cube ~src ~dst =
  let open Packet in
  Hsa.top
  |> fun c -> Hsa.set_constr c Fields.Eth_src
                (Hsa.In (Hsa.IntSet.singleton (Mac.of_host_id src)))
  |> fun c -> Hsa.set_constr c Fields.Eth_dst
                (Hsa.In (Hsa.IntSet.singleton (Mac.of_host_id dst)))
  |> fun c -> Hsa.set_constr c Fields.Ip4_src
                (Hsa.In (Hsa.IntSet.singleton (Ipv4.of_host_id src)))
  |> fun c -> Hsa.set_constr c Fields.Ip4_dst
                (Hsa.In (Hsa.IntSet.singleton (Ipv4.of_host_id dst)))
  |> fun c -> Hsa.set_constr c Fields.Eth_type
                (Hsa.In (Hsa.IntSet.singleton 0x0800))

let reachable snapshot ~src ~dst =
  let r = walk snapshot ~src ~cube:(flow_cube ~src ~dst) in
  List.exists (fun d -> d.host = dst) r.deliveries

let reachability_matrix snapshot =
  let hosts = Topo.Topology.host_ids snapshot.topo in
  List.concat_map
    (fun src ->
      List.filter_map
        (fun dst ->
          if src = dst then None
          else Some ((src, dst), reachable snapshot ~src ~dst))
        hosts)
    hosts

let loop_free snapshot =
  let hosts = Topo.Topology.host_ids snapshot.topo in
  List.concat_map
    (fun src ->
      let r = walk snapshot ~src ~cube:Hsa.top in
      List.map (fun l -> (src, l)) r.loops)
    hosts

let isolated snapshot ~group_a ~group_b =
  let leaks one_way =
    List.concat_map
      (fun src ->
        List.filter_map
          (fun dst -> if reachable snapshot ~src ~dst then Some (src, dst) else None)
          (snd one_way))
      (fst one_way)
  in
  leaks (group_a, group_b) @ leaks (group_b, group_a)

let black_holes snapshot ~src =
  (walk snapshot ~src ~cube:Hsa.top).black_holes

let waypoint snapshot ~src ~dst ~waypoint =
  let r = walk snapshot ~src ~cube:(flow_cube ~src ~dst) in
  let delivered = List.filter (fun d -> d.host = dst) r.deliveries in
  match delivered with
  | [] -> `No_traffic
  | _ ->
    (match
       List.filter (fun d -> not (List.mem waypoint d.via)) delivered
     with
     | [] -> `Enforced
     | bad -> `Violated bad)
