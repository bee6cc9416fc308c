module Node = Topo.Topology.Node

type path_share = { path : Topo.Path.t; rate : float }

type entry = { demand : Demand.t; shares : path_share list }

type t = { topo : Topo.Topology.t; entries : entry list }

let allocated_rate e =
  List.fold_left (fun acc s -> acc +. s.rate) 0.0 e.shares

let satisfaction e =
  if e.demand.rate <= 0.0 then 1.0
  else min 1.0 (allocated_rate e /. e.demand.rate)

let carried t =
  List.fold_left
    (fun acc e -> acc +. min (allocated_rate e) e.demand.rate)
    0.0 t.entries

let link_loads t =
  let loads : (Node.t * int, float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun e ->
      List.iter
        (fun s ->
          List.iter
            (fun (h : Topo.Path.hop) ->
              let key = (h.node, h.out_port) in
              let cur = Option.value ~default:0.0 (Hashtbl.find_opt loads key) in
              Hashtbl.replace loads key (cur +. s.rate))
            s.path)
        e.shares)
    t.entries;
  loads

let utilization t =
  let loads = link_loads t in
  let stats = Util.Stats.Online.create () in
  Hashtbl.iter
    (fun (node, port) load ->
      match Topo.Topology.link_via t.topo node port with
      | Some l when l.capacity > 0.0 ->
        Util.Stats.Online.add stats (load /. l.capacity)
      | Some _ | None -> ())
    loads;
  if Util.Stats.Online.count stats = 0 then (0.0, 0.0)
  else (Util.Stats.Online.max_value stats, Util.Stats.Online.mean stats)

let fairness t =
  match t.entries with
  | [] -> 1.0
  | es -> Util.Stats.jain_fairness (List.map satisfaction es)

let starved t = List.filter (fun e -> satisfaction e < 0.999) t.entries

(* relative capacity slack that [feasible] forgives float rounding *)
let tolerance = 1e-6

let feasible t =
  let loads = link_loads t in
  Hashtbl.fold
    (fun (node, port) load ok ->
      ok
      &&
      match Topo.Topology.link_via t.topo node port with
      | Some l -> load <= l.capacity *. (1.0 +. tolerance)
      | None -> false)
    loads true

let summary t =
  let max_u, mean_u = utilization t in
  Printf.sprintf
    "carried=%.1f/%.1f Mb/s, max-util=%.2f, mean-util=%.2f, fairness=%.3f"
    (carried t /. 1e6)
    (Demand.total (List.map (fun e -> e.demand) t.entries) /. 1e6)
    max_u mean_u (fairness t)
