module Node = Topo.Topology.Node

(* a group's quantum is its largest demand rate over this *)
let quantum_divisor = 50.0

let solve ?(k = 4) topo demands : Alloc.t =
  let weight (l : Topo.Topology.link) = l.delay in
  (* precompute k shortest paths per demand *)
  let flows =
    List.map
      (fun (d : Demand.t) ->
        let paths =
          Topo.Path.k_shortest topo ~weight ~src:(Node.Switch d.src)
            ~dst:(Node.Switch d.dst) k
          |> List.filter (fun p -> p <> [])
        in
        (d, paths))
      demands
  in
  let residual : (Node.t * int, float) Hashtbl.t = Hashtbl.create 64 in
  let get_residual key =
    match Hashtbl.find_opt residual key with
    | Some r -> r
    | None ->
      let r =
        match Topo.Topology.link_via topo (fst key) (snd key) with
        | Some l -> l.capacity
        | None -> 0.0
      in
      Hashtbl.replace residual key r;
      r
  in
  let path_keys p =
    List.map (fun (h : Topo.Path.hop) -> (h.node, h.out_port)) p
  in
  let bottleneck p =
    List.fold_left (fun acc key -> min acc (get_residual key)) infinity
      (path_keys p)
  in
  let place p amount =
    List.iter
      (fun key -> Hashtbl.replace residual key (get_residual key -. amount))
      (path_keys p)
  in
  (* per-flow allocated rate per path *)
  let shares : (Demand.t * (Topo.Path.t, float) Hashtbl.t) list =
    List.map (fun (d, _) -> (d, Hashtbl.create 4)) flows
  in
  let share_tbl d = List.assq d shares in
  let groups =
    List.sort_uniq compare (List.map (fun (d : Demand.t) -> d.priority) demands)
  in
  List.iter
    (fun prio ->
      let group =
        List.filter (fun ((d : Demand.t), _) -> d.priority = prio) flows
      in
      let remaining =
        List.map (fun (d, paths) -> (d, paths, ref d.Demand.rate)) group
      in
      let max_rate =
        List.fold_left
          (fun acc ((d : Demand.t), _, _) -> max acc d.rate)
          0.0 remaining
      in
      let quantum = max (max_rate /. quantum_divisor) 1.0 in
      let progress = ref true in
      while !progress do
        progress := false;
        List.iter
          (fun ((d : Demand.t), paths, rem) ->
            if !rem > 1e-9 then begin
              (* first path with residual capacity *)
              match
                List.find_opt (fun p -> bottleneck p > 1e-9) paths
              with
              | None -> ()
              | Some p ->
                let amount = min (min !rem quantum) (bottleneck p) in
                if amount > 1e-9 then begin
                  place p amount;
                  rem := !rem -. amount;
                  let tbl = share_tbl d in
                  Hashtbl.replace tbl p
                    (amount
                    +. Option.value ~default:0.0 (Hashtbl.find_opt tbl p));
                  progress := true
                end
            end)
          remaining
      done)
    groups;
  { Alloc.topo;
    entries =
      List.map
        (fun (d, tbl) ->
          { Alloc.demand = d;
            shares =
              Hashtbl.fold
                (fun path rate acc -> { Alloc.path; rate } :: acc)
                tbl [] })
        shares }
