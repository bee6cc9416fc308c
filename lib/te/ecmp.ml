module Node = Topo.Topology.Node

let solve topo demands : Alloc.t =
  (* 1. oblivious split *)
  let raw =
    List.map
      (fun (d : Demand.t) ->
        let paths =
          Topo.Path.all_shortest_paths topo ~src:(Node.Switch d.src)
            ~dst:(Node.Switch d.dst)
          |> List.filter (fun p -> p <> [])
        in
        let n = List.length paths in
        let shares =
          if n = 0 then []
          else
            List.map
              (fun path ->
                { Alloc.path; rate = d.rate /. float_of_int n })
              paths
        in
        { Alloc.demand = d; shares })
      demands
  in
  (* 2. loads of the oblivious assignment *)
  let oblivious = { Alloc.topo; entries = raw } in
  let loads = Alloc.link_loads oblivious in
  let factor_of_link (h : Topo.Path.hop) =
    match Topo.Topology.link_via topo h.node h.out_port with
    | None -> 0.0
    | Some l ->
      let load =
        Option.value ~default:0.0 (Hashtbl.find_opt loads (h.node, h.out_port))
      in
      if load <= l.capacity then 1.0 else l.capacity /. load
  in
  (* 3. scale each share by its path's bottleneck factor *)
  let entries =
    List.map
      (fun (e : Alloc.entry) ->
        let shares =
          List.map
            (fun (s : Alloc.path_share) ->
              let factor =
                List.fold_left
                  (fun acc h -> min acc (factor_of_link h))
                  1.0 s.path
              in
              { s with rate = s.rate *. factor })
            e.shares
        in
        { e with shares })
      raw
  in
  { Alloc.topo; entries }
