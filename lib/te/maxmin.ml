module Node = Topo.Topology.Node

type flow_state = {
  demand : Demand.t;
  path : Topo.Path.t;
  mutable rate : float;
  mutable frozen : bool;
}

let solve topo demands : Alloc.t =
  let weight (l : Topo.Topology.link) = l.delay in
  let flows =
    List.filter_map
      (fun (d : Demand.t) ->
        match
          Topo.Path.cheapest_path topo ~weight ~src:(Node.Switch d.src)
            ~dst:(Node.Switch d.dst)
        with
        | None | Some ([], _) -> None
        | Some (path, _) -> Some { demand = d; path; rate = 0.0; frozen = false })
      demands
  in
  (* residual capacity per directed link *)
  let residual : (Node.t * int, float) Hashtbl.t = Hashtbl.create 64 in
  let links_of f = List.map (fun (h : Topo.Path.hop) -> (h.node, h.out_port)) f.path in
  List.iter
    (fun f ->
      List.iter
        (fun key ->
          if not (Hashtbl.mem residual key) then begin
            match Topo.Topology.link_via topo (fst key) (snd key) with
            | Some l -> Hashtbl.replace residual key l.capacity
            | None -> ()
          end)
        (links_of f))
    flows;
  let active () = List.filter (fun f -> not f.frozen) flows in
  let rec fill iter =
    if iter > 10 * List.length flows + 10 then ()
    else begin
      match active () with
      | [] -> ()
      | act ->
        (* count active flows per link *)
        let counts : (Node.t * int, int) Hashtbl.t = Hashtbl.create 64 in
        List.iter
          (fun f ->
            List.iter
              (fun key ->
                Hashtbl.replace counts key
                  (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
              (links_of f))
          act;
        (* smallest uniform increment until a link or a demand binds *)
        let link_bound =
          Hashtbl.fold
            (fun key n acc ->
              let r = Option.value ~default:0.0 (Hashtbl.find_opt residual key) in
              min acc (r /. float_of_int n))
            counts infinity
        in
        let demand_bound =
          List.fold_left
            (fun acc f -> min acc (f.demand.rate -. f.rate))
            infinity act
        in
        let inc = min link_bound demand_bound in
        if inc <= 1e-9 then
          (* freeze flows on saturated links *)
          List.iter
            (fun f ->
              let saturated =
                List.exists
                  (fun key ->
                    Option.value ~default:0.0 (Hashtbl.find_opt residual key)
                    <= 1e-6)
                  (links_of f)
              in
              if saturated then f.frozen <- true)
            act
        else begin
          List.iter
            (fun f ->
              f.rate <- f.rate +. inc;
              List.iter
                (fun key ->
                  let r =
                    Option.value ~default:0.0 (Hashtbl.find_opt residual key)
                  in
                  Hashtbl.replace residual key (r -. inc))
                (links_of f);
              if f.demand.rate -. f.rate <= 1e-9 then f.frozen <- true)
            act
        end;
        (* also freeze flows whose links just saturated *)
        List.iter
          (fun f ->
            if
              (not f.frozen)
              && List.exists
                   (fun key ->
                     Option.value ~default:0.0 (Hashtbl.find_opt residual key)
                     <= 1e-6)
                   (links_of f)
            then f.frozen <- true)
          (active ());
        fill (iter + 1)
    end
  in
  fill 0;
  { Alloc.topo;
    entries =
      List.map
        (fun f ->
          { Alloc.demand = f.demand;
            shares = [ { Alloc.path = f.path; rate = f.rate } ] })
        flows }
