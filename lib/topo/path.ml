module Node = Topology.Node

type hop = { node : Node.t; out_port : int; next : Node.t; in_port : int }

type t = hop list

(* Expand the neighbors of [node]: traffic may leave a host only when the
   host is the path source. *)
let successors topo ~src node =
  if Node.is_host node && not (Node.equal node src) then []
  else
    Topology.out_links topo node
    |> List.map (fun (l : Topology.link) ->
      { node; out_port = l.src_port; next = l.dst; in_port = l.dst_port })

(* ------------------------------------------------------------------ *)
(* BFS (unit weights) *)

let bfs topo ~src =
  let pred : (Node.t, hop) Hashtbl.t = Hashtbl.create 64 in
  let visited : (Node.t, unit) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace visited src ();
  let q = Queue.create () in
  Queue.push src q;
  while not (Queue.is_empty q) do
    let n = Queue.pop q in
    let hops = successors topo ~src n in
    List.iter
      (fun h ->
        if not (Hashtbl.mem visited h.next) then begin
          Hashtbl.replace visited h.next ();
          Hashtbl.replace pred h.next h;
          Queue.push h.next q
        end)
      hops
  done;
  pred

let walk_back pred ~src ~dst =
  if Node.equal src dst then Some []
  else begin
    let rec go node acc =
      match Hashtbl.find_opt pred node with
      | None -> None
      | Some h ->
        if Node.equal h.node src then Some (h :: acc) else go h.node (h :: acc)
    in
    go dst []
  end

let shortest_path topo ~src ~dst = walk_back (bfs topo ~src) ~src ~dst

(* ------------------------------------------------------------------ *)
(* Dijkstra (arbitrary non-negative weights) *)

let dijkstra topo ~weight ~src =
  let dist : (Node.t, float) Hashtbl.t = Hashtbl.create 64 in
  let pred : (Node.t, hop) Hashtbl.t = Hashtbl.create 64 in
  let heap = Util.Heap.create () in
  Hashtbl.replace dist src 0.0;
  Util.Heap.push heap 0.0 src;
  let settled : (Node.t, unit) Hashtbl.t = Hashtbl.create 64 in
  while not (Util.Heap.is_empty heap) do
    let d, n = Util.Heap.pop heap in
    if not (Hashtbl.mem settled n) then begin
      Hashtbl.replace settled n ();
      let hops = successors topo ~src n in
      List.iter
        (fun h ->
          match Topology.link_via topo h.node h.out_port with
          | None -> ()
          | Some l ->
            let w = weight l in
            assert (w >= 0.0);
            let nd = d +. w in
            let better =
              match Hashtbl.find_opt dist h.next with
              | None -> true
              | Some old -> nd < old
            in
            if better then begin
              Hashtbl.replace dist h.next nd;
              Hashtbl.replace pred h.next h;
              Util.Heap.push heap nd h.next
            end)
        hops
    end
  done;
  (dist, pred)

let cheapest_path topo ~weight ~src ~dst =
  let dist, pred = dijkstra topo ~weight ~src in
  match Hashtbl.find_opt dist dst with
  | None -> None
  | Some d ->
    (match walk_back pred ~src ~dst with
     | Some p -> Some (p, d)
     | None -> if Node.equal src dst then Some ([], 0.0) else None)

(* ------------------------------------------------------------------ *)
(* Bellman-Ford — used as an independent oracle in property tests *)

let bellman_ford topo ~weight ~src =
  let dist : (Node.t, float) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace dist src 0.0;
  let all = Topology.nodes topo in
  let n = List.length all in
  let changed = ref true in
  let round = ref 0 in
  while !changed && !round < n do
    changed := false;
    incr round;
    List.iter
      (fun node ->
        match Hashtbl.find_opt dist node with
        | None -> ()
        | Some d ->
          successors topo ~src node
          |> List.iter (fun h ->
            match Topology.link_via topo h.node h.out_port with
            | None -> ()
            | Some l ->
              let nd = d +. weight l in
              let better =
                match Hashtbl.find_opt dist h.next with
                | None -> true
                | Some old -> nd < old
              in
              if better then begin
                Hashtbl.replace dist h.next nd;
                changed := true
              end))
      all
  done;
  dist

(* ------------------------------------------------------------------ *)
(* All shortest paths (ECMP sets) *)

let all_shortest_paths topo ~src ~dst =
  (* hop-count distances from every node to dst would need a reverse
     graph; instead compute distances from src and walk the BFS DAG. *)
  let dist : (Node.t, int) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace dist src 0;
  let q = Queue.create () in
  Queue.push src q;
  while not (Queue.is_empty q) do
    let n = Queue.pop q in
    let d = Hashtbl.find dist n in
    successors topo ~src n
    |> List.iter (fun h ->
      if not (Hashtbl.mem dist h.next) then begin
        Hashtbl.replace dist h.next (d + 1);
        Queue.push h.next q
      end)
  done;
  match Hashtbl.find_opt dist dst with
  | None -> []
  | Some _ ->
    (* enumerate forward along edges that advance distance by one *)
    let rec extend node =
      if Node.equal node dst then [ [] ]
      else begin
        let d = Hashtbl.find dist node in
        successors topo ~src node
        |> List.concat_map (fun h ->
          match Hashtbl.find_opt dist h.next with
          | Some d' when d' = d + 1 ->
            List.map (fun rest -> h :: rest) (extend h.next)
          | Some _ | None -> [])
      end
    in
    extend src

(* ------------------------------------------------------------------ *)
(* Yen's algorithm: k loop-free shortest paths *)

let path_cost topo ~weight (p : t) =
  List.fold_left
    (fun acc h ->
      match Topology.link_via topo h.node h.out_port with
      | Some l -> acc +. weight l
      | None -> acc)
    0.0 p

let k_shortest topo ~weight ~src ~dst k =
  if k <= 0 then []
  else begin
    match cheapest_path topo ~weight ~src ~dst with
    | None -> []
    | Some (first, first_cost) ->
      let accepted = ref [ (first, first_cost) ] in
      let candidates : (float * t) list ref = ref [] in
      let hop_eq a b =
        Node.equal a.node b.node && a.out_port = b.out_port
      in
      let same_prefix a b n =
        let rec go a b n =
          n = 0
          || match (a, b) with
             | ha :: ta, hb :: tb -> hop_eq ha hb && go ta tb (n - 1)
             | _ -> false
        in
        go a b n
      in
      (try
         for _ = 2 to k do
           let prev, _ = List.hd !accepted in
           (* deviate at each position of the most recent accepted path *)
           List.iteri
             (fun i _ ->
               let root = List.filteri (fun j _ -> j < i) prev in
               let spur =
                 match root with
                 | [] -> src
                 | _ -> (List.nth root (i - 1)).next
               in
               (* remove edges used by accepted paths sharing this root *)
               let removed = ref [] in
               List.iter
                 (fun (p, _) ->
                   if same_prefix p prev i && List.length p > i then begin
                     let h = List.nth p i in
                     match Topology.link_via topo h.node h.out_port with
                     | Some l when l.up ->
                       Topology.set_link_up topo (h.node, h.out_port) false;
                       removed := (h.node, h.out_port) :: !removed
                     | Some _ | None -> ()
                   end)
                 !accepted;
               (* also remove root nodes from the graph by downing their
                  links, except the spur node *)
               let root_nodes =
                 List.filteri
                   (fun j _ -> j < i)
                   (List.map (fun h -> h.node) prev)
               in
               let downed_nodes = ref [] in
               List.iter
                 (fun n ->
                   if not (Node.equal n spur) then begin
                     Topology.ports topo n
                     |> List.iter (fun p ->
                       match Topology.link_via topo n p with
                       | Some l when l.up ->
                         Topology.set_link_up topo (n, p) false;
                         downed_nodes := (n, p) :: !downed_nodes
                       | Some _ | None -> ())
                   end)
                 root_nodes;
               (match cheapest_path topo ~weight ~src:spur ~dst with
                | Some (spur_path, _) when spur_path <> [] || Node.equal spur dst ->
                  let total = root @ spur_path in
                  let cost = path_cost topo ~weight total in
                  let known =
                    List.exists (fun (p, _) -> p = total) !accepted
                    || List.exists (fun (_, p) -> p = total) !candidates
                  in
                  if not known then
                    candidates := (cost, total) :: !candidates
                | Some _ | None -> ());
               List.iter
                 (fun ep -> Topology.set_link_up topo ep true)
                 (!removed @ !downed_nodes))
             prev;
           match List.sort compare !candidates with
           | [] -> raise Exit
           | (cost, best) :: rest ->
             candidates := rest;
             accepted := (best, cost) :: !accepted
         done
       with Exit -> ());
      List.rev !accepted |> List.map fst
  end

(* ------------------------------------------------------------------ *)
(* Spanning tree (for flooding) *)

let spanning_tree topo =
  let result : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  (match Topology.switches topo with
   | [] -> ()
   | root :: _ ->
     let pred = bfs topo ~src:root in
     let tree_ports : (Node.t * int, unit) Hashtbl.t = Hashtbl.create 64 in
     Hashtbl.iter
       (fun _ h ->
         Hashtbl.replace tree_ports (h.node, h.out_port) ();
         Hashtbl.replace tree_ports (h.next, h.in_port) ())
       pred;
     List.iter
       (fun sw ->
         let ports =
           Topology.out_links topo sw
           |> List.filter_map (fun (l : Topology.link) ->
             let included =
               Node.is_host l.dst
               || Hashtbl.mem tree_ports (sw, l.src_port)
             in
             if included then Some l.src_port else None)
         in
         Hashtbl.replace result (Node.id sw) ports)
       (Topology.switches topo));
  result
