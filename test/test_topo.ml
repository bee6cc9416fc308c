(* Tests for the topology graph, generators and path algorithms. *)

open Topo
module Node = Topology.Node

let sw i = Node.Switch i
let host i = Node.Host i

(* ------------------------------------------------------------------ *)
(* Graph basics *)

let test_add_and_query () =
  let t = Topology.create () in
  Topology.add_switch t 1;
  Topology.add_switch t 2;
  Topology.add_node t (host 1);
  Topology.add_link t (sw 1, 1) (sw 2, 1) ~capacity:1e9 ~delay:1e-6;
  Topology.add_link t (sw 1, 2) (host 1, 1) ~capacity:1e9 ~delay:1e-6;
  Alcotest.(check int) "switches" 2 (Topology.switch_count t);
  Alcotest.(check int) "hosts" 1 (Topology.host_count t);
  Alcotest.(check int) "links" 2 (Topology.link_count t);
  Alcotest.(check bool) "peer" true
    (Topology.peer t (sw 1) 1 = Some (sw 2, 1));
  Alcotest.(check bool) "reverse peer" true
    (Topology.peer t (sw 2) 1 = Some (sw 1, 1));
  Alcotest.(check (list int)) "ports of s1" [ 1; 2 ] (Topology.ports t (sw 1))

let test_port_in_use () =
  let t = Topology.create () in
  Topology.add_link t (sw 1, 1) (sw 2, 1) ~capacity:1.0 ~delay:0.0;
  Alcotest.(check bool) "port reuse rejected" true
    (match Topology.add_link t (sw 1, 1) (sw 3, 1) ~capacity:1.0 ~delay:0.0 with
     | exception Topology.Port_in_use (n, p) -> n = sw 1 && p = 1
     | () -> false)

(* a zero-capacity link has an infinite serialization time, and a
   non-finite delay an infinite arrival time: both are rejected before
   the graph changes *)
let test_bad_link_attributes () =
  let rejected ~capacity ~delay =
    let t = Topology.create () in
    match Topology.add_link t (sw 1, 1) (sw 2, 1) ~capacity ~delay with
    | exception Invalid_argument _ -> Topology.link_count t = 0
    | () -> false
  in
  List.iter
    (fun (name, capacity, delay) ->
      Alcotest.(check bool) name true (rejected ~capacity ~delay))
    [ ("zero capacity", 0.0, 1e-6); ("negative capacity", -1e9, 1e-6);
      ("NaN capacity", Float.nan, 1e-6); ("negative delay", 1e9, -1e-6);
      ("NaN delay", 1e9, Float.nan); ("infinite delay", 1e9, infinity) ];
  let t = Topology.create () in
  Topology.add_link t (sw 1, 1) (sw 2, 1) ~capacity:1e9 ~delay:0.0;
  Alcotest.(check int) "zero delay accepted" 1 (Topology.link_count t)

let test_link_failure () =
  let t = Gen.linear ~switches:2 ~hosts_per_switch:0 () in
  Alcotest.(check bool) "up" true (Topology.peer t (sw 1) 1 <> None);
  Topology.fail_link t (sw 1, 1);
  Alcotest.(check bool) "down from s1" true (Topology.peer t (sw 1) 1 = None);
  Alcotest.(check bool) "down from s2" true (Topology.peer t (sw 2) 1 = None);
  Topology.restore_link t (sw 2, 1);
  Alcotest.(check bool) "restored" true (Topology.peer t (sw 1) 1 <> None)

let test_fail_node () =
  let t = Gen.star ~leaves:3 ~hosts_per_leaf:0 () in
  Topology.fail_node t (sw 1);
  List.iter
    (fun leaf ->
      Alcotest.(check bool) "leaf cut" true (Topology.peer t (sw leaf) 1 = None))
    [ 2; 3; 4 ]

let test_attachment () =
  let t = Gen.linear ~switches:2 ~hosts_per_switch:1 () in
  Alcotest.(check bool) "h1 on s1" true
    (match Topology.attachment t 1 with Some (1, _) -> true | _ -> false);
  Alcotest.(check bool) "h2 on s2" true
    (match Topology.attachment t 2 with Some (2, _) -> true | _ -> false);
  Alcotest.(check (list int)) "hosts of s1" [ 1 ]
    (List.map fst (Topology.hosts_of_switch t 1))

(* [ports] is an index that [add_link] keeps and [copy] carries: on
   random graphs, with a rejected link and a link added to the copy
   only, it equals a scan of [link_via] over every port *)
let prop_ports_index =
  let max_port = 6 in
  let scan t node =
    List.filter (fun p -> Topology.link_via t node p <> None)
      (List.init max_port (fun i -> i + 1))
  in
  let agrees t =
    List.for_all (fun n -> Topology.ports t n = scan t n) (Topology.nodes t)
  in
  QCheck.Test.make ~name:"ports = a scan of link_via, after copy" ~count:100
    QCheck.(int_range 1 10000)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let t = Topology.create () in
      let endpoint () =
        (sw (1 + Util.Prng.int prng 5), 1 + Util.Prng.int prng (max_port - 1))
      in
      let rejected = ref 0 in
      for _ = 1 to 12 do
        match
          Topology.add_link t (endpoint ()) (endpoint ()) ~capacity:1.0
            ~delay:0.0
        with
        | () -> ()
        | exception Topology.Port_in_use _ -> incr rejected
      done;
      (* one more link onto a port already in use *)
      let used = List.hd (Topology.links t) in
      (match
         Topology.add_link t (used.src, used.src_port) (sw 9, 1)
           ~capacity:1.0 ~delay:0.0
       with
       | () -> ()
       | exception Topology.Port_in_use _ -> incr rejected);
      let c = Topology.copy t in
      let before = List.map (fun n -> (n, Topology.ports t n)) (Topology.nodes t) in
      Topology.add_link c (sw 1, max_port) (sw 9, max_port) ~capacity:1.0
        ~delay:0.0;
      !rejected > 0 && agrees t && agrees c
      && List.for_all (fun (n, ps) -> Topology.ports t n = ps) before
      && Topology.ports t (sw 9) = []
      && Topology.ports c (sw 9) = [ max_port ])

(* ------------------------------------------------------------------ *)
(* Generators *)

let test_gen_linear () =
  let t = Gen.linear ~switches:5 ~hosts_per_switch:2 () in
  Alcotest.(check int) "switches" 5 (Topology.switch_count t);
  Alcotest.(check int) "hosts" 10 (Topology.host_count t);
  Alcotest.(check int) "links" (4 + 10) (Topology.link_count t)

let test_gen_ring () =
  let t = Gen.ring ~switches:4 ~hosts_per_switch:1 () in
  Alcotest.(check int) "links" (4 + 4) (Topology.link_count t);
  (* every switch has degree 3: two ring + one host *)
  List.iter
    (fun s ->
      Alcotest.(check int)
        (Node.to_string s)
        3
        (List.length (Topology.ports t s)))
    (Topology.switches t)

let test_gen_fat_tree () =
  let t, info = Gen.fat_tree ~k:4 () in
  Alcotest.(check int) "core" 4 (List.length info.core);
  Alcotest.(check int) "aggregation" 8 (List.length info.aggregation);
  Alcotest.(check int) "edge" 8 (List.length info.edge);
  Alcotest.(check int) "switches" 20 (Topology.switch_count t);
  Alcotest.(check int) "hosts" 16 (Topology.host_count t);
  (* links: core-agg k^2/... each agg connects to k/2 cores: 8*2=16;
     agg-edge per pod (k/2)^2 * k pods = 16; host links 16 *)
  Alcotest.(check int) "links" 48 (Topology.link_count t)

let test_gen_fat_tree_rejects_odd () =
  Alcotest.(check bool) "odd k rejected" true
    (match Gen.fat_tree ~k:3 () with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_gen_grid_torus () =
  let g = Gen.grid ~rows:3 ~cols:4 ~hosts_per_switch:0 () in
  (* 3*3 horizontal + 2*4 vertical = 17 *)
  Alcotest.(check int) "grid links" 17 (Topology.link_count g);
  let t = Gen.torus ~rows:3 ~cols:4 ~hosts_per_switch:0 () in
  Alcotest.(check int) "torus links" 24 (Topology.link_count t)

let test_gen_waxman_connected () =
  List.iter
    (fun seed ->
      let prng = Util.Prng.create seed in
      let t = Gen.waxman ~switches:20 ~hosts_per_switch:0 ~prng () in
      let pred = Path.bfs t ~src:(sw 1) in
      List.iter
        (fun n ->
          if not (Node.equal n (sw 1)) then
            Alcotest.(check bool)
              (Printf.sprintf "seed %d reaches %s" seed (Node.to_string n))
              true (Hashtbl.mem pred n))
        (Topology.switches t))
    [ 1; 2; 3; 42 ]

let test_gen_wans () =
  let a = Gen.abilene () in
  Alcotest.(check int) "abilene switches" 11 (Topology.switch_count a);
  Alcotest.(check int) "abilene links" (14 + 11) (Topology.link_count a);
  let b = Gen.b4 () in
  Alcotest.(check int) "b4 switches" 12 (Topology.switch_count b)

let test_gen_of_spec () =
  Alcotest.(check int) "linear:4" 4
    (Topology.switch_count (Gen.of_spec "linear:4"));
  Alcotest.(check int) "fattree:4" 20
    (Topology.switch_count (Gen.of_spec "fattree:4"));
  Alcotest.(check int) "grid:2x3" 6
    (Topology.switch_count (Gen.of_spec "grid:2x3"));
  Alcotest.(check bool) "bad spec" true
    (match Gen.of_spec "nope" with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* ------------------------------------------------------------------ *)
(* Paths *)

let test_shortest_path_linear () =
  let t = Gen.linear ~switches:4 ~hosts_per_switch:1 () in
  match Path.shortest_path t ~src:(host 1) ~dst:(host 4) with
  | None -> Alcotest.fail "no path"
  | Some p ->
    (* h1 -> s1 -> s2 -> s3 -> s4 -> h4 *)
    Alcotest.(check int) "hops" 5 (List.length p);
    let nodes = host 1 :: List.map (fun (h : Path.hop) -> h.next) p in
    Alcotest.(check bool) "ends at h4" true
      (List.nth nodes 5 = host 4)

let test_no_transit_through_hosts () =
  (* s1 - h9 - nothing else: hosts never forward, so s1 !-> s2 via h9 *)
  let t = Topology.create () in
  Topology.add_link t (sw 1, 1) (host 9, 1) ~capacity:1.0 ~delay:0.0;
  (* h9 has only one port anyway; build the sneaky case with two hosts
     on a chain instead: s1 - h9; s2 - h9 is impossible (1 port). Use a
     host with two links to be explicit. *)
  Topology.add_link t (sw 2, 1) (host 9, 2) ~capacity:1.0 ~delay:0.0;
  Alcotest.(check bool) "host does not transit" true
    (Path.shortest_path t ~src:(sw 1) ~dst:(sw 2) = None);
  (* but paths may start at the host *)
  Alcotest.(check bool) "host can originate" true
    (Path.shortest_path t ~src:(host 9) ~dst:(sw 2) <> None)

let test_path_respects_failures () =
  let t = Gen.ring ~switches:4 ~hosts_per_switch:0 () in
  (* ring 1-2-3-4-1; fail 1-2: path 1->2 must go the long way *)
  let p_before = Option.get (Path.shortest_path t ~src:(sw 1) ~dst:(sw 2)) in
  Alcotest.(check int) "direct" 1 (List.length p_before);
  Topology.fail_link t (sw 1, 1);
  (* port 1 of s1 connects to s2 in Gen.linear construction *)
  let p_after = Option.get (Path.shortest_path t ~src:(sw 1) ~dst:(sw 2)) in
  Alcotest.(check int) "detour" 3 (List.length p_after)

let test_dijkstra_weights () =
  (* triangle with a heavy direct edge: cheapest path is the detour *)
  let t = Topology.create () in
  Topology.add_link t (sw 1, 1) (sw 2, 1) ~capacity:1.0 ~delay:10.0;
  Topology.add_link t (sw 1, 2) (sw 3, 1) ~capacity:1.0 ~delay:1.0;
  Topology.add_link t (sw 3, 2) (sw 2, 2) ~capacity:1.0 ~delay:1.0;
  match Path.cheapest_path t ~weight:(fun l -> l.delay) ~src:(sw 1) ~dst:(sw 2) with
  | None -> Alcotest.fail "no path"
  | Some (p, cost) ->
    Alcotest.(check int) "two hops" 2 (List.length p);
    Alcotest.(check (float 1e-9)) "cost" 2.0 cost

let test_dijkstra_unreachable () =
  let t = Topology.create () in
  Topology.add_switch t 1;
  Topology.add_switch t 2;
  Alcotest.(check bool) "unreachable" true
    (Path.cheapest_path t ~weight:(fun _ -> 1.0) ~src:(sw 1) ~dst:(sw 2) = None);
  Alcotest.(check bool) "self" true
    (Path.cheapest_path t ~weight:(fun _ -> 1.0) ~src:(sw 1) ~dst:(sw 1)
     = Some ([], 0.0))

let test_all_shortest_paths_ecmp () =
  (* 2x2 torus gives two equal paths between opposite corners of a row *)
  let t = Gen.grid ~rows:2 ~cols:2 ~hosts_per_switch:0 () in
  let paths = Path.all_shortest_paths t ~src:(sw 1) ~dst:(sw 4) in
  Alcotest.(check int) "two ECMP paths" 2 (List.length paths);
  List.iter
    (fun p -> Alcotest.(check int) "both 2 hops" 2 (List.length p))
    paths

let test_k_shortest () =
  let t = Gen.ring ~switches:5 ~hosts_per_switch:0 () in
  let paths =
    Path.k_shortest t ~weight:(fun _ -> 1.0) ~src:(sw 1) ~dst:(sw 3) 3
  in
  Alcotest.(check int) "two distinct paths in a ring" 2 (List.length paths);
  Alcotest.(check (list int)) "lengths ordered" [ 2; 3 ]
    (List.map List.length paths)

let test_k_shortest_diverse () =
  let t = Gen.grid ~rows:3 ~cols:3 ~hosts_per_switch:0 () in
  let paths =
    Path.k_shortest t ~weight:(fun _ -> 1.0) ~src:(sw 1) ~dst:(sw 9) 4
  in
  Alcotest.(check int) "four paths" 4 (List.length paths);
  (* all loop-free *)
  List.iter
    (fun p ->
      let nodes = sw 1 :: List.map (fun (h : Path.hop) -> h.next) p in
      Alcotest.(check int) "loop free" (List.length nodes)
        (List.length (List.sort_uniq compare nodes)))
    paths;
  (* costs nondecreasing *)
  let costs = List.map List.length paths in
  Alcotest.(check (list int)) "sorted" (List.sort compare costs) costs

let test_k_shortest_restores_topology () =
  let t = Gen.grid ~rows:3 ~cols:3 ~hosts_per_switch:0 () in
  let links_before = Topology.link_count t in
  let up_before =
    List.length (List.filter (fun (l : Topology.link) -> l.up) (Topology.links t))
  in
  ignore (Path.k_shortest t ~weight:(fun _ -> 1.0) ~src:(sw 1) ~dst:(sw 9) 5);
  let up_after =
    List.length (List.filter (fun (l : Topology.link) -> l.up) (Topology.links t))
  in
  Alcotest.(check int) "links intact" links_before (Topology.link_count t);
  Alcotest.(check int) "all links restored up" up_before up_after

let test_spanning_tree () =
  let t = Gen.ring ~switches:4 ~hosts_per_switch:1 () in
  let tree = Path.spanning_tree t in
  (* tree edges among switches = 3 (4 switches), each contributing a port
     at both ends; plus 4 host ports *)
  let total_ports =
    Hashtbl.fold (fun _ ports acc -> acc + List.length ports) tree 0
  in
  Alcotest.(check int) "port count" ((3 * 2) + 4) total_ports

let test_bellman_ford_agrees_dijkstra () =
  let prng = Util.Prng.create 99 in
  let t = Gen.waxman ~switches:15 ~hosts_per_switch:1 ~prng () in
  let weight (l : Topology.link) = l.delay in
  let dist_d, _ = Path.dijkstra t ~weight ~src:(host 1) in
  let dist_b = Path.bellman_ford t ~weight ~src:(host 1) in
  List.iter
    (fun n ->
      let d = Hashtbl.find_opt dist_d n and b = Hashtbl.find_opt dist_b n in
      match (d, b) with
      | None, None -> ()
      | Some d, Some b ->
        Alcotest.(check (float 1e-9)) (Node.to_string n) d b
      | _ -> Alcotest.fail ("reachability disagrees at " ^ Node.to_string n))
    (Topology.nodes t)

(* property: on random connected graphs, dijkstra = bellman-ford *)
let prop_dijkstra_bellman =
  QCheck.Test.make ~name:"dijkstra agrees with bellman-ford" ~count:25
    QCheck.(pair (int_range 1 10000) (int_range 5 25))
    (fun (seed, n) ->
      let prng = Util.Prng.create seed in
      let t = Gen.waxman ~switches:n ~hosts_per_switch:0 ~prng () in
      let weight (l : Topology.link) = l.delay in
      let dist_d, _ = Path.dijkstra t ~weight ~src:(sw 1) in
      let dist_b = Path.bellman_ford t ~weight ~src:(sw 1) in
      List.for_all
        (fun node ->
          match (Hashtbl.find_opt dist_d node, Hashtbl.find_opt dist_b node) with
          | Some d, Some b -> abs_float (d -. b) < 1e-9
          | None, None -> true
          | _ -> false)
        (Topology.nodes t))

(* property: BFS shortest path length <= any dijkstra hop path length *)
let prop_bfs_minimal =
  QCheck.Test.make ~name:"bfs path is minimal in hops" ~count:25
    QCheck.(int_range 1 10000)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let t = Gen.waxman ~switches:12 ~hosts_per_switch:0 ~prng () in
      let weight _ = 1.0 in
      List.for_all
        (fun dst ->
          match
            ( Path.shortest_path t ~src:(sw 1) ~dst,
              Path.cheapest_path t ~weight ~src:(sw 1) ~dst )
          with
          | Some p, Some (_, cost) ->
            float_of_int (List.length p) <= cost +. 1e-9
          | None, None -> true
          | _ -> false)
        (Topology.switches t))

let suites =
  [ ( "topo.graph",
      [ Alcotest.test_case "add and query" `Quick test_add_and_query;
        Alcotest.test_case "port in use" `Quick test_port_in_use;
        Alcotest.test_case "bad link attributes rejected" `Quick
          test_bad_link_attributes;
        Alcotest.test_case "link failure" `Quick test_link_failure;
        Alcotest.test_case "node failure" `Quick test_fail_node;
        Alcotest.test_case "host attachment" `Quick test_attachment;
        QCheck_alcotest.to_alcotest prop_ports_index ] );
    ( "topo.gen",
      [ Alcotest.test_case "linear" `Quick test_gen_linear;
        Alcotest.test_case "ring" `Quick test_gen_ring;
        Alcotest.test_case "fat tree" `Quick test_gen_fat_tree;
        Alcotest.test_case "fat tree odd k" `Quick test_gen_fat_tree_rejects_odd;
        Alcotest.test_case "grid and torus" `Quick test_gen_grid_torus;
        Alcotest.test_case "waxman connected" `Quick test_gen_waxman_connected;
        Alcotest.test_case "reference WANs" `Quick test_gen_wans;
        Alcotest.test_case "of_spec" `Quick test_gen_of_spec ] );
    ( "topo.path",
      [ Alcotest.test_case "shortest path linear" `Quick
          test_shortest_path_linear;
        Alcotest.test_case "no transit through hosts" `Quick
          test_no_transit_through_hosts;
        Alcotest.test_case "respects failures" `Quick
          test_path_respects_failures;
        Alcotest.test_case "dijkstra weights" `Quick test_dijkstra_weights;
        Alcotest.test_case "dijkstra unreachable/self" `Quick
          test_dijkstra_unreachable;
        Alcotest.test_case "ECMP enumeration" `Quick
          test_all_shortest_paths_ecmp;
        Alcotest.test_case "k-shortest ring" `Quick test_k_shortest;
        Alcotest.test_case "k-shortest diverse" `Quick test_k_shortest_diverse;
        Alcotest.test_case "k-shortest restores links" `Quick
          test_k_shortest_restores_topology;
        Alcotest.test_case "spanning tree" `Quick test_spanning_tree;
        Alcotest.test_case "bellman-ford agrees" `Quick
          test_bellman_ford_agrees_dijkstra;
        QCheck_alcotest.to_alcotest prop_dijkstra_bellman;
        QCheck_alcotest.to_alcotest prop_bfs_minimal ] ) ]
