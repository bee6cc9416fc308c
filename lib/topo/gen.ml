module Node = Topology.Node

let default_capacity = 1e9
let default_delay = 10e-6

let connect ?(capacity = default_capacity) ?(delay = default_delay) topo a b =
  let pa = Topology.fresh_port topo a in
  (* reserve pa before computing pb in case a == b is rejected below *)
  if Node.equal a b then invalid_arg "Gen.connect: self-loop";
  let pb = Topology.fresh_port topo b in
  Topology.add_link topo (a, pa) (b, pb) ~capacity ~delay

let attach_hosts ?(capacity = default_capacity) ?(delay = default_delay) topo
    ~per_switch sw_ids =
  let next = ref 1 in
  List.iter
    (fun sw ->
      for _ = 1 to per_switch do
        let h = Node.Host !next in
        incr next;
        Topology.add_node topo h;
        connect ~capacity ~delay topo (Node.Switch sw) h
      done)
    sw_ids

let linear ?(hosts_per_switch = 1) ~switches () =
  if switches < 1 then invalid_arg "Gen.linear";
  let topo = Topology.create () in
  for i = 1 to switches do
    Topology.add_switch topo i
  done;
  for i = 1 to switches - 1 do
    connect topo (Node.Switch i) (Node.Switch (i + 1))
  done;
  attach_hosts topo ~per_switch:hosts_per_switch
    (List.init switches (fun i -> i + 1));
  topo

let ring ?(hosts_per_switch = 1) ~switches () =
  if switches < 3 then invalid_arg "Gen.ring: need >= 3 switches";
  let topo = linear ~hosts_per_switch:0 ~switches () in
  connect topo (Node.Switch switches) (Node.Switch 1);
  attach_hosts topo ~per_switch:hosts_per_switch
    (List.init switches (fun i -> i + 1));
  topo

let star ?(hosts_per_leaf = 1) ~leaves () =
  if leaves < 1 then invalid_arg "Gen.star";
  let topo = Topology.create () in
  Topology.add_switch topo 1;
  for i = 2 to leaves + 1 do
    Topology.add_switch topo i;
    connect topo (Node.Switch 1) (Node.Switch i)
  done;
  attach_hosts topo ~per_switch:hosts_per_leaf
    (List.init leaves (fun i -> i + 2));
  topo

let grid ?(hosts_per_switch = 1) ?(wrap = false) ~rows ~cols () =
  if rows < 1 || cols < 1 then invalid_arg "Gen.grid";
  let topo = Topology.create () in
  let id r c = (r * cols) + c + 1 in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      Topology.add_switch topo (id r c)
    done
  done;
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then
        connect topo (Node.Switch (id r c)) (Node.Switch (id r (c + 1)));
      if r + 1 < rows then
        connect topo (Node.Switch (id r c)) (Node.Switch (id (r + 1) c))
    done
  done;
  if wrap && cols > 2 then
    for r = 0 to rows - 1 do
      connect topo (Node.Switch (id r (cols - 1))) (Node.Switch (id r 0))
    done;
  if wrap && rows > 2 then
    for c = 0 to cols - 1 do
      connect topo (Node.Switch (id (rows - 1) c)) (Node.Switch (id 0 c))
    done;
  attach_hosts topo ~per_switch:hosts_per_switch
    (List.init (rows * cols) (fun i -> i + 1));
  topo

let torus ?(hosts_per_switch = 1) ~rows ~cols () =
  grid ~hosts_per_switch ~wrap:true ~rows ~cols ()

type fat_tree_info = {
  k : int;
  core : int list;
  aggregation : int list;
  edge : int list;
  host_ids : int list;
}

let fat_tree ~k () =
  if k < 2 || k mod 2 <> 0 then invalid_arg "Gen.fat_tree: k must be even";
  let topo = Topology.create () in
  let half = k / 2 in
  let n_core = half * half in
  let core = List.init n_core (fun i -> i + 1) in
  let next = ref n_core in
  let fresh () = incr next; !next in
  List.iter (Topology.add_switch topo) core;
  let aggregation = ref [] and edge = ref [] in
  for pod = 0 to k - 1 do
    let aggs = List.init half (fun _ -> fresh ()) in
    let edges = List.init half (fun _ -> fresh ()) in
    List.iter (Topology.add_switch topo) aggs;
    List.iter (Topology.add_switch topo) edges;
    aggregation := !aggregation @ aggs;
    edge := !edge @ edges;
    (* full bipartite agg <-> edge inside the pod *)
    List.iter
      (fun a ->
        List.iter (fun e -> connect topo (Node.Switch a) (Node.Switch e)) edges)
      aggs;
    (* agg i of every pod connects to core switches [i*half, (i+1)*half) *)
    List.iteri
      (fun i a ->
        for j = 0 to half - 1 do
          let c = (i * half) + j + 1 in
          connect ~capacity:(default_capacity *. 10.0) topo (Node.Switch c)
            (Node.Switch a)
        done)
      aggs;
    ignore pod
  done;
  attach_hosts topo ~per_switch:half !edge;
  let host_ids = Topology.host_ids topo in
  ( topo,
    { k; core; aggregation = !aggregation; edge = !edge; host_ids } )

let leaf_spine ?(hosts_per_leaf = 4) ~leaves ~spines () =
  if leaves < 1 || spines < 1 then invalid_arg "Gen.leaf_spine";
  let topo = Topology.create () in
  for s = 1 to spines do
    Topology.add_switch topo s
  done;
  let leaf_ids = List.init leaves (fun i -> spines + i + 1) in
  List.iter
    (fun leaf ->
      Topology.add_switch topo leaf;
      for s = 1 to spines do
        connect ~capacity:(default_capacity *. 4.0) topo (Node.Switch s)
          (Node.Switch leaf)
      done)
    leaf_ids;
  attach_hosts topo ~per_switch:hosts_per_leaf leaf_ids;
  topo

let jellyfish ?(hosts_per_switch = 1) ~switches ~degree ~prng () =
  if switches < degree + 1 then invalid_arg "Gen.jellyfish: too few switches";
  let topo = Topology.create () in
  for i = 1 to switches do
    Topology.add_switch topo i
  done;
  let free = Array.make (switches + 1) degree in
  let linked a b =
    Topology.out_links topo (Node.Switch a)
    |> List.exists (fun (l : Topology.link) -> l.dst = Node.Switch b)
  in
  (* random matching over remaining stubs *)
  let attempts = ref 0 in
  let candidates () =
    List.filter (fun i -> free.(i) > 0) (List.init switches (fun i -> i + 1))
  in
  let rec wire () =
    incr attempts;
    if !attempts > 50 * switches * degree then ()
    else begin
      match candidates () with
      | [] | [ _ ] -> ()
      | cs ->
        let arr = Array.of_list cs in
        let a = Util.Prng.pick prng arr in
        let b = Util.Prng.pick prng arr in
        if a <> b && not (linked a b) then begin
          connect topo (Node.Switch a) (Node.Switch b);
          free.(a) <- free.(a) - 1;
          free.(b) <- free.(b) - 1
        end;
        wire ()
    end
  in
  wire ();
  (* patch connectivity like waxman *)
  let rec ensure_connected () =
    let pred = Path.bfs topo ~src:(Node.Switch 1) in
    let reached n = Node.equal n (Node.Switch 1) || Hashtbl.mem pred n in
    match List.find_opt (fun n -> not (reached n)) (Topology.switches topo) with
    | None -> ()
    | Some orphan ->
      connect topo (Node.Switch 1) orphan;
      ensure_connected ()
  in
  ensure_connected ();
  attach_hosts topo ~per_switch:hosts_per_switch
    (List.init switches (fun i -> i + 1));
  topo

let waxman ?(hosts_per_switch = 1) ~switches ~prng () =
  let alpha = 0.4 and beta = 0.4 in
  if switches < 1 then invalid_arg "Gen.waxman";
  let topo = Topology.create () in
  let xs = Array.init switches (fun _ -> Util.Prng.float prng 1.0) in
  let ys = Array.init switches (fun _ -> Util.Prng.float prng 1.0) in
  for i = 1 to switches do
    Topology.add_switch topo i
  done;
  let dist i j = Float.hypot (xs.(i) -. xs.(j)) (ys.(i) -. ys.(j)) in
  let l = sqrt 2.0 in
  for i = 0 to switches - 1 do
    for j = i + 1 to switches - 1 do
      let p = alpha *. exp (-.dist i j /. (beta *. l)) in
      if Util.Prng.float prng 1.0 < p then
        connect ~delay:(dist i j *. 1e-3) topo (Node.Switch (i + 1))
          (Node.Switch (j + 1))
    done
  done;
  (* force connectivity: BFS from switch 1, chain unreached components *)
  let rec ensure_connected () =
    let pred = Path.bfs topo ~src:(Node.Switch 1) in
    let reached n = Node.equal n (Node.Switch 1) || Hashtbl.mem pred n in
    match List.find_opt (fun n -> not (reached n)) (Topology.switches topo) with
    | None -> ()
    | Some orphan ->
      connect ~delay:1e-3 topo (Node.Switch 1) orphan;
      ensure_connected ()
  in
  ensure_connected ();
  attach_hosts topo ~per_switch:hosts_per_switch
    (List.init switches (fun i -> i + 1));
  topo

(* ------------------------------------------------------------------ *)
(* Reference WAN topologies *)

let wan_of_edges ~hosts_per_switch ~capacity edges ~n =
  let topo = Topology.create () in
  for i = 1 to n do
    Topology.add_switch topo i
  done;
  List.iter
    (fun (a, b, delay_ms) ->
      connect ~capacity ~delay:(delay_ms *. 1e-3) topo (Node.Switch a)
        (Node.Switch b))
    edges;
  attach_hosts topo ~per_switch:hosts_per_switch
    (List.init n (fun i -> i + 1));
  topo

let abilene ?(hosts_per_switch = 1) ?(capacity = 10e9) () =
  (* 1 Seattle, 2 Sunnyvale, 3 Los Angeles, 4 Denver, 5 Kansas City,
     6 Houston, 7 Chicago, 8 Indianapolis, 9 Atlanta, 10 Washington,
     11 New York *)
  wan_of_edges ~hosts_per_switch ~capacity ~n:11
    [ (1, 2, 7.0); (1, 4, 11.0); (2, 3, 3.0); (2, 4, 10.0); (3, 6, 14.0);
      (4, 5, 6.0); (5, 6, 7.0); (5, 8, 5.0); (6, 9, 10.0); (7, 8, 2.0);
      (7, 11, 8.0); (8, 9, 5.0); (9, 10, 6.0); (10, 11, 2.0) ]

let b4 ?(hosts_per_switch = 1) ?(capacity = 10e9) () =
  wan_of_edges ~hosts_per_switch ~capacity ~n:12
    [ (* North America: 1-6 *)
      (1, 2, 5.0); (1, 3, 12.0); (2, 3, 10.0); (2, 4, 12.0); (3, 4, 8.0);
      (4, 5, 10.0); (5, 6, 6.0); (3, 5, 14.0);
      (* trans-Atlantic *)
      (6, 7, 35.0); (5, 7, 40.0);
      (* Europe: 7-9 *)
      (7, 8, 5.0); (8, 9, 8.0); (7, 9, 10.0);
      (* Europe-Asia and trans-Pacific *)
      (9, 10, 60.0); (1, 12, 50.0);
      (* Asia: 10-12 *)
      (10, 11, 15.0); (11, 12, 12.0); (10, 12, 20.0) ]

let of_spec spec =
  let parse_int s =
    match int_of_string_opt s with
    | Some n -> n
    | None -> invalid_arg ("Gen.of_spec: bad integer " ^ s)
  in
  match String.split_on_char ':' spec with
  | [ "linear"; n ] -> linear ~switches:(parse_int n) ()
  | [ "ring"; n ] -> ring ~switches:(parse_int n) ()
  | [ "star"; n ] -> star ~leaves:(parse_int n) ()
  | [ "fattree"; k ] -> fst (fat_tree ~k:(parse_int k) ())
  | [ "grid"; rc ] ->
    (match String.split_on_char 'x' rc with
     | [ r; c ] -> grid ~rows:(parse_int r) ~cols:(parse_int c) ()
     | _ -> invalid_arg ("Gen.of_spec: " ^ spec))
  | [ "abilene" ] -> abilene ()
  | [ "b4" ] -> b4 ()
  | [ "leafspine"; l; s ] ->
    leaf_spine ~leaves:(parse_int l) ~spines:(parse_int s) ()
  | [ "jellyfish"; n; d; seed ] ->
    jellyfish ~switches:(parse_int n) ~degree:(parse_int d)
      ~prng:(Util.Prng.create (parse_int seed)) ()
  | [ "waxman"; n; seed ] ->
    waxman ~switches:(parse_int n) ~prng:(Util.Prng.create (parse_int seed)) ()
  | _ -> invalid_arg ("Gen.of_spec: unknown topology " ^ spec)
