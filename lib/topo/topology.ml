module Node = struct
  type t =
    | Switch of int
    | Host of int

  let equal (a : t) (b : t) = a = b

  let is_switch = function Switch _ -> true | Host _ -> false
  let is_host = function Host _ -> true | Switch _ -> false

  let id = function Switch i -> i | Host i -> i

  let to_string = function
    | Switch i -> Printf.sprintf "s%d" i
    | Host i -> Printf.sprintf "h%d" i

  let pp fmt t = Format.pp_print_string fmt (to_string t)
end

type link = {
  src : Node.t;
  src_port : int;
  dst : Node.t;
  dst_port : int;
  capacity : float;
  delay : float;
  mutable up : bool;
}

type t = {
  node_tbl : (Node.t, unit) Hashtbl.t;
  (* (node, port) -> outgoing half-link *)
  port_tbl : (Node.t * int, link) Hashtbl.t;
  (* node -> ports in use, ascending *)
  port_idx : (Node.t, int list) Hashtbl.t;
  mutable node_order : Node.t list;  (* reverse insertion order *)
}

let create () =
  { node_tbl = Hashtbl.create 64; port_tbl = Hashtbl.create 64;
    port_idx = Hashtbl.create 64; node_order = [] }

let copy t =
  let c =
    { node_tbl = Hashtbl.copy t.node_tbl;
      port_tbl = Hashtbl.create (Hashtbl.length t.port_tbl);
      port_idx = Hashtbl.copy t.port_idx;
      node_order = t.node_order }
  in
  (* clone each bidirectional link once so the two half-link records of
     the copy are rebuilt together (they don't share state, but cloning
     per half keeps the table exactly parallel to the original) *)
  Hashtbl.iter
    (fun key l -> Hashtbl.replace c.port_tbl key { l with up = l.up })
    t.port_tbl;
  c

let mem t n = Hashtbl.mem t.node_tbl n

let add_node t n =
  if not (mem t n) then begin
    Hashtbl.replace t.node_tbl n ();
    t.node_order <- n :: t.node_order
  end

let add_switch t id = add_node t (Node.Switch id)

let nodes t = List.rev t.node_order

let switches t = List.filter Node.is_switch (nodes t)
let hosts t = List.filter Node.is_host (nodes t)

let switch_ids t = List.map Node.id (switches t)
let host_ids t = List.map Node.id (hosts t)

exception Port_in_use of Node.t * int

let ports t node = Option.value (Hashtbl.find_opt t.port_idx node) ~default:[]

let add_port t node port =
  let rec insert = function
    | p :: rest when p < port -> p :: insert rest
    | p :: _ as l when p = port -> l  (* a link from a port to itself *)
    | l -> port :: l
  in
  Hashtbl.replace t.port_idx node (insert (ports t node))

let add_link t (a, pa) (b, pb) ~capacity ~delay =
  if not (capacity > 0.0) then
    invalid_arg "Topology.add_link: capacity must be positive";
  if not (delay >= 0.0 && Float.is_finite delay) then
    invalid_arg "Topology.add_link: delay must be finite and non-negative";
  add_node t a;
  add_node t b;
  if Hashtbl.mem t.port_tbl (a, pa) then raise (Port_in_use (a, pa));
  if Hashtbl.mem t.port_tbl (b, pb) then raise (Port_in_use (b, pb));
  Hashtbl.replace t.port_tbl (a, pa)
    { src = a; src_port = pa; dst = b; dst_port = pb; capacity; delay;
      up = true };
  Hashtbl.replace t.port_tbl (b, pb)
    { src = b; src_port = pb; dst = a; dst_port = pa; capacity; delay;
      up = true };
  add_port t a pa;
  add_port t b pb

let link_via t node port = Hashtbl.find_opt t.port_tbl (node, port)

let peer t node port =
  match link_via t node port with
  | Some l when l.up -> Some (l.dst, l.dst_port)
  | Some _ | None -> None

let out_links t node =
  ports t node
  |> List.filter_map (fun p ->
    match link_via t node p with
    | Some l when l.up -> Some l
    | Some _ | None -> None)

let links t =
  Hashtbl.fold
    (fun (n, p) l acc ->
      if compare (n, p) (l.dst, l.dst_port) <= 0 then l :: acc else acc)
    t.port_tbl []
  |> List.sort (fun a b -> compare (a.src, a.src_port) (b.src, b.src_port))

let set_link_up t (a, pa) up =
  match link_via t a pa with
  | None -> ()
  | Some l ->
    l.up <- up;
    (match link_via t l.dst l.dst_port with
     | Some back -> back.up <- up
     | None -> ())

let fail_link t endpoint = set_link_up t endpoint false
let restore_link t endpoint = set_link_up t endpoint true

let fail_node t n = List.iter (fun p -> set_link_up t (n, p) false) (ports t n)

let fresh_port t node =
  let used = ports t node in
  let rec go p = if List.mem p used then go (p + 1) else p in
  go 1

let attachment t host_id =
  match peer t (Node.Host host_id) 1 with
  | Some (sw, sw_port) when Node.is_switch sw -> Some (Node.id sw, sw_port)
  | Some _ | None -> None

let hosts_of_switch t sw_id =
  out_links t (Node.Switch sw_id)
  |> List.filter_map (fun l ->
    match l.dst with
    | Node.Host h -> Some (h, l.src_port)
    | Node.Switch _ -> None)

let switch_count t = List.length (switches t)
let host_count t = List.length (hosts t)
let link_count t = List.length (links t)

let pp fmt t =
  Format.fprintf fmt "topology: %d switches, %d hosts, %d links@."
    (switch_count t) (host_count t) (link_count t);
  List.iter
    (fun l ->
      Format.fprintf fmt "  %a[%d] <-> %a[%d]%s@." Node.pp l.src l.src_port
        Node.pp l.dst l.dst_port
        (if l.up then "" else " (down)"))
    (links t)

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "graph topology {\n  overlap = false;\n";
  List.iter
    (fun n ->
      let shape =
        match n with Node.Switch _ -> "box" | Node.Host _ -> "ellipse"
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s [shape=%s];\n" (Node.to_string n) shape))
    (nodes t);
  List.iter
    (fun l ->
      Buffer.add_string buf
        (Printf.sprintf
           "  %s -- %s [taillabel=\"%d\", headlabel=\"%d\"%s];\n"
           (Node.to_string l.src) (Node.to_string l.dst) l.src_port l.dst_port
           (if l.up then "" else ", style=dashed")))
    (links t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
