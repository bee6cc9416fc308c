open Packet
module Node = Topo.Topology.Node

(* Shortest-path next hops to every host, as the union over
   (destination, switch) pairs — destination-major — of
   [at sw; filter (field = value_of dst); forward port].  One BFS per
   switch yields its predecessor table; each host's first hop is a walk
   back through it. *)
let next_hop_policy topo ~field ~value_of =
  let preds =
    List.map
      (fun sw_node -> (sw_node, Topo.Path.bfs topo ~src:sw_node))
      (Topo.Topology.switches topo)
  in
  List.concat_map
    (fun dst ->
      let test = Syntax.filter (Syntax.test field (value_of dst)) in
      List.filter_map
        (fun (sw_node, pred) ->
          match
            Topo.Path.walk_back pred ~src:sw_node ~dst:(Node.Host dst)
          with
          | None | Some [] -> None
          | Some (first_hop :: _) ->
            Some
              (Syntax.big_seq
                 [ Syntax.at ~switch:(Node.id sw_node); test;
                   Syntax.forward first_hop.Topo.Path.out_port ]))
        preds)
    (Topo.Topology.host_ids topo)
  |> Syntax.big_union

let routing_policy topo =
  next_hop_policy topo ~field:Fields.Eth_dst ~value_of:Mac.of_host_id

let ip_routing_policy topo =
  next_hop_policy topo ~field:Fields.Ip4_dst ~value_of:Ipv4.of_host_id

type acl_entry = {
  allow : bool;
  src_ip : Ipv4.t option;
  dst_ip : Ipv4.t option;
  proto : int option;
  dst_port : int option;
}

let acl_pred (e : acl_entry) =
  let tests =
    List.filter_map
      (fun x -> x)
      [ Option.map (Syntax.test Fields.Ip4_src) e.src_ip;
        Option.map (Syntax.test Fields.Ip4_dst) e.dst_ip;
        Option.map (Syntax.test Fields.Ip_proto) e.proto;
        Option.map (Syntax.test Fields.Tp_dst) e.dst_port ]
  in
  List.fold_left Syntax.conj Syntax.True tests

(** [acl_policy entries ~default_allow] — first-match-wins access
    control, expressed as nested if-then-else over the entry predicates.
    Composed in sequence with a forwarding policy it yields a firewall. *)
let acl_policy entries ~default_allow =
  let rec build = function
    | [] -> if default_allow then Syntax.id else Syntax.drop
    | e :: rest ->
      Syntax.ite (acl_pred e)
        (if e.allow then Syntax.id else Syntax.drop)
        (build rest)
  in
  build entries

let firewall ?(default_allow = true) topo entries =
  Syntax.seq (acl_policy entries ~default_allow) (ip_routing_policy topo)

let isolation_policy topo ~groups =
  let same_group =
    List.map
      (fun group ->
        let members src =
          Syntax.big_union
            (List.map
               (fun h -> Syntax.filter
                  (Syntax.test
                     (if src then Fields.Ip4_src else Fields.Ip4_dst)
                     (Ipv4.of_host_id h)))
               group)
        in
        Syntax.seq (members true) (members false))
      groups
  in
  Syntax.seq (Syntax.big_union same_group) (ip_routing_policy topo)

let random_acl prng ~n ~hosts =
  List.init n (fun _ ->
    { allow = Util.Prng.bool prng;
      src_ip =
        (if Util.Prng.bool prng then
           Some (Ipv4.of_host_id (1 + Util.Prng.int prng hosts))
         else None);
      dst_ip = Some (Ipv4.of_host_id (1 + Util.Prng.int prng hosts));
      proto = Some (if Util.Prng.bool prng then 6 else 17);
      dst_port = (if Util.Prng.bool prng then Some (Util.Prng.int prng 1024) else None) })
