(* Tests for the policy language: syntax, semantics, parser, the FDD
   compiler (including the central compiler-correctness properties) and
   the naive baseline. *)

open Netkat
open Packet

let h0 = Headers.tcp ~switch:1 ~in_port:2 ~src_host:5 ~dst_host:9
    ~tp_src:1234 ~tp_dst:80

let hset_to_list s = Semantics.HSet.elements s

let headers_list = Alcotest.testable
    (Fmt.Dump.list Headers.pp) (fun a b -> a = b)

let eval_pol p h = hset_to_list (Semantics.eval p h)

(* ------------------------------------------------------------------ *)
(* Syntax smart constructors *)

let test_smart_constructors () =
  let open Syntax in
  Alcotest.(check bool) "seq id" true (seq id (Mod (Fields.Vlan, 1)) = Mod (Fields.Vlan, 1));
  Alcotest.(check bool) "seq drop" true (seq drop (Mod (Fields.Vlan, 1)) = drop);
  Alcotest.(check bool) "union drop" true (union drop (Mod (Fields.Vlan, 1)) = Mod (Fields.Vlan, 1));
  Alcotest.(check bool) "conj true" true (conj True (Test (Fields.Vlan, 1)) = Test (Fields.Vlan, 1));
  Alcotest.(check bool) "conj false" true (conj False (Test (Fields.Vlan, 1)) = False);
  Alcotest.(check bool) "neg neg" true (neg (neg (Test (Fields.Vlan, 1))) = Test (Fields.Vlan, 1));
  Alcotest.(check bool) "star of id" true (star id = id);
  Alcotest.(check bool) "big_union empty" true (big_union [] = drop);
  Alcotest.(check bool) "big_seq empty" true (big_seq [] = id)

let test_size () =
  let open Syntax in
  Alcotest.(check int) "size" 6
    (size (Union (Seq (id, Mod (Fields.Vlan, 1)), Filter (Not True))))

let test_uses_links () =
  let open Syntax in
  Alcotest.(check bool) "plain" false (uses_links (Filter True));
  Alcotest.(check bool) "link" true (uses_links (link (1, 1) (2, 2)))

(* ------------------------------------------------------------------ *)
(* Semantics *)

let test_sem_filter () =
  Alcotest.check headers_list "pass" [ h0 ]
    (eval_pol (Syntax.filter (Syntax.test Fields.Tp_dst 80)) h0);
  Alcotest.check headers_list "block" []
    (eval_pol (Syntax.filter (Syntax.test Fields.Tp_dst 81)) h0)

let test_sem_mod () =
  Alcotest.check headers_list "mod" [ Headers.set h0 Fields.Vlan 7 ]
    (eval_pol (Syntax.modify Fields.Vlan 7) h0)

let test_sem_union_dedup () =
  (* both branches produce the same packet: the output is a set *)
  let p = Syntax.union Syntax.id Syntax.id in
  Alcotest.check headers_list "set semantics" [ h0 ] (eval_pol p h0)

let test_sem_seq () =
  let p =
    Syntax.seq (Syntax.modify Fields.Vlan 7)
      (Syntax.filter (Syntax.test Fields.Vlan 7))
  in
  Alcotest.check headers_list "mod then test" [ Headers.set h0 Fields.Vlan 7 ]
    (eval_pol p h0)

let test_sem_star_fixpoint () =
  (* (vlan=none; vlan:=1 + vlan=1; vlan:=2)* reaches 3 packets *)
  let open Syntax in
  let p =
    star
      (union
         (seq (filter (test Fields.Vlan Fields.vlan_none)) (modify Fields.Vlan 1))
         (seq (filter (test Fields.Vlan 1)) (modify Fields.Vlan 2)))
  in
  Alcotest.(check int) "closure size" 3 (List.length (eval_pol p h0))

let test_sem_neg_demorgan () =
  let open Syntax in
  let a = test Fields.Tp_dst 80 and b = test Fields.In_port 3 in
  let lhs = filter (neg (disj a b)) in
  let rhs = filter (conj (neg a) (neg b)) in
  List.iter
    (fun h ->
      Alcotest.(check bool) "de morgan" true (Semantics.equiv_on lhs rhs h))
    [ h0; Headers.set h0 Fields.Tp_dst 81;
      Headers.set (Headers.set h0 Fields.Tp_dst 81) Fields.In_port 3 ]

let test_link_policy () =
  let p = Syntax.link (1, 2) (7, 3) in
  (match eval_pol p h0 with
   | [ h ] ->
     Alcotest.(check int) "moved switch" 7 h.switch;
     Alcotest.(check int) "moved port" 3 h.in_port
   | _ -> Alcotest.fail "link should produce one packet");
  (* packet not at (1,2) is dropped by the link *)
  Alcotest.check headers_list "elsewhere dropped" []
    (eval_pol p (Headers.set h0 Fields.In_port 9))

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parse_basic () =
  let cases =
    [ ("id", Syntax.id); ("drop", Syntax.drop);
      ("port := 2", Syntax.forward 2);
      ("filter tpDst = 80", Syntax.filter (Syntax.test Fields.Tp_dst 80));
      ("filter true", Syntax.id);
      ("(id)", Syntax.id) ]
  in
  List.iter
    (fun (s, expected) ->
      Alcotest.(check bool) s true (Parser.pol_of_string s = expected))
    cases

let test_parse_precedence () =
  (* ; binds tighter than +, * tighter than ; *)
  let p = Parser.pol_of_string "vlan := 1; vlan := 2 + vlan := 3" in
  let expected =
    Syntax.union
      (Syntax.seq (Syntax.modify Fields.Vlan 1) (Syntax.modify Fields.Vlan 2))
      (Syntax.modify Fields.Vlan 3)
  in
  Alcotest.(check bool) "seq over union" true (p = expected);
  let q = Parser.pol_of_string "vlan := 1; vlan := 2*" in
  let expected_q =
    Syntax.seq (Syntax.modify Fields.Vlan 1)
      (Syntax.star (Syntax.modify Fields.Vlan 2))
  in
  Alcotest.(check bool) "star over seq" true (q = expected_q)

let test_parse_pred_precedence () =
  let p = Parser.pred_of_string "vlan = 1 or vlan = 2 and port = 3" in
  let expected =
    Syntax.disj (Syntax.test Fields.Vlan 1)
      (Syntax.conj (Syntax.test Fields.Vlan 2) (Syntax.test Fields.In_port 3))
  in
  Alcotest.(check bool) "and over or" true (p = expected)

let test_parse_values () =
  let p = Parser.pol_of_string "filter ip4Dst = 10.0.0.9; ethDst := 02:00:00:00:00:09" in
  let expected =
    Syntax.seq
      (Syntax.filter (Syntax.test Fields.Ip4_dst (Ipv4.of_string "10.0.0.9")))
      (Syntax.modify Fields.Eth_dst (Mac.of_string "02:00:00:00:00:09"))
  in
  Alcotest.(check bool) "ip and mac literals" true (p = expected);
  Alcotest.(check bool) "hex" true
    (Parser.pol_of_string "filter ethType = 0x800"
     = Syntax.filter (Syntax.test Fields.Eth_type 0x800))

let test_parse_if () =
  let p = Parser.pol_of_string "if port = 1 then port := 2 else drop" in
  let expected = Syntax.ite (Syntax.test Fields.In_port 1) (Syntax.forward 2) Syntax.drop in
  Alcotest.(check bool) "if-then-else" true (p = expected)

let test_parse_errors () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "reject %S" s) true
        (match Parser.pol_of_string s with
         | exception Parser.Parse_error _ -> true
         | _ -> false))
    [ ""; "filter"; "port ="; "port := "; "id id"; "(id"; "vlan = 1";
      "filter port := 1"; "id +"; "@#!" ]

let test_pp_parse_roundtrip_examples () =
  List.iter
    (fun s ->
      let p = Parser.pol_of_string s in
      let p' = Parser.pol_of_string (Syntax.pol_to_string p) in
      Alcotest.(check bool) s true (p = p'))
    [ "id + drop; vlan := 2*";
      "filter (port = 1 and not vlan = 3); port := 9";
      "if tpDst = 80 then port := 1 else (port := 2 + port := 3)";
      "filter not (port = 1 or port = 2)" ]

(* ------------------------------------------------------------------ *)
(* FDD compiler: directed tests *)

let eval_fdd_sorted p h =
  Fdd.eval (Fdd.of_policy p) h |> List.sort_uniq Headers.compare

let check_equiv name p h =
  Alcotest.check headers_list name (eval_pol p h) (eval_fdd_sorted p h)

let test_fdd_basics () =
  let open Syntax in
  List.iter
    (fun (name, p) ->
      check_equiv name p h0;
      check_equiv (name ^ "/other") p (Headers.set h0 Fields.Tp_dst 443))
    [ ("id", id); ("drop", drop);
      ("test", filter (test Fields.Tp_dst 80));
      ("neg", filter (neg (test Fields.Tp_dst 80)));
      ("mod", modify Fields.Vlan 3);
      ("union", union (forward 1) (forward 2));
      ("seq", seq (modify Fields.Tp_dst 443) (filter (test Fields.Tp_dst 443)));
      (* the true side of the test writes the tested field *)
      ("seq-rewrites-test",
       seq
         (seq (filter (test Fields.Tp_dst 80)) (modify Fields.Tp_dst 443))
         (filter (test Fields.Tp_dst 443)));
      ("mod-shadow", seq (modify Fields.Vlan 1) (modify Fields.Vlan 2));
      ("ite", ite (test Fields.Tp_dst 80) (forward 1) (forward 2)) ]

let test_fdd_hash_consing () =
  let open Syntax in
  let p = union (forward 1) (forward 2) in
  Alcotest.(check bool) "same policy, same node" true
    (Fdd.equal (Fdd.of_policy p) (Fdd.of_policy p));
  Alcotest.(check bool) "union commutes physically" true
    (Fdd.equal
       (Fdd.of_policy (union (forward 1) (forward 2)))
       (Fdd.of_policy (union (forward 2) (forward 1))))

let test_fdd_star_convergence () =
  let open Syntax in
  let p = star (union (modify Fields.Vlan 1) (modify Fields.Vlan 2)) in
  check_equiv "star" p h0;
  (* star of id is id *)
  Alcotest.(check bool) "star id" true
    (Fdd.equal (Fdd.of_policy (star id)) (Fdd.of_policy id))

let test_fdd_node_count_sharing () =
  let open Syntax in
  (* a union of k disjoint dst tests with the same action shares leaves *)
  let p =
    big_union
      (List.init 10 (fun i ->
         seq (filter (test Fields.Tp_dst (i + 1))) (forward 9)))
  in
  let d = Fdd.of_policy p in
  (* 10 branch nodes + 2 leaves (fwd 9, drop) *)
  Alcotest.(check int) "shared structure" 12 (Fdd.node_count d)

let test_fdd_restrict () =
  let open Syntax in
  let p =
    union
      (seq (at ~switch:1) (forward 1))
      (seq (at ~switch:2) (forward 2))
  in
  let d = Fdd.restrict (Fields.Switch, 1) (Fdd.of_policy p) in
  Alcotest.(check bool) "restricted to sw1" true
    (Fdd.eval d h0 = [ Headers.set h0 Fields.In_port 1 ]);
  (* the switch dimension is gone: evaluating with switch=2 behaves as 1 *)
  let h2 = Headers.set h0 Fields.Switch 2 in
  Alcotest.(check bool) "switch tests erased" true
    (Fdd.eval d h2 = [ Headers.set h2 Fields.In_port 1 ])

let test_act_compose () =
  let a = Fdd.Act.of_list [ (Fields.Vlan, 1); (Fields.Tp_dst, 8) ] in
  let b = Fdd.Act.of_list [ (Fields.Vlan, 2) ] in
  let ab = Fdd.Act.compose a b in
  Alcotest.(check bool) "b wins on vlan" true
    (Fdd.Act.get ab Fields.Vlan = Some 2);
  Alcotest.(check bool) "a kept on tp" true
    (Fdd.Act.get ab Fields.Tp_dst = Some 8);
  Alcotest.(check bool) "duplicate rejected" true
    (match Fdd.Act.of_list [ (Fields.Vlan, 1); (Fields.Vlan, 2) ] with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* ------------------------------------------------------------------ *)
(* FDD compiler: the property — random policies, random packets *)

let fields_for_gen =
  [| Fields.Switch; Fields.In_port; Fields.Eth_dst; Fields.Vlan;
     Fields.Tp_dst |]

let gen_pred =
  let open QCheck.Gen in
  sized (fun n ->
    fix
      (fun self n ->
        let leaf =
          oneof
            [ return Syntax.True; return Syntax.False;
              map2 (fun f v -> Syntax.Test (f, v))
                (oneofa fields_for_gen) (int_bound 3) ]
        in
        if n <= 1 then leaf
        else
          frequency
            [ (2, leaf);
              (2, map2 Syntax.conj (self (n / 2)) (self (n / 2)));
              (2, map2 Syntax.disj (self (n / 2)) (self (n / 2)));
              (1, map Syntax.neg (self (n - 1))) ])
      (min n 12))

let gen_pol =
  let open QCheck.Gen in
  sized (fun n ->
    fix
      (fun self n ->
        let leaf =
          oneof
            [ map Syntax.filter gen_pred;
              map2 (fun f v -> Syntax.Mod (f, v))
                (oneofa fields_for_gen) (int_bound 3) ]
        in
        if n <= 1 then leaf
        else
          frequency
            [ (3, leaf);
              (3, map2 Syntax.union (self (n / 2)) (self (n / 2)));
              (3, map2 Syntax.seq (self (n / 2)) (self (n / 2)));
              (1, map Syntax.star (self (min 4 (n / 2)))) ])
      (min n 20))

let gen_headers =
  let open QCheck.Gen in
  let small = int_bound 3 in
  map2
    (fun (sw, pt) ((dst, vlan), tp) ->
      { Headers.default with
        switch = sw; in_port = pt; eth_dst = dst; vlan; tp_dst = tp })
    (pair small small)
    (pair (pair small small) small)

let prop_fdd_equals_semantics =
  QCheck.Test.make ~name:"FDD compilation preserves semantics" ~count:1500
    (QCheck.make
       ~print:(fun (p, _) -> Syntax.pol_to_string p)
       (QCheck.Gen.pair gen_pol gen_headers))
    (fun (p, h) ->
      let sem = hset_to_list (Semantics.eval p h) in
      let fdd = Fdd.eval (Fdd.of_policy p) h |> List.sort_uniq Headers.compare in
      sem = fdd)

(* table-level: compiled rules behave like the FDD restricted to a switch;
   the first matching rule decides *)
let table_eval rules (h : Headers.t) =
  match Flow.Optimize.lookup rules h with
  | None -> []
  | Some group ->
    Flow.Action.apply_group h group
    |> List.filter_map (fun (h', port) ->
      match (port : Flow.Action.port) with
      | Physical p -> Some (Headers.set h' Fields.In_port p)
      | In_port_out -> Some h'
      | Flood | Controller -> None)
    |> List.sort_uniq Headers.compare

let local_pol_gen =
  (* local policies: no Mod Switch (tests on Switch are fine) *)
  let open QCheck.Gen in
  let rec fix_mod p =
    match (p : Syntax.pol) with
    | Mod (f, v) ->
      if Fields.equal f Fields.Switch then Syntax.Mod (Fields.Vlan, v) else p
    | Filter _ -> p
    | Union (a, b) -> Syntax.Union (fix_mod a, fix_mod b)
    | Seq (a, b) -> Syntax.Seq (fix_mod a, fix_mod b)
    | Star a -> Syntax.Star (fix_mod a)
  in
  map fix_mod gen_pol

let prop_table_equals_semantics =
  QCheck.Test.make
    ~name:"compiled flow table behaves like the policy at its switch"
    ~count:800
    (QCheck.make
       ~print:(fun (p, _) -> Syntax.pol_to_string p)
       (QCheck.Gen.pair local_pol_gen gen_headers))
    (fun (p, h) ->
      let rules = Local.compile ~switch:h.switch p in
      let sem =
        hset_to_list (Semantics.eval p h)
        (* keep only packets that stay at this switch: local policies
           cannot move packets, so that is all of them *)
      in
      table_eval rules h = sem)

(* ------------------------------------------------------------------ *)
(* Local compilation: directed *)

let test_local_routing_rules () =
  let topo = Topo.Gen.linear ~switches:3 ~hosts_per_switch:1 () in
  let pol = Builder.routing_policy topo in
  let rules = Local.compile ~switch:2 pol in
  (* 3 destinations + final drop *)
  Alcotest.(check int) "rule count" 4 (List.length rules);
  (* middle switch: h1 via port 1 (to s1), h3 via port 2? ports: s2 has
     port1->s1, port2->s3, port3->h2 *)
  let probe dst =
    let h =
      Headers.tcp ~switch:2 ~in_port:1 ~src_host:1 ~dst_host:dst ~tp_src:1
        ~tp_dst:2
    in
    table_eval rules h
  in
  (match probe 3 with
   | [ h ] -> Alcotest.(check int) "toward s3" 2 h.in_port
   | _ -> Alcotest.fail "expected one output");
  match probe 2 with
  | [ h ] -> Alcotest.(check int) "local host" 3 h.in_port
  | _ -> Alcotest.fail "expected one output"

let test_local_rejects_links () =
  Alcotest.(check bool) "link rejected" true
    (match Local.compile ~switch:1 (Syntax.link (1, 1) (2, 2)) with
     | exception Local.Not_local _ -> true
     | _ -> false)

let test_local_negation_via_shadowing () =
  (* filter not tpDst=80; port:=9 — needs priority shadowing *)
  let open Syntax in
  let p = seq (filter (neg (test Fields.Tp_dst 80))) (forward 9) in
  let rules = Local.compile ~switch:1 p in
  Alcotest.(check bool) "80 dropped" true (table_eval rules h0 = []);
  let h443 = Headers.set h0 Fields.Tp_dst 443 in
  Alcotest.(check bool) "443 forwarded" true
    (table_eval rules h443 = [ Headers.set h443 Fields.In_port 9 ])

(* an ordered list becomes a table through the product path: Delta
   numbers it, [Api.load_delta] applies the flow-mods *)
let test_local_table_loading () =
  let open Syntax in
  let table = Flow.Table.create () in
  Controller.Api.load_delta ~previous:None
    ~table_of:(fun _ -> table)
    (Netkat.Delta.compile_policy ~switches:[ 1 ] None
       (seq (filter (test Fields.Tp_dst 80)) (forward 3)));
  Alcotest.(check bool) "loaded" true (Flow.Table.size table >= 1);
  let actions = Flow.Table.apply table ~now:0.0 ~size:10 h0 in
  if actions == Flow.Table.miss then Alcotest.fail "should match";
  Alcotest.(check bool) "forwards" true (actions = Flow.Action.forward 3)

(* ------------------------------------------------------------------ *)
(* Naive baseline *)

let test_naive_agrees_on_routing () =
  let topo = Topo.Gen.linear ~switches:3 ~hosts_per_switch:2 () in
  let pol = Builder.routing_policy topo in
  List.iter
    (fun sw ->
      let naive = Naive.compile ~switch:sw pol in
      List.iter
        (fun dst ->
          let h =
            Headers.tcp ~switch:sw ~in_port:1 ~src_host:1 ~dst_host:dst
              ~tp_src:1 ~tp_dst:2
          in
          let fdd_rules = Local.compile ~switch:sw pol in
          Alcotest.check headers_list
            (Printf.sprintf "sw%d dst h%d" sw dst)
            (table_eval fdd_rules h) (table_eval naive h))
        [ 1; 2; 3; 4; 5; 6 ])
    [ 1; 2; 3 ]

let test_naive_redundancy () =
  (* redundant union branches: the naive compiler keeps every duplicate
     (shadowed dead rules), the FDD collapses them *)
  let open Syntax in
  let p =
    big_union
      (List.init 4 (fun _ ->
         seq (filter (test Fields.Tp_dst 80)) (forward 1)))
  in
  let naive = Naive.compile ~switch:1 p in
  let fdd = Local.compile ~switch:1 p in
  Alcotest.(check int) "naive keeps duplicates" 4 (List.length naive);
  Alcotest.(check int) "fdd collapses (match + fall-through drop)" 2
    (List.length fdd);
  (* count dead entries of both ordered lists *)
  Alcotest.(check int) "naive has shadowed rules" 3
    (List.length (Flow.Optimize.shadowed naive));
  Alcotest.(check int) "fdd has none" 0
    (List.length (Flow.Optimize.shadowed fdd))

let test_fdd_negation_linear () =
  (* a denylist firewall needs negation: the FDD compiles it to a linear
     number of rules (k drops + default), which the naive baseline cannot
     express at all *)
  let open Syntax in
  let deny k =
    let bad =
      List.fold_left
        (fun acc i -> disj acc (test Fields.Tp_dst i))
        False
        (List.init k (fun i -> i + 1))
    in
    seq (filter (neg bad)) (forward 9)
  in
  List.iter
    (fun k ->
      let rules = Local.compile ~switch:1 (deny k) in
      Alcotest.(check int)
        (Printf.sprintf "denylist k=%d is linear" k)
        (k + 1) (List.length rules))
    [ 1; 4; 16 ]

let test_naive_unsupported () =
  Alcotest.(check bool) "negation" true
    (match Naive.compile ~switch:1 (Syntax.Filter (Syntax.Not Syntax.True)) with
     | exception Naive.Unsupported _ -> true
     | _ -> false);
  Alcotest.(check bool) "star" true
    (match Naive.compile ~switch:1 (Syntax.Star (Syntax.Mod (Fields.Vlan, 1))) with
     | exception Naive.Unsupported _ -> true
     | _ -> false)

(* ------------------------------------------------------------------ *)
(* Edit compile cost: the seq specialisation and the of_policy memo *)

(* Sequencing without the branch-test specialisation: both sides of
   every test of [a] are sequenced with all of [b]. *)
let rec seq_ref (a : Fdd.t) b =
  if b == Fdd.ident then a
  else if a == Fdd.ident then b
  else if a == Fdd.drop || b == Fdd.drop then Fdd.drop
  else
    match a.node with
    | Fdd.Leaf acts ->
      Fdd.ActSet.fold
        (fun act acc -> Fdd.union acc (Fdd.act_seq act b))
        acts Fdd.drop
    | Fdd.Branch (test, tru, fls) ->
      Fdd.cond test (seq_ref tru b) (seq_ref fls b)

(* policies whose true sides often write the field they test, so both
   the restricted and the fallback side of [Fdd.seq] run *)
let gen_pol_rewriting =
  let open QCheck.Gen in
  oneof
    [ gen_pol;
      map3
        (fun f (v, v') p ->
          Syntax.Union
            (Syntax.Seq (Syntax.Filter (Syntax.Test (f, v)), Syntax.Mod (f, v')), p))
        (oneofa fields_for_gen) (pair (int_bound 3) (int_bound 3)) gen_pol ]

let prop_seq_matches_reference =
  QCheck.Test.make ~name:"Fdd.seq evaluates like the unspecialised seq"
    ~count:500
    (QCheck.make
       ~print:(fun ((p, q), _) -> Syntax.pol_to_string (Syntax.Seq (p, q)))
       QCheck.Gen.(
         pair (pair gen_pol_rewriting gen_pol) (list_size (return 8) gen_headers)))
    (fun ((p, q), hs) ->
      let a = Fdd.of_policy p and b = Fdd.of_policy q in
      let fast = Fdd.seq a b and slow = seq_ref a b in
      List.for_all
        (fun h ->
          List.sort_uniq Headers.compare (Fdd.eval fast h)
          = List.sort_uniq Headers.compare (Fdd.eval slow h))
        hs)

(* edit [i] on fat-tree k=4: deny (edge of dst, Eth_dst = dst,
   Tp_dst = 1024 + i) *)
let edit_guard topo i =
  let hosts = Array.of_list (Topo.Topology.host_ids topo) in
  let dst = hosts.(i * 7 mod Array.length hosts) in
  let edge =
    match Topo.Topology.attachment topo dst with
    | Some (sw, _) -> sw
    | None -> Alcotest.fail "host without an edge switch"
  in
  Syntax.filter
    (Syntax.neg
       (Syntax.conj
          (Syntax.test Fields.Switch edge)
          (Syntax.conj
             (Syntax.test Fields.Eth_dst (Mac.of_host_id dst))
             (Syntax.test Fields.Tp_dst (1024 + i)))))

(* A guard in front of the base builds only the guarded switch's case:
   sequencing the guard with the whole base measured 409 new branch
   nodes per edit here, the specialised seq 35. *)
let test_edit_compile_growth () =
  Fdd.clear_cache ();
  let topo, _ = Topo.Gen.fat_tree ~k:4 () in
  let base = Builder.routing_policy topo in
  ignore (Fdd.of_policy base);
  let before = Fdd.branch_count () in
  for i = 0 to 49 do
    ignore (Fdd.of_policy (Syntax.seq (edit_guard topo i) base))
  done;
  let per_edit = (Fdd.branch_count () - before) / 50 in
  Alcotest.(check bool)
    (Printf.sprintf "%d new branch nodes per edit <= 100" per_edit)
    true (per_edit <= 100)

(* The computed table is lossy: compiling large unrelated policies
   overwrites most of its slots (the two fat-tree k=6 compiles here
   rewrite 84% of them), yet a fresh, structurally equal value of an
   earlier policy (which misses the of_policy memo) hash-conses to the
   earlier node and builds no branch node *)
let test_eviction_keeps_canonicity () =
  Fdd.clear_cache ();
  let small, _ = Topo.Gen.fat_tree ~k:4 () in
  let policy () =
    Syntax.seq (edit_guard small 3) (Builder.routing_policy small)
  in
  let first = Fdd.of_policy (policy ()) in
  let big, _ = Topo.Gen.fat_tree ~k:6 () in
  ignore (Fdd.of_policy (Builder.ip_routing_policy big));
  ignore (Fdd.of_policy (Builder.routing_policy big));
  let built = Fdd.branch_count () in
  let again = Fdd.of_policy (policy ()) in
  Alcotest.(check bool) "recompiled after eviction: the same node" true
    (again == first);
  Alcotest.(check int) "the recompile built no branch node" built
    (Fdd.branch_count ());
  (* drop the k=6 diagrams: later tests need not carry them in the heap *)
  Fdd.clear_cache ()

(* every node reachable from [d] *)
let fdd_nodes d =
  let rec go acc (d : Fdd.t) =
    if List.memq d acc then acc
    else
      match d.node with
      | Fdd.Leaf _ -> d :: acc
      | Fdd.Branch (_, tru, fls) -> go (go (d :: acc) tru) fls
  in
  go [] d

(* clear_cache empties the computed table with the unique tables, so no
   node built before the clear comes back from it: every node of the
   recompiled diagram is fresh, except the canonical drop and ident.
   The policy writes a field and then tests another, so the compile
   sequences an action with [ident] (its operands both survive a clear) *)
let test_clear_cache_empties_computed_table () =
  let topo = Topo.Gen.linear ~switches:4 ~hosts_per_switch:2 () in
  let policy () =
    Syntax.union (Builder.routing_policy topo)
      (Syntax.seq (Syntax.modify Fields.Vlan 7)
         (Syntax.filter (Syntax.test Fields.Ip_proto 6)))
  in
  let before = Fdd.of_policy (policy ()) in
  let last =
    Fdd.uid (Fdd.of_policy (Syntax.filter (Syntax.test Fields.Tp_src 4242)))
  in
  Fdd.clear_cache ();
  let after = Fdd.of_policy (policy ()) in
  Alcotest.(check int) "same diagram size" (Fdd.node_count before)
    (Fdd.node_count after);
  List.iter
    (fun (d : Fdd.t) ->
      if d != Fdd.drop && d != Fdd.ident && Fdd.uid d <= last then
        Alcotest.failf "node %d was built before the clear (last uid %d)"
          (Fdd.uid d) last)
    (fdd_nodes after)

let test_of_policy_memo () =
  let topo = Topo.Gen.linear ~switches:4 ~hosts_per_switch:2 () in
  let base = Builder.routing_policy topo in
  let d = Fdd.of_policy base in
  Alcotest.(check bool) "the first call remembers the base's nodes" true
    (Fdd.last_policy_size () > 10);
  (* a shared base is answered at its root *)
  let guard = Syntax.filter (Syntax.neg (Syntax.test Fields.Tp_dst 22)) in
  let edited = Fdd.of_policy (Syntax.seq guard base) in
  Alcotest.(check int) "an edit visits the Seq, the guard and the base root"
    3 (Fdd.last_policy_size ());
  Alcotest.(check bool) "edit = composed diagrams" true
    (edited == Fdd.seq (Fdd.of_policy guard) d);
  (* equal syntax that is a different value is the same memo key, and
     either way it hash-conses to the same node *)
  let rebuilt = Builder.routing_policy topo in
  Alcotest.(check bool) "rebuilt base is a fresh value" true
    (rebuilt != base && rebuilt = base);
  Alcotest.(check bool) "fresh equal syntax, same node" true
    (Fdd.of_policy rebuilt == d);
  (* alternating calls: each answer is the policy's own diagram *)
  let other = Builder.ip_routing_policy topo in
  let d_other = Fdd.of_policy other in
  for _ = 1 to 3 do
    Alcotest.(check bool) "base again" true (Fdd.of_policy base == d);
    Alcotest.(check bool) "other again" true (Fdd.of_policy other == d_other);
    let edited_other = Fdd.of_policy (Syntax.seq guard other) in
    List.iter
      (fun dst ->
        let h =
          Headers.tcp ~switch:1 ~in_port:1 ~src_host:1 ~dst_host:dst
            ~tp_src:1 ~tp_dst:22
        in
        Alcotest.check headers_list "edited other = semantics"
          (eval_pol (Syntax.seq guard other) h)
          (Fdd.eval edited_other h |> List.sort_uniq Headers.compare))
      [ 2; 5; 8 ]
  done;
  Fdd.clear_cache ();
  Alcotest.(check int) "clear_cache forgets the last policy" 0
    (Fdd.last_policy_size ())

(* A union spine that holds a union the previous call compiled keeps
   that union whole: the memo answers it at its root, whichever side of
   the new spine it sits on *)
let test_of_policy_memo_in_union_spine () =
  let topo = Topo.Gen.linear ~switches:4 ~hosts_per_switch:2 () in
  let base = Builder.routing_policy topo in
  let extra = Syntax.filter (Syntax.test Fields.Tp_dst 22) in
  List.iter
    (fun (name, pol) ->
      let d = Fdd.of_policy base in
      let u = Fdd.of_policy pol in
      Alcotest.(check int)
        (name ^ ": visits the union, the extra term and the base root") 3
        (Fdd.last_policy_size ());
      Alcotest.(check bool) (name ^ ": the union of the two diagrams") true
        (u == Fdd.union (Fdd.of_policy extra) d))
    [ ("right", Syntax.Union (extra, base));
      ("left", Syntax.Union (base, extra)) ]

(* The compile of a union follows the diagram, not the syntax's
   association: a right-fold spine merged term by term into the rest of
   the spine built 58 578 branch nodes for fat-tree k=6's 2 475 routing
   terms; a balanced merge builds about 15 200 *)
let test_union_spine_node_count () =
  Fdd.clear_cache ();
  let topo, _ = Topo.Gen.fat_tree ~k:6 () in
  ignore (Fdd.of_policy (Builder.routing_policy topo));
  let built = Fdd.branch_count () in
  Fdd.clear_cache ();
  Alcotest.(check bool)
    (Printf.sprintf "%d branch nodes built <= 20000" built)
    true (built <= 20_000)

(* [dst = 1] passes what [not dst = 2] passes, so their union is the
   second filter's node: a test whose true side is where its false side
   falls through is dropped *)
let test_redundant_test_collapses () =
  let dst v = Syntax.test Fields.Eth_dst v in
  let wide = Syntax.filter (Syntax.neg (dst 2)) in
  Alcotest.(check bool) "one node for one function" true
    (Fdd.of_policy (Syntax.Union (Syntax.filter (dst 1), wide))
     == Fdd.of_policy wide)

(* however a union's terms are grouped or ordered, the policy compiles
   to one node *)
let prop_union_grouping =
  let right ps =
    match List.rev ps with
    | last :: rest ->
      List.fold_left (fun acc p -> Syntax.Union (p, acc)) last rest
    | [] -> Syntax.drop
  in
  let left = function
    | p :: rest -> List.fold_left (fun acc p -> Syntax.Union (acc, p)) p rest
    | [] -> Syntax.drop
  in
  let rec balanced = function
    | [ p ] -> p
    | ps ->
      let l = List.filteri (fun i _ -> 2 * i < List.length ps) ps
      and r = List.filteri (fun i _ -> 2 * i >= List.length ps) ps in
      Syntax.Union (balanced l, balanced r)
  in
  QCheck.Test.make ~name:"a union compiles to one node however grouped"
    ~count:300
    (QCheck.make
       ~print:(fun (ps, _) ->
         String.concat " | " (List.map Syntax.pol_to_string ps))
       QCheck.Gen.(
         list_size (int_range 2 8) gen_pol >>= fun ps ->
         map (fun shuffled -> (ps, shuffled)) (shuffle_l ps)))
    (fun (ps, shuffled) ->
      let d = Fdd.of_policy (right ps) in
      List.for_all
        (fun pol -> Fdd.of_policy pol == d)
        [ left ps; balanced ps; right shuffled; left (List.rev ps) ])

(* FDD state is used by one domain at a time, not owned by one: an edit
   compiled on another domain still answers the shared base from the
   last call's memo *)
let test_of_policy_memo_across_domains () =
  let topo = Topo.Gen.linear ~switches:4 ~hosts_per_switch:2 () in
  let base = Builder.routing_policy topo in
  let d = Fdd.of_policy base in
  let guard = Syntax.filter (Syntax.neg (Syntax.test Fields.Tp_dst 22)) in
  let visited, edited =
    Domain.join
      (Domain.spawn (fun () ->
         let edited = Fdd.of_policy (Syntax.seq guard base) in
         (Fdd.last_policy_size (), edited)))
  in
  Alcotest.(check int) "the edit visits the Seq, the guard and the base root"
    3 visited;
  Alcotest.(check bool) "edit = composed diagrams" true
    (edited == Fdd.seq (Fdd.of_policy guard) d)

(* ------------------------------------------------------------------ *)
(* Builders *)

(* routing built pair by pair: one shortest-path search per
   (destination, switch), destination-major *)
let per_pair_routing topo ~field ~value_of =
  List.concat_map
    (fun dst ->
      List.filter_map
        (fun sw_node ->
          match
            Topo.Path.shortest_path topo ~src:sw_node
              ~dst:(Topo.Topology.Node.Host dst)
          with
          | None | Some [] -> None
          | Some (hop :: _) ->
            Some
              (Syntax.big_seq
                 [ Syntax.at ~switch:(Topo.Topology.Node.id sw_node);
                   Syntax.filter (Syntax.test field (value_of dst));
                   Syntax.forward hop.Topo.Path.out_port ]))
        (Topo.Topology.switches topo))
    (Topo.Topology.host_ids topo)
  |> Syntax.big_union

let test_builder_matches_per_pair_oracle () =
  let fat, _ = Topo.Gen.fat_tree ~k:4 () in
  let cut = Topo.Gen.linear ~switches:3 ~hosts_per_switch:1 () in
  let s1 = Topo.Topology.Node.Switch 1 in
  (match
     List.find_opt
       (fun (l : Topo.Topology.link) ->
         Topo.Topology.Node.equal l.dst (Topo.Topology.Node.Switch 2))
       (Topo.Topology.out_links cut s1)
   with
   | Some l -> Topo.Topology.fail_link cut (s1, l.src_port)
   | None -> Alcotest.fail "linear:3 has no s1-s2 link");
  List.iter
    (fun (name, topo) ->
      Alcotest.(check bool) (name ^ ": routing_policy") true
        (Builder.routing_policy topo
         = per_pair_routing topo ~field:Fields.Eth_dst
             ~value_of:Mac.of_host_id);
      Alcotest.(check bool) (name ^ ": ip_routing_policy") true
        (Builder.ip_routing_policy topo
         = per_pair_routing topo ~field:Fields.Ip4_dst
             ~value_of:Ipv4.of_host_id))
    [ ("fattree:4", fat); ("linear:3, s1-s2 down", cut) ];
  (* s1 reaches only h1; s2 and s3 reach h2 and h3 *)
  let rec clauses : Syntax.pol -> int = function
    | Union (a, b) -> clauses a + clauses b
    | _ -> 1
  in
  Alcotest.(check int) "unreachable pairs are skipped" 5
    (clauses (Builder.routing_policy cut))

let suites =
  [ ( "netkat.syntax",
      [ Alcotest.test_case "smart constructors" `Quick test_smart_constructors;
        Alcotest.test_case "size" `Quick test_size;
        Alcotest.test_case "uses_links" `Quick test_uses_links ] );
    ( "netkat.semantics",
      [ Alcotest.test_case "filter" `Quick test_sem_filter;
        Alcotest.test_case "mod" `Quick test_sem_mod;
        Alcotest.test_case "union dedups" `Quick test_sem_union_dedup;
        Alcotest.test_case "seq" `Quick test_sem_seq;
        Alcotest.test_case "star fixpoint" `Quick test_sem_star_fixpoint;
        Alcotest.test_case "de morgan" `Quick test_sem_neg_demorgan;
        Alcotest.test_case "link" `Quick test_link_policy ] );
    ( "netkat.parser",
      [ Alcotest.test_case "basic" `Quick test_parse_basic;
        Alcotest.test_case "policy precedence" `Quick test_parse_precedence;
        Alcotest.test_case "predicate precedence" `Quick
          test_parse_pred_precedence;
        Alcotest.test_case "value literals" `Quick test_parse_values;
        Alcotest.test_case "if-then-else" `Quick test_parse_if;
        Alcotest.test_case "errors" `Quick test_parse_errors;
        Alcotest.test_case "pp/parse roundtrip" `Quick
          test_pp_parse_roundtrip_examples ] );
    ( "netkat.fdd",
      [ Alcotest.test_case "basic equivalences" `Quick test_fdd_basics;
        Alcotest.test_case "hash consing" `Quick test_fdd_hash_consing;
        Alcotest.test_case "star converges" `Quick test_fdd_star_convergence;
        Alcotest.test_case "node sharing" `Quick test_fdd_node_count_sharing;
        Alcotest.test_case "restrict" `Quick test_fdd_restrict;
        Alcotest.test_case "action composition" `Quick test_act_compose;
        QCheck_alcotest.to_alcotest prop_fdd_equals_semantics;
        QCheck_alcotest.to_alcotest prop_seq_matches_reference;
        Alcotest.test_case "edit compile growth (fat-tree k=4)" `Quick
          test_edit_compile_growth;
        Alcotest.test_case "of_policy memo" `Quick test_of_policy_memo;
        Alcotest.test_case "of_policy memo inside a union spine" `Quick
          test_of_policy_memo_in_union_spine;
        Alcotest.test_case "union spine node count (fat-tree k=6)" `Quick
          test_union_spine_node_count;
        Alcotest.test_case "redundant test collapses" `Quick
          test_redundant_test_collapses;
        QCheck_alcotest.to_alcotest prop_union_grouping;
        Alcotest.test_case "eviction keeps canonicity" `Quick
          test_eviction_keeps_canonicity;
        Alcotest.test_case "clear_cache empties the computed table" `Quick
          test_clear_cache_empties_computed_table ] );
    ( "netkat.builder",
      [ Alcotest.test_case "routing = per-pair shortest paths" `Quick
          test_builder_matches_per_pair_oracle ] );
    ( "netkat.local",
      [ Alcotest.test_case "routing rules" `Quick test_local_routing_rules;
        Alcotest.test_case "rejects links" `Quick test_local_rejects_links;
        Alcotest.test_case "negation via shadowing" `Quick
          test_local_negation_via_shadowing;
        Alcotest.test_case "table loading" `Quick test_local_table_loading;
        QCheck_alcotest.to_alcotest prop_table_equals_semantics ] );
    ( "netkat.parallel",
      [ Alcotest.test_case "of_policy memo survives a domain handoff" `Quick
          test_of_policy_memo_across_domains ] );
    ( "netkat.naive",
      [ Alcotest.test_case "agrees on routing" `Quick
          test_naive_agrees_on_routing;
        Alcotest.test_case "keeps redundant rules" `Quick
          test_naive_redundancy;
        Alcotest.test_case "fdd compiles denylists linearly" `Quick
          test_fdd_negation_linear;
        Alcotest.test_case "unsupported fragments" `Quick
          test_naive_unsupported ] ) ]
