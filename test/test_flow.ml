(* Tests for match patterns, actions, the priority flow table (strict
   deletes included) and the rule-list optimizer. *)

open Packet
open Flow

let hdr = Headers.tcp ~switch:1 ~in_port:2 ~src_host:5 ~dst_host:9
    ~tp_src:1234 ~tp_dst:80

(* ------------------------------------------------------------------ *)
(* Pattern *)

let test_any_matches () =
  Alcotest.(check bool) "any" true (Pattern.matches Pattern.any hdr);
  Alcotest.(check bool) "is_any" true (Pattern.is_any Pattern.any)

let test_exact_fields () =
  List.iter
    (fun f ->
      let v = Headers.get hdr f in
      let p = Pattern.of_field f v in
      Alcotest.(check bool) (Fields.to_string f ^ " matches") true
        (Pattern.matches p hdr);
      let p' = Pattern.of_field f (v + 1) in
      Alcotest.(check bool) (Fields.to_string f ^ " mismatch") false
        (Pattern.matches p' hdr))
    [ Fields.In_port; Fields.Eth_src; Fields.Eth_dst; Fields.Eth_type;
      Fields.Vlan; Fields.Ip_proto; Fields.Ip4_src; Fields.Ip4_dst;
      Fields.Tp_src; Fields.Tp_dst ]

let test_switch_not_matchable () =
  Alcotest.(check bool) "switch rejected" true
    (match Pattern.of_field Fields.Switch 1 with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_prefix_pattern () =
  let p =
    { Pattern.any with ip4_dst = Some (Ipv4.Prefix.of_string "10.0.0.0/16") }
  in
  Alcotest.(check bool) "inside /16" true (Pattern.matches p hdr);
  let p' =
    { Pattern.any with ip4_dst = Some (Ipv4.Prefix.of_string "10.1.0.0/16") }
  in
  Alcotest.(check bool) "outside /16" false (Pattern.matches p' hdr)

let test_conj () =
  let a = Pattern.of_field Fields.Tp_dst 80 in
  let b = Pattern.of_field Fields.In_port 2 in
  (match Pattern.conj a b with
   | None -> Alcotest.fail "conj should exist"
   | Some c ->
     Alcotest.(check bool) "conj matches" true (Pattern.matches c hdr);
     Alcotest.(check int) "weight 2" 2 (Pattern.weight c));
  Alcotest.(check bool) "contradiction" true
    (Pattern.conj a (Pattern.of_field Fields.Tp_dst 81) = None)

let test_conj_prefixes () =
  let wide = { Pattern.any with ip4_src = Some (Ipv4.Prefix.of_string "10.0.0.0/8") } in
  let narrow = { Pattern.any with ip4_src = Some (Ipv4.Prefix.of_string "10.1.0.0/16") } in
  (match Pattern.conj wide narrow with
   | Some c ->
     Alcotest.(check bool) "narrower wins" true
       (c.ip4_src = narrow.ip4_src)
   | None -> Alcotest.fail "nested prefixes conj");
  let disjoint = { Pattern.any with ip4_src = Some (Ipv4.Prefix.of_string "11.0.0.0/8") } in
  Alcotest.(check bool) "disjoint prefixes" true
    (Pattern.conj wide disjoint = None)

let test_subsumes () =
  let gen = Pattern.of_field Fields.Tp_dst 80 in
  let spec = Option.get (Pattern.conj gen (Pattern.of_field Fields.In_port 2)) in
  Alcotest.(check bool) "general subsumes specific" true
    (Pattern.subsumes ~general:gen spec);
  Alcotest.(check bool) "specific does not subsume general" false
    (Pattern.subsumes ~general:spec gen);
  Alcotest.(check bool) "any subsumes all" true
    (Pattern.subsumes ~general:Pattern.any spec)

let test_overlap () =
  let a = Pattern.of_field Fields.Tp_dst 80 in
  let b = Pattern.of_field Fields.In_port 2 in
  Alcotest.(check bool) "cross fields overlap" true (Pattern.overlap a b);
  Alcotest.(check bool) "same field differs" false
    (Pattern.overlap a (Pattern.of_field Fields.Tp_dst 81))

(* ------------------------------------------------------------------ *)
(* Action *)

let test_apply_seq () =
  let s : Action.seq =
    [ Set_field (Fields.Vlan, 100); Output (Physical 7) ]
  in
  let h, outs = Action.apply_seq hdr s in
  Alcotest.(check int) "vlan set" 100 h.vlan;
  Alcotest.(check bool) "one output" true (outs = [ Action.Physical 7 ])

let test_apply_group_multicast () =
  let g : Action.group =
    [ [ Output (Physical 1) ];
      [ Set_field (Fields.Vlan, 5); Output (Physical 2) ] ]
  in
  let outs = Action.apply_group hdr g in
  Alcotest.(check int) "two copies" 2 (List.length outs);
  (match outs with
   | [ (h1, Action.Physical 1); (h2, Action.Physical 2) ] ->
     Alcotest.(check int) "copy 1 untouched" hdr.vlan h1.vlan;
     Alcotest.(check int) "copy 2 tagged" 5 h2.vlan
   | _ -> Alcotest.fail "unexpected outputs")

let test_mods_before_output_only () =
  (* a Set_field after the Output must not affect the emitted copy *)
  let g : Action.group =
    [ [ Output (Physical 1); Set_field (Fields.Vlan, 9) ] ]
  in
  match Action.apply_group hdr g with
  | [ (h, Action.Physical 1) ] ->
    Alcotest.(check int) "late mod not visible" hdr.vlan h.vlan
  | _ -> Alcotest.fail "unexpected"

let test_drop_group () =
  Alcotest.(check int) "drop emits nothing" 0
    (List.length (Action.apply_group hdr Action.drop))

(* ------------------------------------------------------------------ *)
(* Table *)

let mk ?(priority = 0) ?(idle = None) pattern actions =
  Table.make_rule ~priority ~idle_timeout:idle ~pattern ~actions ()

let test_priority_order () =
  let t = Table.create () in
  Table.add t (mk ~priority:1 Pattern.any (Action.forward 1));
  Table.add t
    (mk ~priority:10 (Pattern.of_field Fields.Tp_dst 80) (Action.forward 2));
  (match Table.lookup t hdr with
   | Some r -> Alcotest.(check int) "high priority wins" 10 r.priority
   | None -> Alcotest.fail "no match");
  let other = Headers.set hdr Fields.Tp_dst 443 in
  match Table.lookup t other with
  | Some r -> Alcotest.(check int) "fallback" 1 r.priority
  | None -> Alcotest.fail "no fallback match"

let test_tie_break_first_installed () =
  let t = Table.create () in
  Table.add t (mk ~priority:5 (Pattern.of_field Fields.Tp_dst 80) (Action.forward 1));
  Table.add t (mk ~priority:5 (Pattern.of_field Fields.In_port 2) (Action.forward 2));
  match Table.lookup t hdr with
  | Some r ->
    Alcotest.(check bool) "first installed wins" true
      (r.actions = Action.forward 1)
  | None -> Alcotest.fail "no match"

let test_modify_semantics () =
  let t = Table.create () in
  Table.add t (mk ~priority:5 Pattern.any (Action.forward 1));
  Table.add t (mk ~priority:5 Pattern.any (Action.forward 9));
  Alcotest.(check int) "replaced, not duplicated" 1 (Table.size t);
  match Table.lookup t hdr with
  | Some r -> Alcotest.(check bool) "new actions" true (r.actions = Action.forward 9)
  | None -> Alcotest.fail "no match"

(* regression: modify used to install the replacement with zeroed
   counters and a fresh install time, losing the flow's history *)
let test_modify_preserves_counters () =
  let t = Table.create () in
  Table.add t
    (Table.make_rule ~priority:5 ~now:1.0 ~pattern:Pattern.any
       ~actions:(Action.forward 1) ());
  ignore (Table.apply t ~now:2.0 ~size:100 hdr);
  ignore (Table.apply t ~now:3.0 ~size:150 hdr);
  Table.add t
    (Table.make_rule ~priority:5 ~now:9.0 ~pattern:Pattern.any
       ~actions:(Action.forward 7) ());
  match Table.rules t with
  | [ r ] ->
    Alcotest.(check bool) "actions updated" true (r.actions = Action.forward 7);
    Alcotest.(check int) "packets survive modify" 2 r.packets;
    Alcotest.(check int) "bytes survive modify" 250 r.bytes;
    Alcotest.(check (float 1e-9)) "last hit survives modify" 3.0 r.last_hit
  | _ -> Alcotest.fail "one rule expected"

(* regression: deletes that removed nothing used to flush the whole
   flow cache anyway *)
let test_noop_delete_keeps_cache () =
  let t = Table.create () in
  Table.add t (mk ~priority:5 (Pattern.of_field Fields.Tp_dst 80) (Action.forward 1));
  Table.add t
    (Table.make_rule ~priority:1 ~cookie:7 ~pattern:Pattern.any
       ~actions:(Action.forward 2) ());
  ignore (Table.lookup t hdr);  (* populate *)
  ignore (Table.lookup t hdr);  (* warm *)
  Alcotest.(check int) "cache warm" 1 (Table.cache_hits t);
  let inv = Table.invalidations t in
  (* nothing is subsumed by tp_dst=9999; nothing carries cookie 99;
     no strict (priority, pattern) rule matches; nothing is expired *)
  Table.remove t ~pattern:(Pattern.of_field Fields.Tp_dst 9999);
  Table.remove ~cookie:99 t ~pattern:Pattern.any;
  Table.remove_strict t ~priority:3 ~pattern:Pattern.any;
  ignore (Table.expire t ~now:100.0);
  Alcotest.(check int) "no-op deletes do not invalidate" inv
    (Table.invalidations t);
  ignore (Table.lookup t hdr);
  Alcotest.(check int) "cache still warm" 2 (Table.cache_hits t);
  (* a delete that really removes must still invalidate *)
  Table.remove ~cookie:7 t ~pattern:Pattern.any;
  Alcotest.(check int) "real delete invalidates" (inv + 1)
    (Table.invalidations t);
  ignore (Table.lookup t hdr);
  Alcotest.(check int) "cache cold after real delete" 2 (Table.cache_hits t)

let test_counters () =
  let t = Table.create () in
  Table.add t (mk Pattern.any (Action.forward 1));
  ignore (Table.apply t ~now:0.0 ~size:100 hdr);
  ignore (Table.apply t ~now:0.1 ~size:200 hdr);
  Alcotest.(check int) "hits" 2 (Table.hits t);
  Alcotest.(check int) "misses" 0 (Table.misses t);
  match Table.rules t with
  | [ r ] ->
    Alcotest.(check int) "packets" 2 r.packets;
    Alcotest.(check int) "bytes" 300 r.bytes
  | _ -> Alcotest.fail "one rule expected"

let test_miss_counted () =
  let t = Table.create () in
  Table.add t (mk (Pattern.of_field Fields.Tp_dst 443) (Action.forward 1));
  Alcotest.(check bool) "miss" true
    (Table.apply t ~now:0.0 ~size:1 hdr == Table.miss);
  Alcotest.(check int) "miss count" 1 (Table.misses t);
  (* a matched drop rule is an empty group, never the miss sentinel *)
  Table.add t (mk ~priority:0 Pattern.any Action.drop);
  let g = Table.apply t ~now:0.0 ~size:1 hdr in
  Alcotest.(check bool) "drop is not a miss" true (g = [] && g != Table.miss);
  Alcotest.(check int) "still one miss" 1 (Table.misses t)

let test_capacity () =
  let t = Table.create ~capacity:2 () in
  Table.add t (mk ~priority:1 (Pattern.of_field Fields.Tp_dst 1) (Action.forward 1));
  Table.add t (mk ~priority:2 (Pattern.of_field Fields.Tp_dst 2) (Action.forward 1));
  Alcotest.check_raises "full" Table.Table_full (fun () ->
    Table.add t (mk ~priority:3 (Pattern.of_field Fields.Tp_dst 3) (Action.forward 1)))

let test_remove_subsumed () =
  let t = Table.create () in
  Table.add t (mk ~priority:1 (Pattern.of_field Fields.Tp_dst 80) (Action.forward 1));
  Table.add t (mk ~priority:2 (Pattern.of_field Fields.Tp_dst 443) (Action.forward 1));
  Table.add t (mk ~priority:3 (Pattern.of_field Fields.In_port 9) (Action.forward 1));
  (* delete everything matching tp_dst=80 only *)
  Table.remove t ~pattern:(Pattern.of_field Fields.Tp_dst 80);
  Alcotest.(check int) "one gone" 2 (Table.size t);
  Table.remove t ~pattern:Pattern.any;
  Alcotest.(check int) "all gone" 0 (Table.size t)

let test_remove_by_cookie () =
  let t = Table.create () in
  Table.add t
    (Table.make_rule ~priority:1 ~cookie:7 ~pattern:(Pattern.of_field Fields.Tp_dst 80)
       ~actions:(Action.forward 1) ());
  Table.add t
    (Table.make_rule ~priority:2 ~cookie:8 ~pattern:(Pattern.of_field Fields.Tp_dst 443)
       ~actions:(Action.forward 1) ());
  Table.remove ~cookie:7 t ~pattern:Pattern.any;
  Alcotest.(check int) "only cookie 7 gone" 1 (Table.size t);
  match Table.rules t with
  | [ r ] -> Alcotest.(check int) "survivor" 8 r.cookie
  | _ -> Alcotest.fail "one rule"

let test_idle_timeout () =
  let t = Table.create () in
  Table.add t (mk ~idle:(Some 1.0) Pattern.any (Action.forward 1));
  ignore (Table.apply t ~now:0.5 ~size:1 hdr);
  Alcotest.(check int) "kept while active" 0
    (List.length (Table.expire t ~now:1.2));
  Alcotest.(check int) "evicted when idle" 1
    (List.length (Table.expire t ~now:1.6));
  Alcotest.(check int) "table empty" 0 (Table.size t)

(* a table's dead entries: its rule list, in lookup order, through the
   ordered-list analysis *)
let test_shadowed_detection () =
  let t = Table.create () in
  Table.add t (mk ~priority:10 Pattern.any (Action.forward 1));
  let tp80 = Pattern.of_field Fields.Tp_dst 80 in
  Table.add t (mk ~priority:5 tp80 (Action.forward 2));
  let dead =
    Optimize.shadowed
      (List.map
         (fun (r : Table.rule) -> (r.pattern, r.actions))
         (Table.rules t))
  in
  Alcotest.(check int) "shadowed rule found" 1 (List.length dead);
  match dead with
  | [ (pattern, _) ] ->
    Alcotest.(check bool) "the low one" true (pattern = tp80)
  | _ -> Alcotest.fail "expected one"

(* property: lookup returns the max-priority matching rule *)
let prop_lookup_max_priority =
  let gen =
    QCheck.Gen.(
      list_size (1 -- 20)
        (pair (int_bound 10)
           (oneof [ return None; map Option.some (int_bound 3) ])))
  in
  QCheck.Test.make ~name:"lookup returns max-priority matching rule" ~count:200
    (QCheck.make gen)
    (fun specs ->
      let t = Table.create () in
      List.iteri
        (fun i (prio, port_test) ->
          let pattern =
            match port_test with
            | None -> Pattern.any
            | Some p -> Pattern.of_field Fields.In_port p
          in
          Table.add t
            (Table.make_rule ~priority:prio ~cookie:i ~pattern
               ~actions:(Action.forward 1) ()))
        specs;
      let probe = Headers.set hdr Fields.In_port 1 in
      let matching =
        List.filter (fun (r : Table.rule) -> Pattern.matches r.pattern probe)
          (Table.rules t)
      in
      match Table.lookup t probe with
      | None -> matching = []
      | Some r ->
        List.for_all (fun (r' : Table.rule) -> r'.priority <= r.priority)
          matching)

(* directed checks of the flow-cache counters *)
let test_cache_counters () =
  let t = Table.create () in
  Table.add t (mk ~priority:1 Pattern.any (Action.forward 1));
  Alcotest.(check bool) "add invalidates" true (Table.invalidations t > 0);
  ignore (Table.lookup t hdr);
  Alcotest.(check int) "first probe misses" 1 (Table.cache_misses t);
  ignore (Table.lookup t hdr);
  Alcotest.(check int) "second probe hits" 1 (Table.cache_hits t);
  Table.add t
    (mk ~priority:2 (Pattern.of_field Fields.Tp_dst 80) (Action.forward 2));
  ignore (Table.lookup t hdr);
  Alcotest.(check int) "stale after add -> miss" 2 (Table.cache_misses t);
  (match Table.lookup t hdr with
   | Some r -> Alcotest.(check int) "refresh sees new winner" 2 r.priority
   | None -> Alcotest.fail "expected a match");
  Alcotest.(check int) "hit after refresh" 2 (Table.cache_hits t)

(* property: the flow cache never changes lookup results — after every
   mutating operation (add / remove / remove_strict / expire / apply /
   clear, each of which must invalidate), cached lookup agrees with a
   raw linear scan on a battery of probe headers *)
let prop_cache_consistent =
  let gen_op =
    QCheck.Gen.(
      let port = oneof [ return None; map Option.some (int_bound 3) ] in
      oneof
        [ map3
            (fun prio p idle -> `Add (prio, p, idle))
            (int_bound 10) port
            (oneof [ return None; map Option.some (1 -- 3) ]);
          map (fun p -> `Remove p) port;
          map2 (fun prio p -> `Remove_strict (prio, p)) (int_bound 10) port;
          return `Expire;
          map2 (fun p dst -> `Apply (p, dst)) (int_bound 4) (int_bound 4);
          return `Clear ])
  in
  QCheck.Test.make ~name:"flow cache: cached lookup == linear under churn"
    ~count:1200
    (QCheck.make QCheck.Gen.(list_size (5 -- 40) gen_op))
    (fun ops ->
      let t = Table.create () in
      let cookie = ref 0 in
      let now = ref 0.0 in
      let pat = function
        | None -> Pattern.any
        | Some p -> Pattern.of_field Fields.In_port p
      in
      let probes =
        List.map (fun port -> Headers.set hdr Fields.In_port port)
          [ 0; 1; 2; 3; 4 ]
      in
      (* compare winners by cookie: every added rule gets a fresh one *)
      let agree () =
        List.for_all
          (fun h ->
            let key = Option.map (fun (r : Table.rule) -> r.cookie) in
            let reference = key (Table.lookup_linear t h) in
            key (Table.lookup t h) = reference
            && key (Table.lookup_tuple t h) = reference)
          probes
      in
      List.for_all
        (fun op ->
          now := !now +. 1.0;
          (match op with
           | `Add (priority, p, idle) ->
             incr cookie;
             Table.add t
               (Table.make_rule ~priority ~cookie:!cookie ~pattern:(pat p)
                  ~idle_timeout:(Option.map float_of_int idle) ~now:!now
                  ~actions:(Action.forward 1) ())
           | `Remove p -> Table.remove t ~pattern:(pat p)
           | `Remove_strict (priority, p) ->
             Table.remove_strict t ~priority ~pattern:(pat p)
           | `Expire -> ignore (Table.expire t ~now:!now)
           | `Apply (p, dst) ->
             let h =
               Headers.set (Headers.set hdr Fields.In_port p) Fields.Tp_dst dst
             in
             ignore (Table.apply t ~now:!now ~size:100 h)
           | `Clear -> Table.clear t);
          agree ())
        ops)

(* ------------------------------------------------------------------ *)
(* Tuple-space classifier *)

(* shape tables must track add/remove/expire incrementally *)
let test_shape_table_maintenance () =
  let t = Table.create () in
  let dst len s =
    { Pattern.any with
      ip4_dst = Some (Ipv4.Prefix.make (Ipv4.of_string s) len) }
  in
  Table.add t (mk ~priority:1 Pattern.any (Action.forward 1));
  Table.add t (mk ~priority:2 (Pattern.of_field Fields.Tp_dst 80) (Action.forward 2));
  Table.add t (mk ~priority:3 (dst 8 "10.0.0.0") (Action.forward 3));
  Table.add t (mk ~priority:4 (dst 24 "10.0.0.0") (Action.forward 4));
  (* a second rule of an existing shape must not add a shape *)
  Table.add t (mk ~priority:5 (dst 24 "11.2.3.0") (Action.forward 5));
  Alcotest.(check int) "four distinct shapes" 4 (Table.shape_count t);
  Alcotest.(check int) "five rules" 5 (Table.size t);
  (* the /24 shape survives while one of its two rules remains *)
  Table.remove_strict t ~priority:5 ~pattern:(dst 24 "11.2.3.0");
  Alcotest.(check int) "shape kept while populated" 4 (Table.shape_count t);
  Table.remove_strict t ~priority:4 ~pattern:(dst 24 "10.0.0.0");
  Alcotest.(check int) "empty shape dropped" 3 (Table.shape_count t);
  (* expire-driven eviction unfiles rules too *)
  Table.add t (mk ~priority:9 ~idle:(Some 1.0) (Pattern.of_field Fields.In_port 7)
                 (Action.forward 6));
  Alcotest.(check int) "new shape on add" 4 (Table.shape_count t);
  ignore (Table.expire t ~now:5.0);
  Alcotest.(check int) "shape dropped on expiry" 3 (Table.shape_count t);
  Table.clear t;
  Alcotest.(check int) "clear empties shapes" 0 (Table.shape_count t)

(* shapes are probed in descending max-priority order with early exit:
   a hit in the top shape costs one probe regardless of rule or shape
   count; only a miss there falls through to lower-ceiling shapes *)
let test_classifier_probe_cost () =
  let t = Table.create () in
  for i = 1 to 100 do
    Table.add t
      (mk ~priority:i
         { Pattern.any with eth_dst = Some (Mac.of_host_id i) }
         (Action.forward 1))
  done;
  Table.add t (mk ~priority:0 Pattern.any (Action.forward 2));
  Alcotest.(check int) "two shapes for 101 rules" 2 (Table.shape_count t);
  (* hdr's dst_host is 9, matching the eth_dst shape (ceiling 100): that
     shape is probed first and prio 9 > ceiling 0 of the catch-all, so
     the search stops after a single probe *)
  let before = Table.classifier_probes t in
  (match Table.lookup_tuple t hdr with
   | Some r -> Alcotest.(check int) "winner found" 9 r.priority
   | None -> Alcotest.fail "expected a match");
  Alcotest.(check int) "early exit after top shape" 1
    (Table.classifier_probes t - before);
  (* a header outside the eth_dst rules misses the top shape and falls
     through to the catch-all: two probes *)
  let stranger = Headers.set hdr Fields.Eth_dst (Mac.of_host_id 999) in
  let before = Table.classifier_probes t in
  (match Table.lookup_tuple t stranger with
   | Some r -> Alcotest.(check int) "catch-all wins" 0 r.priority
   | None -> Alcotest.fail "expected the catch-all to match");
  Alcotest.(check int) "fallthrough probes both shapes" 2
    (Table.classifier_probes t - before);
  (* removing the ceiling rule of the top shape recomputes its ceiling
     (100 -> 99) without disturbing lookups *)
  Table.remove_strict t ~priority:100
    ~pattern:{ Pattern.any with eth_dst = Some (Mac.of_host_id 100) };
  (match Table.lookup_tuple t hdr with
   | Some r -> Alcotest.(check int) "winner after ceiling removal" 9 r.priority
   | None -> Alcotest.fail "expected a match after removal")

(* longest-prefix-style stacks resolve by priority across shapes *)
let test_classifier_prefix_priorities () =
  let t = Table.create () in
  let dst len s prio out =
    Table.add t
      (mk ~priority:prio
         { Pattern.any with
           ip4_dst = Some (Ipv4.Prefix.make (Ipv4.of_string s) len) }
         (Action.forward out))
  in
  dst 8 "10.0.0.0" 8 1;
  dst 16 "10.0.0.0" 16 2;
  dst 24 "10.0.9.0" 24 3;
  let probe dst_ip =
    let h = Headers.set hdr Fields.Ip4_dst (Ipv4.of_string dst_ip) in
    match Table.lookup_tuple t h with
    | Some r -> r.priority
    | None -> -1
  in
  Alcotest.(check int) "/24 wins" 24 (probe "10.0.9.7");
  Alcotest.(check int) "/16 wins" 16 (probe "10.0.77.1");
  Alcotest.(check int) "/8 wins" 8 (probe "10.200.0.1");
  Alcotest.(check int) "no match" (-1) (probe "11.0.0.1")

(* property: the staged classifier is indistinguishable from the linear
   scan under randomized rules (incl. CIDR prefixes of mixed length),
   headers and churn — same harness as the PR 1 cache test *)
let prop_tuple_space_consistent =
  let gen_pat =
    QCheck.Gen.(
      oneof
        [ return `Any;
          map (fun p -> `Port p) (int_bound 3);
          map (fun d -> `Tp d) (int_bound 3);
          map2 (fun h len -> `Dst (h, len)) (1 -- 4) (oneofl [ 8; 16; 24; 32 ]);
          map2 (fun p h -> `PortDst (p, h)) (int_bound 3) (1 -- 4) ])
  in
  let gen_op =
    QCheck.Gen.(
      oneof
        [ map3
            (fun prio p idle -> `Add (prio, p, idle))
            (int_bound 10) gen_pat
            (oneof [ return None; map Option.some (1 -- 3) ]);
          map (fun p -> `Remove p) gen_pat;
          map2 (fun prio p -> `Remove_strict (prio, p)) (int_bound 10) gen_pat;
          return `Expire;
          map2 (fun p dst -> `Apply (p, dst)) (int_bound 4) (1 -- 5);
          return `Clear ])
  in
  let pat = function
    | `Any -> Pattern.any
    | `Port p -> Pattern.of_field Fields.In_port p
    | `Tp d -> Pattern.of_field Fields.Tp_dst d
    | `Dst (h, len) ->
      { Pattern.any with
        ip4_dst = Some (Ipv4.Prefix.make (Ipv4.of_host_id h) len) }
    | `PortDst (p, h) ->
      { Pattern.any with
        in_port = Some p;
        ip4_dst = Some (Ipv4.Prefix.host (Ipv4.of_host_id h)) }
  in
  QCheck.Test.make ~name:"tuple-space lookup == linear scan under churn"
    ~count:1200
    (QCheck.make QCheck.Gen.(list_size (5 -- 40) gen_op))
    (fun ops ->
      let t = Table.create () in
      let cookie = ref 0 in
      let now = ref 0.0 in
      let probes =
        List.concat_map
          (fun port ->
            List.map
              (fun dst ->
                Headers.set
                  (Headers.set hdr Fields.In_port port)
                  Fields.Ip4_dst (Ipv4.of_host_id dst))
              [ 1; 2; 3; 4; 5 ])
          [ 0; 1; 2 ]
      in
      let agree () =
        List.for_all
          (fun h ->
            let key = Option.map (fun (r : Table.rule) -> r.cookie) in
            let reference = key (Table.lookup_linear t h) in
            key (Table.lookup_tuple t h) = reference
            && key (Table.lookup t h) = reference)
          probes
      in
      List.for_all
        (fun op ->
          now := !now +. 1.0;
          (match op with
           | `Add (priority, p, idle) ->
             incr cookie;
             Table.add t
               (Table.make_rule ~priority ~cookie:!cookie ~pattern:(pat p)
                  ~idle_timeout:(Option.map float_of_int idle) ~now:!now
                  ~actions:(Action.forward 1) ())
           | `Remove p -> Table.remove t ~pattern:(pat p)
           | `Remove_strict (priority, p) ->
             Table.remove_strict t ~priority ~pattern:(pat p)
           | `Expire -> ignore (Table.expire t ~now:!now)
           | `Apply (p, dst) ->
             let h =
               Headers.set
                 (Headers.set hdr Fields.In_port p)
                 Fields.Ip4_dst (Ipv4.of_host_id dst)
             in
             ignore (Table.apply t ~now:!now ~size:100 h)
           | `Clear -> Table.clear t);
          agree ())
        ops)

(* ------------------------------------------------------------------ *)
(* cache overflow *)

(* one hot header re-probed between a stream of cold ones — the access
   pattern where wholesale reset loses and per-entry eviction wins.  The
   tp_dst rule puts tp_dst in every megaflow mask, so each cold header
   needs an entry of its own. *)
let churn_cache () =
  let t = Table.create ~cache_entries:8 () in
  Table.add t (mk Pattern.any (Action.forward 1));
  Table.add t
    (mk ~priority:5 (Pattern.of_field Fields.Tp_dst 0) (Action.forward 2));
  let h i = Headers.set hdr Fields.Tp_dst i in
  let hot = h 1 in
  ignore (Table.lookup t hot);
  for i = 2 to 200 do
    ignore (Table.lookup t (h i));
    ignore (Table.lookup t hot)
  done;
  t

let test_clock_eviction_bounds () =
  let t = churn_cache () in
  Alcotest.(check bool) "cache bounded" true (Table.cache_size t <= 8);
  Alcotest.(check bool) "evicts per entry" true (Table.cache_evictions t > 0);
  (* the hot entry must be resident after all that churn *)
  let hits = Table.cache_hits t in
  (match Table.lookup t (Headers.set hdr Fields.Tp_dst 1) with
   | Some r -> Alcotest.(check int) "still correct" 0 r.priority
   | None -> Alcotest.fail "hot header must match");
  Alcotest.(check int) "hot entry survives churn" (hits + 1)
    (Table.cache_hits t)

let test_clock_consistent_under_eviction () =
  (* a tiny cache forces constant eviction; verdicts must still agree
     with the linear reference, mutations included *)
  let t = Table.create ~cache_entries:2 () in
  let h i = Headers.set hdr Fields.Tp_dst i in
  Table.add t (mk ~priority:1 Pattern.any (Action.forward 1));
  Table.add t
    (mk ~priority:5 (Pattern.of_field Fields.Tp_dst 3) (Action.forward 2));
  for round = 0 to 2 do
    if round = 1 then
      Table.add t
        (mk ~priority:9 (Pattern.of_field Fields.Tp_dst 5) (Action.forward 3));
    if round = 2 then
      Table.remove t ~pattern:(Pattern.of_field Fields.Tp_dst 3);
    for i = 0 to 40 do
      let probe = h (i mod 7) in
      let key = Option.map (fun (r : Table.rule) -> r.priority) in
      Alcotest.(check (option int))
        (Printf.sprintf "round %d probe %d" round i)
        (key (Table.lookup_linear t probe))
        (key (Table.lookup t probe))
    done
  done

(* ------------------------------------------------------------------ *)
(* Megaflow cache *)

(* a destination-only table: one megaflow entry serves every source
   port, so a stream of fresh ports misses once *)
let test_megaflow_fresh_ports () =
  let t = Table.create () in
  Table.add t
    (mk ~priority:1
       { Pattern.any with ip4_dst = Some (Ipv4.Prefix.host hdr.ip4_dst) }
       (Action.forward 1));
  for port = 1 to 1000 do
    match Table.lookup t { hdr with tp_src = port } with
    | Some r -> Alcotest.(check int) "winner" 1 r.priority
    | None -> Alcotest.fail "destination rule must match"
  done;
  Alcotest.(check int) "one miss" 1 (Table.cache_misses t);
  Alcotest.(check int) "999 hits" 999 (Table.cache_hits t);
  Alcotest.(check int) "one entry" 1 (Table.cache_size t)

(* [Gc.minor_words] is unboxed in native code, so the loop's own
   allocation is all it measures; any per-hit allocation is >= 2 words *)
let test_megaflow_hit_allocates_nothing () =
  let t = Table.create () in
  Table.add t
    (mk ~priority:3
       { Pattern.any with
         ip4_dst = Some (Ipv4.Prefix.make hdr.ip4_dst 24) }
       (Action.forward 1));
  Table.add t
    (mk ~priority:2
       { Pattern.any with in_port = Some 7; tp_dst = Some 80 }
       (Action.forward 2));
  Table.add t (mk Pattern.any (Action.forward 3));
  let miss = { hdr with ip4_dst = Ipv4.of_string "192.168.0.1" } in
  ignore (Table.lookup t hdr);
  ignore (Table.lookup t miss);
  let hits = Table.cache_hits t in
  let before = Gc.minor_words () in
  for _ = 1 to 5_000 do
    ignore (Sys.opaque_identity (Table.lookup t hdr));
    ignore (Sys.opaque_identity (Table.lookup t miss))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all hits" (hits + 10_000) (Table.cache_hits t);
  Alcotest.(check int) "words per hit" 0 (int_of_float (words /. 10_000.0))

let test_megaflow_mask_bound () =
  let t = Table.create () in
  ignore (Table.lookup t hdr);
  Alcotest.(check int) "an empty table caches under one mask" 1
    (Table.mask_count t);
  let dst len =
    { Pattern.any with ip4_dst = Some (Ipv4.Prefix.make hdr.ip4_dst len) }
  in
  Table.add t (mk ~priority:9 (dst 32) (Action.forward 1));
  Table.add t (mk ~priority:8 (dst 24) (Action.forward 2));
  Table.add t (mk ~priority:7 (Pattern.of_field Fields.In_port 3) (Action.forward 3));
  Table.add t (mk ~priority:6 (Pattern.of_field Fields.Tp_dst 22) (Action.forward 4));
  Alcotest.(check int) "mutation clears the masks" 0 (Table.mask_count t);
  let prng = Util.Prng.create 3 in
  for _ = 1 to 2000 do
    let h =
      { hdr with
        in_port = Util.Prng.int prng 5;
        (* hdr's address, a neighbour in its /24, or one outside it *)
        ip4_dst =
          hdr.ip4_dst lxor Util.Prng.int prng 2
          lxor (Util.Prng.int prng 2 lsl 8);
        tp_src = Util.Prng.int prng 1000;
        tp_dst = 20 + Util.Prng.int prng 4 }
    in
    ignore (Table.lookup t h);
    if Table.mask_count t > max 1 (Table.shape_count t) then
      Alcotest.failf "%d masks over %d shapes" (Table.mask_count t)
        (Table.shape_count t)
  done;
  (* the probe order's prefixes give four unions, but /32 ∪ /24 is the
     /32 mask itself *)
  Alcotest.(check int) "one mask per distinct union" 3 (Table.mask_count t)

(* property: the megaflow cache answers like the linear scan on
   multi-shape tables — in_port, exact fields, source and destination
   prefixes of several lengths, equal-priority ties — with modify,
   delete and expiry between lookups.  Headers also vary tp_src and
   eth_src, which no rule constrains, so entries are shared. *)
let prop_megaflow_consistent ?cache_entries name =
  let open QCheck.Gen in
  let addr =
    map3 (fun a b c -> Ipv4.of_octets 10 a b c) (int_bound 1) (int_bound 1)
      (1 -- 2)
  in
  let prefix = opt (map2 Ipv4.Prefix.make addr (oneofl [ 8; 16; 24; 32 ])) in
  let gen_pat =
    map
      (fun ((in_port, ip_proto, tp_dst), (ip4_src, ip4_dst)) ->
        { Pattern.any with in_port; ip_proto; tp_dst; ip4_src; ip4_dst })
      (pair
         (triple (opt (int_bound 2)) (opt (oneofl [ 6; 17 ]))
            (opt (oneofl [ 80; 443 ])))
         (pair prefix prefix))
  in
  let gen_hdr =
    map
      (fun ((in_port, ip_proto, tp_dst), (ip4_src, ip4_dst), (tp_src, eth_src)) ->
        { hdr with in_port; ip_proto; tp_dst; ip4_src; ip4_dst; tp_src;
          eth_src })
      (triple
         (triple (int_bound 2) (oneofl [ 6; 17 ]) (oneofl [ 80; 443 ]))
         (pair addr addr)
         (pair (int_bound 1000) (int_bound 3)))
  in
  let gen_op =
    frequency
      [ (4,
         map3
           (fun prio p idle -> `Add (prio, p, idle))
           (int_bound 3) gen_pat
           (opt (1 -- 4)));
        (2, map (fun i -> `Modify i) nat);
        (1, map (fun p -> `Remove p) gen_pat);
        (1, map (fun i -> `Remove_strict i) nat);
        (1, return `Expire);
        (4, map (fun hs -> `Apply hs) (list_size (1 -- 8) gen_hdr)) ]
  in
  QCheck.Test.make ~name ~count:400
    (QCheck.make
       (pair (list_size (5 -- 40) gen_op) (list_size (4 -- 12) gen_hdr)))
    (fun (ops, probes) ->
      let t = Table.create ?cache_entries () in
      let cookie = ref 0 in
      let now = ref 0.0 in
      let key = Option.map (fun (r : Table.rule) -> r.cookie) in
      let agree h = key (Table.lookup t h) = key (Table.lookup_linear t h) in
      let nth_rule i =
        match Table.rules t with
        | [] -> None
        | rules -> Some (List.nth rules (i mod List.length rules))
      in
      List.for_all
        (fun op ->
          now := !now +. 1.0;
          incr cookie;
          (match op with
           | `Add (priority, pattern, idle) ->
             Table.add t
               (Table.make_rule ~priority ~cookie:!cookie ~pattern
                  ~idle_timeout:(Option.map float_of_int idle) ~now:!now
                  ~actions:(Action.forward 1) ())
           | `Modify i ->
             Option.iter
               (fun (r : Table.rule) ->
                 Table.add t
                   (Table.make_rule ~priority:r.priority ~cookie:!cookie
                      ~pattern:r.pattern ~actions:(Action.forward 2) ()))
               (nth_rule i)
           | `Remove pattern -> Table.remove t ~pattern
           | `Remove_strict i ->
             Option.iter
               (fun (r : Table.rule) ->
                 Table.remove_strict t ~priority:r.priority ~pattern:r.pattern)
               (nth_rule i)
           | `Expire -> ignore (Table.expire t ~now:!now)
           | `Apply hs ->
             List.iter
               (fun h -> ignore (Table.apply t ~now:!now ~size:100 h))
               hs);
          List.for_all agree probes
          && Table.mask_count t <= max 1 (Table.shape_count t))
        ops)

(* property: a cache entry is keyed on exactly the fields and bits its
   mask keeps.  Rules mix [in_port], [eth_dst], [tp_dst] and [ip4_dst]
   prefixes of /8, /16, /24 and /32, so a mask keeps several fields and
   part of an address; probe addresses share their first one, two or
   three octets, so they agree on some kept prefixes and not on others,
   and [tp_src], which no rule constrains, varies so entries are shared.
   Under add/remove/expire/clear churn, every probe, looked up twice
   (the second time a hit), gets the linear scan's and the classifier's
   winner. *)
let prop_kept_field_key =
  let open QCheck.Gen in
  let addr =
    map3 (fun b c d -> Ipv4.of_octets 10 b c d) (int_bound 1) (int_bound 1)
      (1 -- 2)
  in
  let gen_pat =
    map
      (fun ((in_port, eth_dst), (tp_dst, ip4_dst)) ->
        { Pattern.any with
          in_port; eth_dst; tp_dst;
          ip4_dst =
            Option.map (fun (a, len) -> Ipv4.Prefix.make a len) ip4_dst })
      (pair
         (pair (opt (int_bound 2)) (opt (map Mac.of_host_id (1 -- 2))))
         (pair (opt (oneofl [ 80; 443 ]))
            (opt (pair addr (oneofl [ 8; 16; 24; 32 ])))))
  in
  let gen_hdr =
    map
      (fun ((in_port, eth_dst), (tp_dst, ip4_dst, tp_src)) ->
        { hdr with in_port; eth_dst; tp_dst; ip4_dst; tp_src })
      (pair
         (pair (int_bound 2) (map Mac.of_host_id (1 -- 2)))
         (triple (oneofl [ 80; 443 ]) addr (int_bound 1000)))
  in
  let gen_op =
    frequency
      [ (4,
         map3
           (fun prio p idle -> `Add (prio, p, idle))
           (int_bound 3) gen_pat (opt (1 -- 4)));
        (1, map (fun p -> `Remove p) gen_pat);
        (1, return `Expire);
        (1, return `Clear);
        (3, map (fun hs -> `Apply hs) (list_size (1 -- 8) gen_hdr)) ]
  in
  QCheck.Test.make ~name:"kept-field cache key == tuple == linear under churn"
    ~count:500
    (QCheck.make
       (pair (list_size (5 -- 40) gen_op) (list_size (4 -- 16) gen_hdr)))
    (fun (ops, probes) ->
      let t = Table.create () in
      let cookie = ref 0 and now = ref 0.0 in
      let key = Option.map (fun (r : Table.rule) -> r.cookie) in
      let agree h =
        let reference = key (Table.lookup_linear t h) in
        key (Table.lookup_tuple t h) = reference
        && key (Table.lookup t h) = reference
        && key (Table.lookup t h) = reference
      in
      List.for_all
        (fun op ->
          now := !now +. 1.0;
          (match op with
           | `Add (priority, pattern, idle) ->
             incr cookie;
             Table.add t
               (Table.make_rule ~priority ~cookie:!cookie ~pattern
                  ~idle_timeout:(Option.map float_of_int idle) ~now:!now
                  ~actions:(Action.forward 1) ())
           | `Remove pattern -> Table.remove t ~pattern
           | `Expire -> ignore (Table.expire t ~now:!now)
           | `Clear -> Table.clear t
           | `Apply hs ->
             List.iter
               (fun h -> ignore (Table.apply t ~now:!now ~size:100 h))
               hs);
          List.for_all agree probes)
        ops)

(* property: the located lookup [apply_at ~switch ~in_port h] is
   [apply { h with switch; in_port }] — same verdict, same hit/miss and
   cache counters, same per-rule packet counts — on random multi-shape
   tables whose rules constrain [in_port], under churn, with every
   probe looked up twice so the second pass hits a warm cache.  The
   located side's headers carry a stale location (the sender's), so a
   hit path that read [h.in_port] instead of its argument would answer
   another port's verdict. *)
let prop_located_lookup =
  let open QCheck.Gen in
  let gen_pat =
    map
      (fun ((in_port, tp_dst), ip4_dst) ->
        { Pattern.any with
          in_port; tp_dst;
          ip4_dst =
            Option.map
              (fun (h, len) -> Ipv4.Prefix.make (Ipv4.of_host_id h) len)
              ip4_dst })
      (pair
         (pair (opt (int_bound 3)) (opt (oneofl [ 80; 443 ])))
         (opt (pair (1 -- 3) (oneofl [ 16; 32 ]))))
  in
  (* a probe: headers with a stale location, and where the packet is *)
  let gen_probe =
    map
      (fun ((stale_sw, stale_port), (sw, port), (dst, tp_dst, tp_src)) ->
        ( { hdr with
            switch = stale_sw; in_port = stale_port;
            ip4_dst = Ipv4.of_host_id dst; tp_dst; tp_src },
          sw, port ))
      (triple
         (pair (int_bound 3) (int_bound 3))
         (pair (int_bound 3) (int_bound 3))
         (triple (1 -- 3) (oneofl [ 80; 443 ]) (int_bound 1000)))
  in
  let gen_op =
    frequency
      [ (3, map2 (fun prio p -> `Add (prio, p)) (int_bound 3) gen_pat);
        (1, map (fun p -> `Remove p) gen_pat);
        (4, map (fun ps -> `Lookup ps) (list_size (1 -- 10) gen_probe)) ]
  in
  QCheck.Test.make ~name:"located lookup == apply on the located header"
    ~count:400
    (QCheck.make (list_size (5 -- 40) gen_op))
    (fun ops ->
      let located = Table.create () and reference = Table.create () in
      let cookie = ref 0 and now = ref 0.0 in
      let counters t =
        ( (Table.hits t, Table.misses t),
          (Table.cache_hits t, Table.cache_misses t),
          List.map (fun (r : Table.rule) -> (r.cookie, r.packets))
            (Table.rules t) )
      in
      let same_verdict a b =
        if a == Table.miss || b == Table.miss then
          a == Table.miss && b == Table.miss
        else a = b
      in
      List.for_all
        (fun op ->
          now := !now +. 1.0;
          (match op with
           | `Add (priority, pattern) ->
             incr cookie;
             List.iter
               (fun t ->
                 Table.add t
                   (Table.make_rule ~priority ~cookie:!cookie ~pattern
                      ~actions:(Action.forward !cookie) ()))
               [ located; reference ];
             true
           | `Remove pattern ->
             Table.remove located ~pattern;
             Table.remove reference ~pattern;
             true
           | `Lookup probes ->
             let pass () =
               List.for_all
                 (fun ((h : Headers.t), switch, in_port) ->
                   same_verdict
                     (Table.apply_at located ~now:!now ~size:100 ~switch
                        ~in_port h)
                     (Table.apply reference ~now:!now ~size:100
                        { h with switch; in_port }))
                 probes
             in
             (* the first pass fills the caches, the second hits them *)
             pass () && pass ())
          && counters located = counters reference)
        ops)

(* ------------------------------------------------------------------ *)
(* Strict delete (the wire roundtrip is in test_openflow.ml) *)

let test_strict_delete_table () =
  let t = Flow.Table.create () in
  let gen = Flow.Pattern.of_field Fields.Tp_dst 80 in
  let spec =
    Option.get (Flow.Pattern.conj gen (Flow.Pattern.of_field Fields.In_port 2))
  in
  Flow.Table.add t
    (Flow.Table.make_rule ~priority:5 ~pattern:gen ~actions:(Flow.Action.forward 1) ());
  Flow.Table.add t
    (Flow.Table.make_rule ~priority:3 ~pattern:spec ~actions:(Flow.Action.forward 2) ());
  (* non-strict delete by the general pattern would remove both *)
  Flow.Table.remove_strict t ~priority:5 ~pattern:gen;
  Alcotest.(check int) "only the exact rule gone" 1 (Flow.Table.size t);
  (* wrong priority: no-op *)
  Flow.Table.remove_strict t ~priority:99 ~pattern:spec;
  Alcotest.(check int) "priority must match" 1 (Flow.Table.size t)

(* ------------------------------------------------------------------ *)
(* Optimizer *)

(* rule lists are ordered: the first matching rule decides *)

let test_optimize_removes_shadowed () =
  let rules =
    [ (Flow.Pattern.any, Flow.Action.forward 1);
      (Flow.Pattern.of_field Fields.Tp_dst 80, Flow.Action.forward 2) ]
  in
  let out = Flow.Optimize.minimize rules in
  Alcotest.(check int) "shadowed removed" 1 (List.length out);
  Alcotest.(check bool) "the any rule survives" true
    (fst (List.hd out) = Flow.Pattern.any)

let test_optimize_removes_redundant () =
  (* specific rule with same action as the catch-all below it *)
  let rules =
    [ (Flow.Pattern.of_field Fields.Tp_dst 80, Flow.Action.forward 1);
      (Flow.Pattern.any, Flow.Action.forward 1) ]
  in
  Alcotest.(check int) "redundant removed" 1
    (List.length (Flow.Optimize.minimize rules))

let test_optimize_keeps_blocked_redundancy () =
  (* same-action pair separated by a conflicting overlapping rule: the
     top rule is NOT redundant (removing it would expose tp80+port1
     packets to the drop rule) *)
  let rules =
    [ (Flow.Pattern.of_field Fields.Tp_dst 80, Flow.Action.forward 1);
      (Flow.Pattern.of_field Fields.In_port 1, Flow.Action.drop);
      (Flow.Pattern.any, Flow.Action.forward 1) ]
  in
  Alcotest.(check int) "nothing removed" 3
    (List.length (Flow.Optimize.minimize rules))

let probe_headers =
  List.concat_map
    (fun port ->
      List.map
        (fun tp ->
          { Headers.default with in_port = port; tp_dst = tp; eth_type = 1 })
        [ 0; 1; 2; 3; 80 ])
    [ 0; 1; 2; 3 ]

let prop_optimize_preserves_semantics =
  QCheck.Test.make ~name:"minimize preserves lookup semantics" ~count:300
    (QCheck.make
       QCheck.Gen.(
         list_size (0 -- 25)
           (pair
              (oneof
                 [ return Flow.Pattern.any;
                   map (Flow.Pattern.of_field Fields.Tp_dst) (int_bound 3);
                   map (Flow.Pattern.of_field Fields.In_port) (int_bound 3);
                   map2
                     (fun a b ->
                       match
                         Flow.Pattern.conj
                           (Flow.Pattern.of_field Fields.Tp_dst a)
                           (Flow.Pattern.of_field Fields.In_port b)
                       with
                       | Some p -> p
                       | None -> Flow.Pattern.any)
                     (int_bound 3) (int_bound 3) ])
              (int_bound 2))))
    (fun specs ->
      let rules =
        List.map
          (fun (pattern, act) ->
            ( pattern,
              if act = 0 then Flow.Action.drop else Flow.Action.forward act ))
          specs
      in
      let out = Flow.Optimize.minimize rules in
      List.length out <= List.length rules
      && List.for_all
           (fun h ->
             Flow.Optimize.lookup rules h = Flow.Optimize.lookup out h)
           probe_headers)

let suites =
  [ ( "flow.pattern",
      [ Alcotest.test_case "any" `Quick test_any_matches;
        Alcotest.test_case "exact fields" `Quick test_exact_fields;
        Alcotest.test_case "switch not matchable" `Quick
          test_switch_not_matchable;
        Alcotest.test_case "prefix matching" `Quick test_prefix_pattern;
        Alcotest.test_case "conjunction" `Quick test_conj;
        Alcotest.test_case "prefix conjunction" `Quick test_conj_prefixes;
        Alcotest.test_case "subsumption" `Quick test_subsumes;
        Alcotest.test_case "overlap" `Quick test_overlap ] );
    ( "flow.action",
      [ Alcotest.test_case "sequence semantics" `Quick test_apply_seq;
        Alcotest.test_case "multicast group" `Quick test_apply_group_multicast;
        Alcotest.test_case "mods after output ignored" `Quick
          test_mods_before_output_only;
        Alcotest.test_case "drop" `Quick test_drop_group ] );
    ( "flow.table",
      [ Alcotest.test_case "priority order" `Quick test_priority_order;
        Alcotest.test_case "tie break" `Quick test_tie_break_first_installed;
        Alcotest.test_case "modify replaces" `Quick test_modify_semantics;
        Alcotest.test_case "modify preserves counters" `Quick
          test_modify_preserves_counters;
        Alcotest.test_case "no-op delete keeps cache" `Quick
          test_noop_delete_keeps_cache;
        Alcotest.test_case "counters" `Quick test_counters;
        Alcotest.test_case "miss counted" `Quick test_miss_counted;
        Alcotest.test_case "capacity" `Quick test_capacity;
        Alcotest.test_case "delete subsumed" `Quick test_remove_subsumed;
        Alcotest.test_case "delete by cookie" `Quick test_remove_by_cookie;
        Alcotest.test_case "idle timeout" `Quick test_idle_timeout;
        Alcotest.test_case "shadow detection" `Quick test_shadowed_detection;
        Alcotest.test_case "cache counters" `Quick test_cache_counters;
        Alcotest.test_case "clock eviction bounds cache" `Quick
          test_clock_eviction_bounds;
        Alcotest.test_case "consistent under eviction" `Quick
          test_clock_consistent_under_eviction;
        QCheck_alcotest.to_alcotest prop_lookup_max_priority;
        QCheck_alcotest.to_alcotest prop_cache_consistent;
        QCheck_alcotest.to_alcotest prop_located_lookup ] );
    ( "flow.classifier",
      [ Alcotest.test_case "shape table maintenance" `Quick
          test_shape_table_maintenance;
        Alcotest.test_case "probe cost is per-shape" `Quick
          test_classifier_probe_cost;
        Alcotest.test_case "prefix stacks resolve by priority" `Quick
          test_classifier_prefix_priorities;
        QCheck_alcotest.to_alcotest prop_tuple_space_consistent ] );
    ( "flow.megaflow",
      [ Alcotest.test_case "fresh ports share one entry" `Quick
          test_megaflow_fresh_ports;
        Alcotest.test_case "a hit allocates nothing" `Quick
          test_megaflow_hit_allocates_nothing;
        Alcotest.test_case "masks bounded by shapes" `Quick
          test_megaflow_mask_bound;
        QCheck_alcotest.to_alcotest
          (prop_megaflow_consistent ~cache_entries:2
             "megaflow == linear, 2-entry cache");
        QCheck_alcotest.to_alcotest
          (prop_megaflow_consistent "megaflow == linear, default cache");
        QCheck_alcotest.to_alcotest prop_kept_field_key ] );
    ( "flow.strict_delete",
      [ Alcotest.test_case "table semantics" `Quick test_strict_delete_table;
        Alcotest.test_case "wire roundtrip" `Quick
          Test_openflow.test_strict_delete_wire ] );
    ( "flow.optimize",
      [ Alcotest.test_case "removes shadowed" `Quick
          test_optimize_removes_shadowed;
        Alcotest.test_case "removes redundant" `Quick
          test_optimize_removes_redundant;
        Alcotest.test_case "keeps blocked redundancy" `Quick
          test_optimize_keeps_blocked_redundancy;
        QCheck_alcotest.to_alcotest prop_optimize_preserves_semantics ] ) ]
