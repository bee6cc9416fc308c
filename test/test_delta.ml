(* Incremental delta recompilation ({!Netkat.Delta}): uid certificates
   skip untouched switches, structural fallback survives cache clears,
   and delta-maintained tables stay byte-equal to a from-scratch compile
   at every step of a churn sequence. *)

open Packet
module Syntax = Netkat.Syntax
module Fdd = Netkat.Fdd
module Local = Netkat.Local
module Delta = Netkat.Delta

let triples rules =
  List.map (fun (r : Local.rule) -> (r.priority, r.pattern, r.actions)) rules

(* ------------------------------------------------------------------ *)
(* Directed *)

let test_edit_skips_other_switches () =
  let topo = Topo.Gen.linear ~switches:4 ~hosts_per_switch:2 () in
  let switches = Topo.Topology.switch_ids topo in
  let base = Fdd.of_policy (Netkat.Builder.routing_policy topo) in
  let r0 = Delta.compile ~switches None base in
  Alcotest.(check int) "first compile re-derives everything"
    (List.length switches) r0.rederived;
  (* drop one destination at switch 2 only *)
  let guard =
    Syntax.filter
      (Syntax.neg
         (Syntax.conj
            (Syntax.test Fields.Switch 2)
            (Syntax.test Fields.Eth_dst (Mac.of_host_id 1))))
  in
  let edited = Fdd.seq (Fdd.of_policy guard) base in
  let r1 = Delta.compile ~switches (Some r0.snapshot) edited in
  Alcotest.(check int) "all other switches skipped"
    (List.length switches - 1) r1.skipped;
  Alcotest.(check int) "one switch re-derived" 1 r1.rederived;
  List.iter
    (fun (sw, change) ->
      match (change : Delta.change) with
      | Delta.Unchanged ->
        Alcotest.(check bool) "switch 2 must not be Unchanged" false (sw = 2)
      | Delta.Changed _ -> Alcotest.(check int) "only switch 2 changed" 2 sw)
    r1.changes;
  (* the new snapshot's tables are byte-equal to a from-scratch compile *)
  List.iter
    (fun (sw, rules) ->
      Alcotest.(check bool)
        (Printf.sprintf "switch %d equals scratch" sw)
        true
        (Delta.find r1.snapshot sw = Some rules))
    (Local.rules_of_fdd_all ~switches edited)

let test_clear_cache_structural_fallback () =
  let topo = Topo.Gen.linear ~switches:3 ~hosts_per_switch:1 () in
  let switches = Topo.Topology.switch_ids topo in
  let pol = Netkat.Builder.routing_policy topo in
  let r0 = Delta.compile ~switches None (Fdd.of_policy pol) in
  (* a cache clear wipes the hash-cons tables: re-deriving the same
     policy yields fresh uids, so the uid fast path misses — the
     structural rule comparison must still report every switch
     unchanged and push nothing *)
  Fdd.clear_cache ();
  let r1 = Delta.compile ~switches (Some r0.snapshot) (Fdd.of_policy pol) in
  Alcotest.(check int) "no uid certificate survives the clear" 0 r1.skipped;
  Alcotest.(check int) "no switch re-reported as changed" 0 r1.rederived;
  Alcotest.(check int) "no adds" 0 r1.n_adds;
  Alcotest.(check int) "no deletes" 0 r1.n_deletes;
  (* the refreshed certificates work again: same diagram, all-skip *)
  let fdd = Fdd.of_policy pol in
  let r2 = Delta.compile ~switches (Some r1.snapshot) fdd in
  Alcotest.(check int) "refreshed uids certify" 0 r2.rederived

let test_new_switch_appears_and_leaves () =
  let topo = Topo.Gen.linear ~switches:3 ~hosts_per_switch:1 () in
  let pol = Netkat.Builder.routing_policy topo in
  let fdd = Fdd.of_policy pol in
  let r0 = Delta.compile ~switches:[ 1; 2 ] None fdd in
  let r1 = Delta.compile ~switches:[ 1; 2; 3 ] (Some r0.snapshot) fdd in
  Alcotest.(check int) "known switches skipped" 2 r1.skipped;
  (match List.assoc 3 r1.changes with
   | Delta.Changed { rules; adds; deletes } ->
     Alcotest.(check bool) "new switch: full table as adds" true (adds = rules);
     Alcotest.(check int) "new switch: no deletes" 0 (List.length deletes)
   | Delta.Unchanged -> Alcotest.fail "new switch reported Unchanged");
  (* a switch dropped from the set leaves the snapshot *)
  let r2 = Delta.compile ~switches:[ 1; 2 ] (Some r1.snapshot) fdd in
  Alcotest.(check bool) "departed switch forgotten" true
    (Delta.find r2.snapshot 3 = None)

let test_diff_rules () =
  let mk priority tp actions =
    { Local.priority; pattern = { Flow.Pattern.any with tp_dst = Some tp };
      actions }
  in
  let old_rules =
    [ mk 3 1 (Flow.Action.forward 1); mk 2 2 (Flow.Action.forward 2);
      mk 1 3 [] ]
  in
  let new_rules =
    [ mk 3 1 (Flow.Action.forward 9) (* actions changed -> modify *);
      mk 2 2 (Flow.Action.forward 2) (* identical -> nothing *);
      mk 1 4 [] (* new key -> add; old (1, tp=3) -> strict delete *) ]
  in
  let adds, deletes = Delta.diff_rules old_rules new_rules in
  Alcotest.(check bool) "adds = changed + new" true
    (triples adds
     = triples [ mk 3 1 (Flow.Action.forward 9); mk 1 4 [] ]);
  Alcotest.(check bool) "deletes = vanished keys" true
    (triples deletes = triples [ mk 1 3 [] ])

(* a seeded trace of 8 stacked edits, Seq (guard, Seq (guard, ... base)),
   installed on a live fat-tree k=4 through [Zen.install_fdd]'s in-place
   table edits: after every edit each switch's table equals a
   from-scratch compile, and each edit's compile adds at most 120 branch
   nodes on average (one that sequences the guard with the whole base
   measured 607 per edit) *)
let test_zen_stacked_churn () =
  Fdd.clear_cache ();
  let topo, _ = Topo.Gen.fat_tree ~k:4 () in
  let switches = Topo.Topology.switch_ids topo in
  let base = Netkat.Builder.routing_policy topo in
  let net = Zen.create topo in
  ignore (Zen.install_fdd net (Fdd.of_policy base));
  let branches () =
    let _, b, _, _ = Fdd.cache_stats () in
    b
  in
  let edits = Scenarios.churn_edits ~seed:7 ~edits:8 topo in
  let pol = ref base and grown = ref 0 in
  List.iteri
    (fun i edit ->
      pol := Scenarios.apply_edit !pol edit;
      let before = branches () in
      let next = Fdd.of_policy !pol in
      grown := !grown + branches () - before;
      ignore (Zen.install_fdd net next);
      Alcotest.(check bool)
        (Printf.sprintf "live tables = scratch compile after edit %d" (i + 1))
        true
        (Scenarios.live_tables net switches
         = Scenarios.scratch_tables next switches))
    edits;
  let per_edit = !grown / List.length edits in
  Alcotest.(check bool)
    (Printf.sprintf "%d new branch nodes per edit <= 120" per_edit)
    true (per_edit <= 120)

(* one seeded edit on a >= 4000-rule fat-tree k=8 deployment ships at
   least 2x fewer flow-mod bytes as a delta than re-pushing every table
   (delete-all + every rule + barrier per switch) *)
let test_k8_edit_bytes () =
  let total_rules, full_b, delta_b, _ =
    Scenarios.churn_accounting ~k:8 ~seed:42 ~edits:1
  in
  (* drop the k=8 diagrams: later tests need not carry them in the heap *)
  Fdd.clear_cache ();
  Alcotest.(check bool)
    (Printf.sprintf "%d rules deployed >= 4000" total_rules)
    true (total_rules >= 4000);
  Alcotest.(check bool)
    (Printf.sprintf "delta %d B x 2 <= full %d B" delta_b full_b)
    true
    (delta_b * 2 <= full_b)

(* ------------------------------------------------------------------ *)
(* Property: a churn sequence maintained by deltas is byte-equal to a
   from-scratch compile at every step — at 1 and 4 domains, with and
   without interleaved cache clears *)

let apply_change old_rules = function
  | Delta.Unchanged -> old_rules
  | Delta.Changed { adds; deletes; _ } ->
    let key (r : Local.rule) = (r.priority, r.pattern) in
    let dead = List.map key deletes @ List.map key adds in
    adds @ List.filter (fun r -> not (List.mem (key r) dead)) old_rules

let prop_churn ~clears name =
  QCheck.Test.make ~name ~count:25
    (QCheck.make
       ~print:(fun pols ->
         String.concat " ;; " (List.map Syntax.pol_to_string pols))
       (QCheck.Gen.list_size (QCheck.Gen.int_range 2 5)
          Test_netkat.local_pol_gen))
    (fun pols ->
      let switches = [ 0; 1; 2; 3 ] in
      (* cumulative edits: step i's diagram shares structure with
         step i-1's, like a real churn stream *)
      let steps =
        List.fold_left
          (fun acc p ->
            match acc with
            | [] -> [ p ]
            | prev :: _ -> Syntax.union prev p :: acc)
          [] pols
        |> List.rev
      in
      let tables = Hashtbl.create 8 in
      let snap = ref None in
      List.iteri
        (fun i pol ->
          if clears && i mod 2 = 1 then Fdd.clear_cache ();
          let fdd = Fdd.of_policy pol in
          let result = Delta.compile ~switches !snap fdd in
          snap := Some result.snapshot;
          List.iter
            (fun (sw, change) ->
              let old_rules =
                Option.value ~default:[] (Hashtbl.find_opt tables sw)
              in
              (match (change : Delta.change) with
               | Delta.Unchanged -> ()
               | Delta.Changed { rules; _ } ->
                 (* the emitted delta must reconstruct the full table *)
                 let applied = apply_change old_rules change in
                 if
                   List.sort compare (triples applied)
                   <> List.sort compare (triples rules)
                 then
                   QCheck.Test.fail_reportf
                     "delta does not reconstruct table (step %d, switch %d)"
                     i sw;
                 Hashtbl.replace tables sw rules))
            result.changes;
          (* ...and every switch (including skipped ones) must equal
             a from-scratch compile of this step's policy *)
          List.iter
            (fun (sw, rules) ->
              let got =
                Option.value ~default:[] (Hashtbl.find_opt tables sw)
              in
              if got <> rules then
                QCheck.Test.fail_reportf
                  "incremental <> scratch (step %d, switch %d)" i sw)
            (Local.rules_of_fdd_all ~switches fdd))
        steps;
      true)

(* ------------------------------------------------------------------ *)
(* Offline loader ≡ controller push: both apply the same change →
   flow-mod mapping, so their tables agree rule for rule *)

let keyed rules =
  List.map
    (fun (r : Flow.Table.rule) -> (r.priority, r.pattern, r.actions, r.cookie))
    rules

let tables_of net switches =
  List.map
    (fun sw ->
      (sw, keyed (Flow.Table.rules (Dataplane.Network.switch net sw).table)))
    switches

let prop_offline_equals_controller =
  QCheck.Test.make ~name:"offline install_fdd ≡ controller install_plain"
    ~count:4 (QCheck.make ~print:string_of_int (QCheck.Gen.int_range 1 1000))
    (fun seed ->
      let topo, _ = Topo.Gen.fat_tree ~k:4 () in
      let switches = Topo.Topology.switch_ids topo in
      let offline = Zen.create topo in
      let online = Zen.create topo in
      let ctx = Controller.Runtime.ctx (Zen.with_controller online []) in
      let upd = Controller.Update.create () in
      let step i pol =
        let fdd = Fdd.of_policy pol in
        ignore (Zen.install_fdd offline fdd);
        Controller.Update.install_plain upd ctx pol;
        ignore (Zen.run ~until:(Zen.now online +. 0.05) online);
        let off = tables_of (Zen.network offline) switches in
        if off <> tables_of (Zen.network online) switches then
          QCheck.Test.fail_reportf "offline <> controller after edit %d" i;
        let triples =
          List.map
            (fun (sw, rs) -> (sw, List.map (fun (p, m, a, _) -> (p, m, a)) rs))
            off
        in
        if triples <> Scenarios.scratch_tables fdd switches then
          QCheck.Test.fail_reportf "offline <> scratch after edit %d" i
      in
      let base = Netkat.Builder.routing_policy topo in
      step 0 base;
      ignore
        (List.fold_left
           (fun (i, pol) edit ->
             let pol = Scenarios.apply_edit pol edit in
             step i pol;
             (i + 1, pol))
           (1, base)
           (Scenarios.churn_edits ~seed ~edits:4 topo));
      true)

let test_sharded_install_equals_single () =
  let topo, _ = Topo.Gen.fat_tree ~k:4 () in
  let pol = Netkat.Builder.routing_policy topo in
  let single = Zen.create topo in
  let sharded = Zen.create_sharded ~shards:2 topo in
  let n = Zen.install_policy single pol in
  Alcotest.(check int) "same rule total" n
    (Zen.install_policy_sharded sharded pol);
  List.iter
    (fun sw ->
      let net = Dataplane.Shard.net_of_switch sharded sw in
      Alcotest.(check bool)
        (Printf.sprintf "s%d table" sw)
        true
        (tables_of net [ sw ] = tables_of (Zen.network single) [ sw ]))
    (Topo.Topology.switch_ids topo)

let suites =
  [ ( "netkat.delta",
      [ Alcotest.test_case "edit skips other switches" `Quick
          test_edit_skips_other_switches;
        Alcotest.test_case "clear_cache structural fallback" `Quick
          test_clear_cache_structural_fallback;
        Alcotest.test_case "new switch appears and leaves" `Quick
          test_new_switch_appears_and_leaves;
        Alcotest.test_case "diff_rules" `Quick test_diff_rules;
        Alcotest.test_case "stacked churn through Zen.install_fdd" `Quick
          test_zen_stacked_churn;
        Alcotest.test_case "k=8 edit bytes vs full re-push" `Quick
          test_k8_edit_bytes;
        QCheck_alcotest.to_alcotest
          (prop_churn ~clears:false "churn ≡ scratch at every step");
        QCheck_alcotest.to_alcotest
          (prop_churn ~clears:true "churn ≡ scratch across cache clears");
        QCheck_alcotest.to_alcotest prop_offline_equals_controller;
        Alcotest.test_case "sharded install ≡ single install" `Quick
          test_sharded_install_equals_single ] )
  ]
