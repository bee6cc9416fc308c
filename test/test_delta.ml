(* Incremental delta recompilation ({!Netkat.Delta}): uid certificates
   skip untouched switches, the alignment fallback survives cache
   clears, untouched rules keep their priorities (an edit ships only the
   flow-mods it needs, and an exhausted gap renumbers a local window),
   and at every step of a churn sequence a delta-maintained table
   encodes a from-scratch compile's ordered list: the same (pattern,
   actions) list, strictly decreasing priorities, and the same winning
   rule on seeded probe headers ({!Scenarios.table_mismatch}). *)

open Packet
module Syntax = Netkat.Syntax
module Fdd = Netkat.Fdd
module Local = Netkat.Local
module Delta = Netkat.Delta

(* fails unless [got] is [want] up to priorities *)
let check_same_table what ~seed got want =
  match Scenarios.table_mismatch ~seed got want with
  | None -> ()
  | Some why -> Alcotest.failf "%s: %s" what why

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
  (* the new snapshot's tables are a from-scratch compile up to
     priorities *)
  List.iter
    (fun (sw, rules) ->
      check_same_table
        (Printf.sprintf "switch %d equals scratch" sw)
        ~seed:sw
        (Option.get (Delta.find r1.snapshot sw))
        rules)
    (Scenarios.scratch_tables edited switches)

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

(* [Delta] reads a switch's rules from its spine case: since [Switch] is
   the first field in the diagram order, that case is the switch's
   restriction, node for node, and the default case is the restriction
   to a switch the spine never tests *)
let test_case_is_restriction () =
  let topo, _ = Topo.Gen.fat_tree ~k:4 () in
  let switches = Topo.Topology.switch_ids topo in
  let untested = 1 + List.fold_left max 0 switches in
  let check_diagram what d =
    let cases, default = Fdd.switch_cases d in
    List.iter
      (fun sw ->
        let case = Option.value ~default (Hashtbl.find_opt cases sw) in
        if Fdd.restrict (Fields.Switch, sw) d != case then
          Alcotest.failf "%s: s%d's case is not its restriction" what sw)
      switches;
    Alcotest.(check bool)
      (what ^ ": default case = restriction") true
      (Fdd.restrict (Fields.Switch, untested) d == default)
  in
  let base = Netkat.Builder.routing_policy topo in
  check_diagram "routing" (Fdd.of_policy base);
  ignore
    (List.fold_left
       (fun (i, pol) edit ->
         let pol = Scenarios.apply_edit pol edit in
         check_diagram (Printf.sprintf "edit %d" i) (Fdd.of_policy pol);
         (i + 1, pol))
       (1, base)
       (Scenarios.churn_edits ~seed:5 ~edits:20 topo))

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

(* one switch routing on tp_dst: [(tp, port)] forwards tp_dst = tp *)
let tp_routes routes =
  Fdd.of_policy
    (Syntax.big_union
       (List.map
          (fun (tp, port) ->
            Syntax.seq
              (Syntax.filter (Syntax.test Fields.Tp_dst tp))
              (Syntax.forward port))
          routes))

let priority_of rules tp =
  (List.find (fun (r : Delta.rule) -> r.pattern.tp_dst = Some tp) rules)
    .priority

(* an edit that changes one rule's actions, keeps one, drops one and
   inserts one ships exactly a modify, an add and a strict delete; the
   untouched rules keep their priorities *)
let test_alignment () =
  let before = [ (1, 1); (2, 2); (3, 3) ]
  and after = [ (1, 9); (2, 2); (4, 4) ] in
  let r0 = Delta.compile ~switches:[ 1 ] None (tp_routes before) in
  let old = Option.get (Delta.find r0.snapshot 1) in
  Alcotest.(check bool) "first install inside (0, span)" true
    (List.for_all
       (fun (r : Delta.rule) -> r.priority > 0 && r.priority < Delta.span)
       old);
  let r1 =
    Delta.compile ~switches:[ 1 ] (Some r0.snapshot) (tp_routes after)
  in
  match List.assoc 1 r1.changes with
  | Delta.Unchanged -> Alcotest.fail "edit reported Unchanged"
  | Delta.Changed { rules; adds; deletes } ->
    Alcotest.(check int) "tp 1 keeps its slot" (priority_of old 1)
      (priority_of rules 1);
    Alcotest.(check int) "tp 2 keeps its slot" (priority_of old 2)
      (priority_of rules 2);
    let sorted rs = List.sort compare rs in
    let pick rs tps =
      List.filter
        (fun (r : Delta.rule) ->
          List.exists (fun tp -> r.pattern.tp_dst = Some tp) tps)
        rs
    in
    Alcotest.(check bool) "adds = modify tp 1 + insert tp 4" true
      (sorted adds = sorted (pick rules [ 1; 4 ]));
    Alcotest.(check bool) "deletes = tp 3 at its old priority" true
      (deletes = pick old [ 3 ]);
    check_same_table "realigned table" ~seed:1 rules
      (Local.rules_of_fdd ~switch:1 (tp_routes after))

(* Insert into one gap until it runs out: tp_dst 1000 - i lands next to
   tp_dst 500 every time (tables list one field's tests in value order),
   amid 64 routes on both sides that stay put.  Each insert ships one
   flow-mod until the gap is exhausted; that edit renumbers a contiguous
   window much smaller than the table, inside (0, span), and the next
   insert is back to one flow-mod. *)
let test_gap_exhaustion () =
  let background =
    List.init 64 (fun i ->
      ((if i < 32 then 100 + i else 2000 + i), 1 + (i mod 4)))
  in
  let routes inserted = ((500, 1) :: (1000, 2) :: inserted) @ background in
  let r0 = Delta.compile ~switches:[ 1 ] None (tp_routes (routes [])) in
  let rec step i snap inserted =
    if i > 40 then Alcotest.fail "no renumber within 40 inserts into one gap";
    let inserted = (1000 - i, 3) :: inserted in
    let fdd = tp_routes (routes inserted) in
    let r = Delta.compile ~switches:[ 1 ] (Some snap) fdd in
    let old = Option.get (Delta.find snap 1) in
    let rules = Option.get (Delta.find r.snapshot 1) in
    if r.n_adds = 1 && r.n_deletes = 0 then step (i + 1) r.snapshot inserted
    else begin
      (* the renumbering edit *)
      Alcotest.(check bool)
        (Printf.sprintf "renumbered after %d inserts, not at the first" i)
        true (i > 1);
      List.iter
        (fun (r : Delta.rule) ->
          if r.priority <= 0 || r.priority >= Delta.span then
            Alcotest.failf "priority %d outside (0, %d)" r.priority Delta.span)
        rules;
      let moved =
        List.mapi
          (fun pos (r : Delta.rule) ->
            match
              List.find_opt
                (fun (o : Delta.rule) -> o.pattern = r.pattern)
                old
            with
            | Some o when o.priority = r.priority -> None
            | Some _ | None -> Some pos)
          rules
        |> List.filter_map Fun.id
      in
      let window = List.length moved in
      Alcotest.(check int) "moved rules are one contiguous window"
        (List.nth moved (window - 1) - List.hd moved + 1) window;
      Alcotest.(check bool)
        (Printf.sprintf "window of %d rules < half the %d-rule table" window
           (List.length rules))
        true
        (2 * window < List.length rules);
      Alcotest.(check int) "one add per window rule" window r.n_adds;
      Alcotest.(check int) "one delete per moved old rule" (window - 1)
        r.n_deletes;
      check_same_table "renumbered table" ~seed:i rules
        (Local.rules_of_fdd ~switch:1 fdd);
      (* the window left room: the next insert is one flow-mod again *)
      let inserted = (1000 - i - 1, 3) :: inserted in
      let r' =
        Delta.compile ~switches:[ 1 ] (Some r.snapshot)
          (tp_routes (routes inserted))
      in
      Alcotest.(check (pair int int)) "next insert: one add" (1, 0)
        (r'.n_adds, r'.n_deletes)
    end
  in
  step 1 r0.snapshot []

(* the benchmark's edit on fat-tree k=4: one guard [Seq (guard_i, base)]
   replacing guard [i - 1] ships at most 4 flow-mods (one path out, one
   in), counted from the delta, not timed *)
let test_guard_edit_flowmods () =
  Fdd.clear_cache ();
  let topo, _ = Topo.Gen.fat_tree ~k:4 () in
  let switches = Topo.Topology.switch_ids topo in
  let base = Netkat.Builder.routing_policy topo in
  let r0 = Delta.compile_policy ~switches None base in
  ignore
    (List.fold_left
       (fun snap edit ->
         let r =
           Delta.compile_policy ~switches (Some snap)
             (Scenarios.apply_edit base edit)
         in
         let mods = r.n_adds + r.n_deletes in
         Alcotest.(check bool)
           (Printf.sprintf "%d flow-mods in (0, 4]" mods)
           true
           (mods > 0 && mods <= 4);
         r.snapshot)
       r0.snapshot
       (Scenarios.churn_edits ~seed:11 ~edits:8 topo))

(* a seeded trace of 8 stacked edits, Seq (guard, Seq (guard, ... base)),
   installed on a live fat-tree k=4 through [Zen.install_fdd]'s in-place
   table edits: after every edit each switch's table is a from-scratch
   compile up to priorities, and each edit's compile adds at most 120 branch
   nodes on average (one that sequences the guard with the whole base
   measured 607 per edit) *)
let test_zen_stacked_churn () =
  Fdd.clear_cache ();
  let topo, _ = Topo.Gen.fat_tree ~k:4 () in
  let switches = Topo.Topology.switch_ids topo in
  let base = Netkat.Builder.routing_policy topo in
  let net = Zen.create topo in
  ignore (Zen.install_fdd net (Fdd.of_policy base));
  let edits = Scenarios.churn_edits ~seed:7 ~edits:8 topo in
  let pol = ref base and grown = ref 0 in
  List.iteri
    (fun i edit ->
      pol := Scenarios.apply_edit !pol edit;
      let before = Fdd.branch_count () in
      let next = Fdd.of_policy !pol in
      grown := !grown + Fdd.branch_count () - before;
      ignore (Zen.install_fdd net next);
      List.iter2
        (fun (sw, live) (_, scratch) ->
          check_same_table
            (Printf.sprintf "s%d live = scratch after edit %d" sw (i + 1))
            ~seed:((100 * i) + sw) live scratch)
        (Scenarios.live_tables net switches)
        (Scenarios.scratch_tables next switches))
    edits;
  let per_edit = !grown / List.length edits in
  Alcotest.(check bool)
    (Printf.sprintf "%d new branch nodes per edit <= 120" per_edit)
    true (per_edit <= 120)

(* one seeded edit on a >= 4000-rule fat-tree k=8 deployment ships at
   least 1000x fewer flow-mod bytes as a delta than re-pushing every
   table (delete-all + every rule + barrier per switch) *)
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
    (Printf.sprintf "delta %d B x 1000 <= full %d B" delta_b full_b)
    true
    (delta_b * 1000 <= full_b)

(* ------------------------------------------------------------------ *)
(* Property: a churn sequence maintained by deltas is a from-scratch
   compile up to priorities at every step, with and without interleaved
   cache clears *)

let apply_change old_rules = function
  | Delta.Unchanged -> old_rules
  | Delta.Changed { adds; deletes; _ } ->
    let key (r : Delta.rule) = (r.priority, r.pattern) in
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
                 if List.sort compare applied <> List.sort compare rules then
                   QCheck.Test.fail_reportf
                     "delta does not reconstruct table (step %d, switch %d)"
                     i sw;
                 Hashtbl.replace tables sw rules))
            result.changes;
          (* ...and every switch (including skipped ones) must be a
             from-scratch compile of this step's policy up to
             priorities *)
          List.iter
            (fun (sw, rules) ->
              let got =
                Option.value ~default:[] (Hashtbl.find_opt tables sw)
              in
              match
                Scenarios.table_mismatch ~seed:((10 * i) + sw) got rules
              with
              | None -> ()
              | Some why ->
                QCheck.Test.fail_reportf
                  "incremental <> scratch (step %d, switch %d): %s" i sw why)
            (Scenarios.scratch_tables fdd switches))
        steps;
      true)

(* Property: churn that keeps inserting into one gap, so windows get
   renumbered, mixed with seeded route removals and port changes on a
   one-switch tp_dst table.  After every step the delta rebuilds the
   recorded table exactly, every priority lies inside (0, span), and the
   table is a from-scratch compile up to priorities. *)
let prop_gap_churn =
  QCheck.Test.make ~name:"gap churn renumbers soundly" ~count:8
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let prng = Util.Prng.create seed in
      let routes = Hashtbl.create 64 in
      List.iter (fun tp -> Hashtbl.replace routes tp 1) [ 100; 500; 900 ];
      let next = ref 899 and table = ref [] and snap = ref None in
      for step = 1 to 30 do
        (* 1-2 inserts just above tp 500, below every earlier one *)
        for _ = 0 to Util.Prng.int prng 2 do
          Hashtbl.replace routes !next (1 + Util.Prng.int prng 4);
          decr next
        done;
        (* one removal or port change elsewhere *)
        let tp = 100 + Util.Prng.int prng 800 in
        if Hashtbl.mem routes tp then
          if Util.Prng.int prng 2 = 0 then Hashtbl.remove routes tp
          else Hashtbl.replace routes tp (5 + Util.Prng.int prng 4);
        let fdd =
          tp_routes
            (Hashtbl.fold (fun tp port acc -> (tp, port) :: acc) routes [])
        in
        let r = Delta.compile ~switches:[ 1 ] !snap fdd in
        snap := Some r.snapshot;
        let rules = Option.get (Delta.find r.snapshot 1) in
        let applied = apply_change !table (List.assoc 1 r.changes) in
        let sorted rs = List.sort compare rs in
        if sorted applied <> sorted rules then
          QCheck.Test.fail_reportf "delta does not rebuild step %d" step;
        table := rules;
        List.iter
          (fun (x : Delta.rule) ->
            if x.priority <= 0 || x.priority >= Delta.span then
              QCheck.Test.fail_reportf
                "priority %d outside (0, span) at step %d" x.priority step)
          rules;
        match
          Scenarios.table_mismatch ~seed:step rules
            (Local.rules_of_fdd ~switch:1 fdd)
        with
        | None -> ()
        | Some why -> QCheck.Test.fail_reportf "step %d: %s" step why
      done;
      true)

(* ------------------------------------------------------------------ *)
(* Offline loader ≡ controller push: both apply the same change →
   flow-mod mapping, so their tables agree rule for rule, and both are
   a from-scratch compile up to priorities *)

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
        List.iter2
          (fun (sw, rs) (_, scratch) ->
            match
              Scenarios.table_mismatch ~seed:((10 * i) + sw)
                (List.map
                   (fun (priority, pattern, actions, _) ->
                     { Delta.priority; pattern; actions })
                   rs)
                scratch
            with
            | None -> ()
            | Some why ->
              QCheck.Test.fail_reportf
                "offline <> scratch after edit %d (s%d): %s" i sw why)
          off
          (Scenarios.scratch_tables fdd switches)
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
        Alcotest.test_case "spine case = restriction" `Quick
          test_case_is_restriction;
        Alcotest.test_case "alignment keeps untouched slots" `Quick
          test_alignment;
        Alcotest.test_case "gap exhaustion renumbers a local window" `Quick
          test_gap_exhaustion;
        Alcotest.test_case "k=4 guard edit ships <= 4 flow-mods" `Quick
          test_guard_edit_flowmods;
        Alcotest.test_case "stacked churn through Zen.install_fdd" `Quick
          test_zen_stacked_churn;
        Alcotest.test_case "k=8 edit bytes vs full re-push" `Quick
          test_k8_edit_bytes;
        QCheck_alcotest.to_alcotest
          (prop_churn ~clears:false "churn ≡ scratch at every step");
        QCheck_alcotest.to_alcotest
          (prop_churn ~clears:true "churn ≡ scratch across cache clears");
        QCheck_alcotest.to_alcotest prop_gap_churn;
        QCheck_alcotest.to_alcotest prop_offline_equals_controller;
        Alcotest.test_case "sharded install ≡ single install" `Quick
          test_sharded_install_equals_single ] )
  ]
