(* The sharded simulator (ISSUE 6): conservative-lookahead parallel
   runs must be observably indistinguishable from the single-domain
   engine — same delivery counters, flow tables, port stats, event
   traces and chaos traces on a fixed seed, for 1, 2 and 4 shards,
   with and without injected incidents. *)

open Dataplane

(* sort "<time> <text>" lines by (parsed time, text) so tie order and
   magnitude-crossing float formatting don't leak into comparisons *)
let sort_trace lines =
  let key line =
    match String.index_opt line ' ' with
    | Some i ->
      ( Option.value ~default:0.0
          (float_of_string_opt (String.sub line 0 i)),
        line )
    | None -> (0.0, line)
  in
  List.sort compare (List.map key lines) |> List.map snd

(* load [topo]'s routing tables into whichever network [net_of_switch]
   says owns each switch *)
let load_routing topo net_of_switch =
  Controller.Api.load_delta ~previous:None
    ~table_of:(fun id -> (Network.switch (net_of_switch id) id).table)
    (Netkat.Delta.compile_policy ~switches:(Topo.Topology.switch_ids topo)
       None (Netkat.Builder.routing_policy topo))

type obs = {
  o_signature : string;
  o_trace : string list;    (* sorted dataplane trace *)
  o_chaos : string list;    (* sorted chaos notes *)
  o_delivered : int;
  o_logical : int;          (* executed events minus sharding overhead *)
}

let mk_topo = function
  | 0 -> Topo.Gen.linear ~switches:4 ~hosts_per_switch:2 ()
  | 1 -> fst (Topo.Gen.fat_tree ~k:4 ())
  | _ -> Topo.Gen.ring ~switches:5 ~hosts_per_switch:1 ()

(* a deterministic little scenario, one incident of each kind: flap the
   first switch-switch link, partition the control channel of the
   highest-id switch (which shard 0 does not own once there are two
   shards) and later crash it, and crash and restart controller 0 (noted
   by shard 0 alone) *)
let incidents_for topo =
  let flap =
    List.find_map
      (fun (l : Topo.Topology.link) ->
        if Topo.Topology.Node.is_switch l.src
           && Topo.Topology.Node.is_switch l.dst
        then
          Some
            (Fault.Link_flap
               { node = l.src; port = l.src_port; at = 0.002;
                 duration = 0.003 })
        else None)
      (Topo.Topology.links topo)
  in
  let crash =
    match List.rev (Topo.Topology.switch_ids topo) with
    | id :: _ ->
      [ Fault.Ctl_outage { switch_id = id; at = 0.001; duration = 0.002 };
        Fault.Switch_outage { switch_id = id; at = 0.004; duration = 0.002 } ]
    | [] -> []
  in
  (match flap with Some f -> [ f ] | None -> [])
  @ crash
  @ [ Fault.Controller_outage
        { controller_id = 0; at = 0.003; duration = 0.004 } ]

(* control-channel loss + jitter, plus link-level data chaos.  With no
   controller attached no control verdict is ever drawn; the per-link
   verdict streams are keyed on the seed and the link, so
   drops/corruptions/reorders must replay byte-identically at any shard
   count *)
let chaos_cfg seed =
  Fault.make_config ~seed:(seed + 7) ~drop:0.2 ~jitter:1e-3 ~link_drop:0.08
    ~link_corrupt:0.04 ~link_reorder:0.08 ()

(* staggered starts keep the workload free of cross-flow timestamp
   ties — the precondition for exact trace equivalence (see Shard's
   header on the conservative-PDES tie caveat) *)
let specs_for topo ~seed ~flows =
  let prng = Util.Prng.create seed in
  let host_ids = Array.of_list (Topo.Topology.host_ids topo) in
  Traffic.random_pair_specs ~stagger:0.0004 ~prng ~host_ids ~flows
    ~rate_pps:2000.0 ~pkt_size:400 ~stop:0.008 ()

let until = 0.02

(* advance a sharded run to [until] in [step]-wide [Shard.run ~until]
   calls, the way the forwarding benchmark steps it; [None] is one call *)
let run_stepped ?step ~until t =
  match step with
  | None -> Shard.run ~until t
  | Some step ->
    let n = int_of_float (Float.ceil (until /. step)) in
    let executed = ref 0 in
    for j = 1 to n do
      let u = Float.min until (float_of_int j *. step) in
      executed := !executed + Shard.run ~until:u t
    done;
    !executed

let run_single ~topo_id ~seed ~flows ~chaos ~with_incidents =
  let topo = mk_topo topo_id in
  let fault = if chaos then Some (Fault.of_config (chaos_cfg seed)) else None in
  let net = Network.create ?fault topo in
  let lines = ref [] in
  Network.set_tracer net (fun time s ->
    lines := Printf.sprintf "%.9f %s" time s :: !lines);
  load_routing topo (fun _ -> net);
  List.iter
    (fun (s : Traffic.flow_spec) -> ignore (Traffic.cbr net s))
    (specs_for topo ~seed ~flows);
  if with_incidents then Network.inject net (incidents_for topo);
  let executed = Network.run ~until net () in
  { o_signature = Shard.net_signature topo [ net ];
    o_trace = sort_trace !lines;
    o_chaos =
      (match Network.fault net with
       | Some f -> sort_trace (Fault.events f)
       | None -> []);
    o_delivered = (Network.stats net).delivered;
    o_logical = executed }

let run_sharded ?step ~topo_id ~seed ~flows ~chaos ~with_incidents ~shards
    () =
  let topo = mk_topo topo_id in
  let fault_config = if chaos then Some (chaos_cfg seed) else None in
  let t = Shard.create ?fault_config ~shards topo in
  let per_shard = Array.map (fun _ -> ref []) (Shard.nets t) in
  Array.iteri
    (fun i net ->
      let r = per_shard.(i) in
      Network.set_tracer net (fun time s ->
        r := Printf.sprintf "%.9f %s" time s :: !r))
    (Shard.nets t);
  load_routing topo (Shard.net_of_switch t);
  List.iter
    (fun (s : Traffic.flow_spec) ->
      ignore (Traffic.cbr (Shard.net_of_host t s.src) s))
    (specs_for topo ~seed ~flows);
  let incidents = if with_incidents then incidents_for topo else [] in
  if with_incidents then Shard.inject t incidents;
  let executed = run_stepped ?step ~until t in
  (* sharding overhead events: one queue-release per cross-shard handoff,
     plus the silent clone link flips on every non-owning shard.  A
     reordered cross-shard packet is the exception: its late delivery is
     a separate event in the single-domain run too, so that handoff
     costs no extra event — subtract those back out. *)
  let flaps =
    List.length
      (List.filter
         (function Fault.Link_flap _ -> true | _ -> false)
         incidents)
  in
  let cross_reorders =
    Array.fold_left
      (fun acc net -> acc + Network.remote_reorders net)
      0 (Shard.nets t)
  in
  let overhead =
    Shard.handoffs t + (2 * flaps * (shards - 1)) - cross_reorders
  in
  { o_signature = Shard.signature t;
    o_trace =
      sort_trace
        (Array.to_list per_shard |> List.concat_map (fun r -> !r));
    o_chaos = sort_trace (Shard.chaos_events t);
    o_delivered = (Shard.stats t).delivered;
    o_logical = executed - overhead }

let check_equiv ~topo_id ~seed ~flows ~chaos ~with_incidents ~shards =
  let s = run_single ~topo_id ~seed ~flows ~chaos ~with_incidents in
  let p =
    run_sharded ~topo_id ~seed ~flows ~chaos ~with_incidents ~shards ()
  in
  let label what =
    Printf.sprintf "%s (topo=%d seed=%d flows=%d chaos=%b inc=%b shards=%d)"
      what topo_id seed flows chaos with_incidents shards
  in
  Alcotest.(check string) (label "signature") s.o_signature p.o_signature;
  Alcotest.(check (list string)) (label "trace") s.o_trace p.o_trace;
  Alcotest.(check (list string)) (label "chaos trace") s.o_chaos p.o_chaos;
  Alcotest.(check int) (label "logical events") s.o_logical p.o_logical;
  s.o_delivered

(* ------------------------------------------------------------------ *)
(* Deterministic unit tests *)

(* the 1-shard run takes the sharded loop's code path with no
   cross-shard traffic at all *)
let test_two_shard_fattree () =
  List.iter
    (fun shards ->
      let delivered =
        check_equiv ~topo_id:1 ~seed:42 ~flows:30 ~chaos:false
          ~with_incidents:false ~shards
      in
      Alcotest.(check bool) "traffic actually flowed" true (delivered > 0))
    [ 1; 2 ]

(* the same specs advanced in 1 ms [Shard.run ~until] steps: every call
   starts a fresh window loop (the growth cap restarts at one
   lookahead), and the run must still match one call and the
   single-domain engine *)
let test_two_shard_fattree_stepped () =
  let obs step =
    run_sharded ?step ~topo_id:1 ~seed:42 ~flows:30 ~chaos:false
      ~with_incidents:false ~shards:2 ()
  in
  let single =
    run_single ~topo_id:1 ~seed:42 ~flows:30 ~chaos:false
      ~with_incidents:false
  in
  let whole = obs None and stepped = obs (Some 1e-3) in
  Alcotest.(check string) "stepped == one call" whole.o_signature
    stepped.o_signature;
  Alcotest.(check string) "stepped == single" single.o_signature
    stepped.o_signature;
  Alcotest.(check (list string)) "stepped trace == single" single.o_trace
    stepped.o_trace;
  Alcotest.(check int) "stepped logical events == single" single.o_logical
    stepped.o_logical;
  Alcotest.(check bool) "traffic actually flowed" true
    (stepped.o_delivered > 0)

let test_four_shard_fattree_chaos () =
  ignore
    (check_equiv ~topo_id:1 ~seed:7 ~flows:20 ~chaos:true ~with_incidents:true
       ~shards:4)

let test_one_shard_linear () =
  ignore
    (check_equiv ~topo_id:0 ~seed:3 ~flows:10 ~chaos:true ~with_incidents:true
       ~shards:1)

let test_handoffs_counted () =
  let topo_id = 1 and seed = 42 and flows = 30 in
  let topo = mk_topo topo_id in
  let t = Shard.create ~shards:2 topo in
  load_routing topo (Shard.net_of_switch t);
  List.iter
    (fun (s : Traffic.flow_spec) ->
      ignore (Traffic.cbr (Shard.net_of_host t s.src) s))
    (specs_for topo ~seed ~flows);
  ignore (Shard.run ~until t);
  Alcotest.(check bool) "cross-shard handoffs happened" true
    (Shard.handoffs t > 0);
  let ss = Shard.sync_stats t in
  Alcotest.(check int) "per-shard handoffs sum to total" (Shard.handoffs t)
    (ss.handoffs.(0) + ss.handoffs.(1));
  Alcotest.(check bool) "rounds advanced" true (Shard.rounds t > 0);
  Alcotest.(check bool) "no backpressure on this workload" true
    (ss.backpressure = 0)

let test_lookahead_is_min_cross_delay () =
  let topo = fst (Topo.Gen.fat_tree ~k:4 ()) in
  let t = Shard.create ~shards:2 topo in
  Alcotest.(check bool) "lookahead equals the generator default delay" true
    (Shard.lookahead t = Topo.Gen.default_delay);
  let one = Shard.create ~shards:1 topo in
  Alcotest.(check bool) "1 shard has no cross links: infinite lookahead" true
    (Shard.lookahead one = infinity)

let test_partition_of_string () =
  Alcotest.(check bool) "block parses" true
    (Shard.partition_of_string "block" <> None);
  Alcotest.(check bool) "pod:4 parses" true
    (Shard.partition_of_string "pod:4" <> None);
  Alcotest.(check bool) "garbage rejected" true
    (Shard.partition_of_string "hash" = None);
  Alcotest.(check bool) "odd pod:3 rejected" true
    (Shard.partition_of_string "pod:3" = None)

let test_pod_partition_no_intra_pod_crossing () =
  let topo, info = Topo.Gen.fat_tree ~k:4 () in
  let t = Shard.create ~partition:(Shard.pod_partition ~k:4) ~shards:4 topo in
  (* every agg<->edge link stays inside one shard *)
  List.iter
    (fun (l : Topo.Topology.link) ->
      match (l.src, l.dst) with
      | Topo.Topology.Node.Switch a, Topo.Topology.Node.Switch b
        when List.mem a info.aggregation && List.mem b info.edge ->
        Alcotest.(check int)
          (Printf.sprintf "s%d-s%d same shard" a b)
          (Shard.shard_of t l.src) (Shard.shard_of t l.dst)
      | _ -> ())
    (Topo.Topology.links topo)

(* misuse fails loudly: a pod partition whose K does not match the
   fat-tree (or a topology that is not one) is rejected instead of
   silently splitting pods *)
let test_pod_partition_rejects_mismatch () =
  let rejects what ~k topo =
    match Shard.create ~partition:(Shard.pod_partition ~k) ~shards:2 topo with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "pod:8 on a k=4 fat-tree" ~k:8 (fst (Topo.Gen.fat_tree ~k:4 ()));
  rejects "pod:3 on a k=4 fat-tree" ~k:3 (fst (Topo.Gen.fat_tree ~k:4 ()));
  rejects "pod:4 on a ring" ~k:4
    (Topo.Gen.ring ~switches:6 ~hosts_per_switch:1 ())

(* ------------------------------------------------------------------ *)
(* Adaptive windows: sparse fabrics fast-forward, heterogeneous
   distances widen windows, and observables never change *)

let run_sites ~sites ~specs ~until how =
  let topo = Scenarios.multi_site_topo ~sites () in
  match how with
  | `Single ->
    let net = Network.create topo in
    load_routing topo (fun _ -> net);
    List.iter (fun s -> ignore (Traffic.cbr net s)) specs;
    ignore (Network.run ~until net ());
    (Shard.net_signature topo [ net ], 0, 0)
  | `Sharded step ->
    let t = Shard.create ~shards:sites topo in
    load_routing topo (Shard.net_of_switch t);
    List.iter
      (fun (s : Traffic.flow_spec) ->
        ignore (Traffic.cbr (Shard.net_of_host t s.src) s))
      specs;
    ignore (run_stepped ?step ~until t);
    (Shard.signature t, Shard.rounds t, Shard.stalls t)

(* dense traffic in site 0, a trickle in site 1: a uniform 20 us window
   (the metro-link lookahead) barrier-steps the dense chains two events
   at a time while shard 1 mostly stalls — 1574 rounds and 1498 stalls,
   as measured before the uniform window was deleted.  The adaptive echo
   bound packs twice the span per round (871 rounds, 795 stalls); the
   bounds are 0.6x those uniform rounds and fewer than 1479 stalls. *)
let test_two_site_window_bounds () =
  let specs =
    Scenarios.site_flows ~site:0 ~flows:6 ~rate_pps:5000.0 ~start:0.0107
      ~stop:0.05
    @ Scenarios.site_flows ~site:1 ~flows:2 ~rate_pps:500.0 ~start:0.0131
        ~stop:0.05
  in
  let run how = run_sites ~sites:2 ~specs ~until:0.06 how in
  let sig_single, _, _ = run `Single in
  let sig_adaptive, rounds, stalls = run (`Sharded None) in
  Alcotest.(check string) "adaptive == single" sig_single sig_adaptive;
  Alcotest.(check bool)
    (Printf.sprintf "adaptive rounds %d <= 944 (0.6 * uniform 1574)" rounds)
    true (rounds <= 944);
  Alcotest.(check bool)
    (Printf.sprintf "adaptive stalls %d < 1479" stalls)
    true (stalls < 1479);
  (* 1 ms steps restart the growth cap every call without changing a
     byte *)
  let sig_stepped, _, _ = run (`Sharded (Some 1e-3)) in
  Alcotest.(check string) "1 ms steps == single" sig_single sig_stepped

(* a sparse-event fabric fast-forwards: the window loop must jump from
   event cluster to event cluster instead of barrier-stepping every
   20 us lookahead window across the idle span *)
let test_sparse_fast_forward () =
  let specs =
    Scenarios.site_flows ~site:0 ~flows:1 ~rate_pps:50.0 ~start:0.0107
      ~stop:0.4
    @ Scenarios.site_flows ~site:1 ~flows:1 ~rate_pps:50.0 ~start:0.0131
        ~stop:0.4
  in
  let until = 0.5 in
  let sig_single, _, _ = run_sites ~sites:2 ~specs ~until `Single in
  let sig_sharded, rounds, _ =
    run_sites ~sites:2 ~specs ~until (`Sharded None)
  in
  Alcotest.(check string) "sparse sharded == single" sig_single sig_sharded;
  let naive_windows = int_of_float (until /. 20e-6) in
  Alcotest.(check bool)
    (Printf.sprintf "rounds %d << %d naive lookahead windows" rounds
       naive_windows)
    true
    (rounds * 20 < naive_windows)

(* ------------------------------------------------------------------ *)
(* Shard_sync mailbox backpressure *)

let test_sync_backpressure () =
  let sync : int Util.Shard_sync.t =
    Util.Shard_sync.create ~capacity:4 ~shards:2 ()
  in
  for i = 1 to 10 do
    Util.Shard_sync.post sync ~src:1 ~dst:0 ~time:(float_of_int i) i
  done;
  Alcotest.(check int) "posts beyond capacity counted" 6
    (Util.Shard_sync.stats sync).backpressure;
  Alcotest.(check int) "high-water tracks the burst" 10
    (Util.Shard_sync.stats sync).high_water;
  Alcotest.(check int) "all envelopes survive (soft bound)" 10
    (List.length (Util.Shard_sync.drain sync 0));
  (* drained: the next burst within capacity adds no backpressure *)
  for i = 1 to 4 do
    Util.Shard_sync.post sync ~src:1 ~dst:0 ~time:(float_of_int i) i
  done;
  Alcotest.(check int) "within capacity after drain" 6
    (Util.Shard_sync.stats sync).backpressure;
  Alcotest.(check int) "high-water is a high-water mark" 10
    (Util.Shard_sync.stats sync).high_water

(* ------------------------------------------------------------------ *)
(* Shard_sync determinism *)

let test_sync_drain_order () =
  let sync : int Util.Shard_sync.t = Util.Shard_sync.create ~shards:3 () in
  Util.Shard_sync.post sync ~src:2 ~dst:0 ~time:2.0 20;
  Util.Shard_sync.post sync ~src:1 ~dst:0 ~time:1.0 10;
  Util.Shard_sync.post sync ~src:1 ~dst:0 ~time:1.0 11;
  Util.Shard_sync.post sync ~src:0 ~dst:0 ~time:1.0 0;
  let order =
    List.map
      (fun (e : int Util.Shard_sync.envelope) -> e.env_load)
      (Util.Shard_sync.drain sync 0)
  in
  (* (time, src shard, per-source seq) ordering *)
  Alcotest.(check (list int)) "deterministic envelope order" [ 0; 10; 11; 20 ]
    order;
  Alcotest.(check bool) "drain empties the box" true
    (Util.Shard_sync.drain sync 0 = []);
  Alcotest.(check int) "handoffs counted at the source" 2
    (Util.Shard_sync.stats sync).handoffs.(1)

(* bursty posting with deliberate timestamp ties: drain order is the
   total (time, src, seq) order, so per-source sequences stay monotone
   no matter how the burst interleaves *)
let drain_order_prop =
  QCheck.Test.make ~count:100 ~name:"bursty mailbox drain order"
    QCheck.(list_of_size (Gen.int_range 0 40) (pair (int_range 0 3) (int_range 0 5)))
    (fun posts ->
      let sync : int Util.Shard_sync.t =
        Util.Shard_sync.create ~shards:4 ()
      in
      (* each source posts at non-decreasing times (like a shard
         draining its queue); tick = 0 manufactures cross-source ties *)
      let clock = Array.make 4 0.0 in
      List.iteri
        (fun i (src, tick) ->
          clock.(src) <- clock.(src) +. float_of_int tick;
          Util.Shard_sync.post sync ~src ~dst:0 ~time:clock.(src) i)
        posts;
      let drained = Util.Shard_sync.drain sync 0 in
      let sorted =
        List.sort
          (fun (a : int Util.Shard_sync.envelope) b ->
            compare (a.env_time, a.env_src, a.env_seq)
              (b.env_time, b.env_src, b.env_seq))
          drained
      in
      let monotone_per_src =
        List.for_all
          (fun src ->
            let seqs =
              List.filter_map
                (fun (e : int Util.Shard_sync.envelope) ->
                  if e.env_src = src then Some e.env_seq else None)
                drained
            in
            List.sort compare seqs = seqs)
          [ 0; 1; 2; 3 ]
      in
      List.length drained = List.length posts
      && drained = sorted && monotone_per_src)

(* ------------------------------------------------------------------ *)
(* QCheck: sharded == single-domain over random scenarios *)

let equiv_prop =
  QCheck.Test.make ~count:12 ~name:"sharded run == single-domain run"
    QCheck.(
      quad (int_range 0 2) (int_range 1 1000) (int_range 2 25)
        (pair bool bool))
    (fun (topo_id, seed, flows, (chaos, with_incidents)) ->
      List.for_all
        (fun shards ->
          ignore
            (check_equiv ~topo_id ~seed ~flows ~chaos ~with_incidents ~shards);
          true)
        [ 1; 2; 4 ])

let suites =
  [ ( "shard",
      [ Alcotest.test_case "2-shard fat-tree == single" `Quick
          test_two_shard_fattree;
        Alcotest.test_case "2-shard fat-tree in 1 ms steps == single" `Quick
          test_two_shard_fattree_stepped;
        Alcotest.test_case "4-shard fat-tree + chaos == single" `Quick
          test_four_shard_fattree_chaos;
        Alcotest.test_case "1-shard linear + chaos == single" `Quick
          test_one_shard_linear;
        Alcotest.test_case "handoff/round/stall counters" `Quick
          test_handoffs_counted;
        Alcotest.test_case "lookahead = min cross-shard delay" `Quick
          test_lookahead_is_min_cross_delay;
        Alcotest.test_case "partition_of_string" `Quick
          test_partition_of_string;
        Alcotest.test_case "pod partition keeps pods whole" `Quick
          test_pod_partition_no_intra_pod_crossing;
        Alcotest.test_case "pod partition rejects a mismatched k" `Quick
          test_pod_partition_rejects_mismatch;
        Alcotest.test_case "Shard_sync drain order" `Quick
          test_sync_drain_order;
        Alcotest.test_case "Shard_sync mailbox backpressure" `Quick
          test_sync_backpressure;
        Alcotest.test_case "2-site adaptive window bounds" `Quick
          test_two_site_window_bounds;
        Alcotest.test_case "sparse fabric fast-forward" `Quick
          test_sparse_fast_forward;
        QCheck_alcotest.to_alcotest drain_order_prop;
        QCheck_alcotest.to_alcotest equiv_prop ] ) ]
