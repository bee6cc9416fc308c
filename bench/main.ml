(* The experiment harness: regenerates the experiment tables of
   EXPERIMENTS.md (E1..E19) that no other harness produces, plus the CI
   wall-time gates.  End-to-end timings live in benchmark/ and every
   correctness check in [dune runtest].

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- e1 e6   # selected experiments
     dune exec bench/main.exe -- gates   # wall-time bounds, exit 1 on a miss

   Expected shapes (paper-style claims being reproduced) are printed
   with each table; EXPERIMENTS.md records a reference run. *)

let pf = Format.printf

let header title =
  pf "@.%s@.%s@." title (String.make (String.length title) '=')

(* Machine-readable results: [record] accumulates (experiment, metric,
   value) rows; [--json FILE] writes them out so the repo can keep
   BENCH_*.json perf-trajectory files across PRs. *)
let recorded : (string * string * float) list ref = ref []

let record ~experiment ~metric value =
  recorded := (experiment, metric, value) :: !recorded

let write_json file =
  let oc = open_out file in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i (experiment, metric, value) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "  {\"experiment\": %S, \"metric\": %S, \"value\": %.6g}" experiment
           metric value))
    (List.rev !recorded);
  Buffer.add_string buf "\n]\n";
  output_string oc (Buffer.contents buf);
  close_out oc;
  pf "wrote %d metrics to %s@." (List.length !recorded) file

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let ms t = t *. 1e3

(* run [f] [n] times and keep the fastest: [f] returns its result and
   the seconds it measured, so untimed setup stays out of the figure.
   One run is short enough that a GC pause or scheduler noise would
   dominate a single-shot measurement. *)
let best_of n f =
  let best = ref (f ()) in
  for _ = 2 to n do
    let (_, t) as r = f () in
    if t < snd !best then best := r
  done;
  !best

(* seconds for [iters] calls of [f i], best of 3 *)
let time_iters iters f =
  snd
    (best_of 3 (fun () ->
       wall (fun () ->
         for i = 0 to iters - 1 do
           f i
         done)))

(* ------------------------------------------------------------------ *)
(* E1 — policy compilation: FDD vs naive baseline *)

let denylist_policy topo k =
  let entries =
    List.init k (fun i ->
      { Netkat.Builder.allow = false;
        src_ip = Some (Packet.Ipv4.of_host_id (i + 1));
        dst_ip = None; proto = None; dst_port = Some 22 })
  in
  Netkat.Builder.firewall ~default_allow:true topo entries

let e1 () =
  header "E1 — policy compilation: FDD compiler vs naive baseline";
  pf "expected shape: naive ties on plain routing, blows up on ACL x routing,@.";
  pf "and cannot compile denylists at all; the FDD stays linear and shadow-free.@.@.";
  pf "(fdd-bld: branch nodes the compile built from a cleared cache)@.@.";
  pf "%-12s %-16s | %8s %8s %8s %8s | %10s %10s %9s@." "topology" "policy"
    "fdd-rul" "fdd-nod" "fdd-bld" "fdd-ms" "naive-rul" "naive-shad"
    "naive-ms";
  pf "%s@." (String.make 103 '-');
  let row topo_name topo pol_name pol =
    let switches = Topo.Topology.switch_ids topo in
    Netkat.Fdd.clear_cache ();
    let (fdd_rules, fdd_nodes, fdd_built), fdd_t =
      wall (fun () ->
        let d = Netkat.Fdd.of_policy pol in
        let built = Netkat.Fdd.branch_count () in
        let rules =
          List.fold_left
            (fun acc sw ->
              acc + List.length (Netkat.Local.rules_of_fdd ~switch:sw d))
            0 switches
        in
        (rules, Netkat.Fdd.node_count d, built))
    in
    let naive_cell =
      match
        wall (fun () ->
          List.map (fun sw -> Netkat.Naive.compile ~switch:sw pol) switches)
      with
      | per_switch, t ->
        let rules = List.fold_left (fun a l -> a + List.length l) 0 per_switch in
        (* count dead (shadowed) rules the baseline installs *)
        let shadowed =
          List.fold_left
            (fun acc rules -> acc + List.length (Flow.Optimize.shadowed rules))
            0 per_switch
        in
        Printf.sprintf "%10d %10d %8.1f" rules shadowed (ms t)
      | exception Netkat.Naive.Unsupported _ ->
        Printf.sprintf "%10s %10s %8s" "--" "--" "--"
    in
    record ~experiment:"e1"
      ~metric:(Printf.sprintf "%s/%s/fdd-ms" topo_name pol_name)
      (ms fdd_t);
    pf "%-12s %-16s | %8d %8d %8d %8.1f | %s@." topo_name pol_name fdd_rules
      fdd_nodes fdd_built (ms fdd_t) naive_cell
  in
  let topos =
    [ ("linear:4", Topo.Gen.linear ~switches:4 ~hosts_per_switch:2 ());
      ("linear:8", Topo.Gen.linear ~switches:8 ~hosts_per_switch:2 ());
      ("fattree:4", fst (Topo.Gen.fat_tree ~k:4 ())) ]
  in
  List.iter
    (fun (name, topo) ->
      row name topo "routing" (Netkat.Builder.routing_policy topo);
      row name topo "acl8-allowlist" (Scenarios.allowlist_policy topo 8);
      row name topo "fw8-denylist" (denylist_policy topo 8))
    topos;
  List.iter
    (fun k ->
      let topo = fst (Topo.Gen.fat_tree ~k ()) in
      row (Printf.sprintf "fattree:%d" k) topo "routing"
        (Netkat.Builder.routing_policy topo))
    [ 6; 8 ];
  (* drop the k=8 diagram: later experiments need not carry it *)
  Netkat.Fdd.clear_cache ()

(* ------------------------------------------------------------------ *)
(* E2 — flow-table lookup cost vs table size *)

(* mean ns per [lookup] of [table] (holding [n] rules) over 64 headers
   drawn from [mk] *)
let time_lookups n table lookup mk =
  let iters = 200_000 / (1 + (n / 100)) in
  let hs = Array.init 64 (fun _ -> mk ()) in
  let (), t =
    wall (fun () ->
      for i = 0 to iters - 1 do
        ignore (lookup table hs.(i land 63))
      done)
  in
  t /. float_of_int iters *. 1e9

(* [n] exact eth_dst rules, host 1's at the top priority *)
let e2_table n =
  let table = Flow.Table.create () in
  for i = 1 to n do
    Flow.Table.add table
      (Flow.Table.make_rule ~priority:(n - i)
         ~pattern:
           { Flow.Pattern.any with eth_dst = Some (Packet.Mac.of_host_id i) }
         ~actions:(Flow.Action.forward 1) ())
  done;
  table

(* a TCP probe toward host [dst] with a random source port *)
let e2_probe prng dst =
  Packet.Headers.tcp ~switch:1 ~in_port:1 ~src_host:1 ~dst_host:dst
    ~tp_src:(Util.Prng.int prng 1000) ~tp_dst:80

let e2_sizes sizes =
  header "E2 — flow-table lookup cost vs table size";
  pf "expected shape: linear search cost grows with table size (hits near@.";
  pf "the top are cheap, misses scan the whole table); the tuple-space@.";
  pf "classifier makes cold lookups O(shapes), and the megaflow cache@.";
  pf "makes headers that agree on the probed fields O(1), regardless of@.";
  pf "table size.@.@.";
  let prng = Util.Prng.create 5 in
  pf "%-10s | %12s %12s %12s | %11s %11s | %11s %11s@." "rules" "hit-hi(ns)"
    "hit-lo(ns)" "miss(ns)" "tuple-lo" "tuple-miss" "cached-lo" "cached-miss";
  pf "%s@." (String.make 104 '-');
  List.iter
    (fun n ->
      let table = e2_table n in
      let probe = e2_probe prng in
      let linear = time_lookups n table Flow.Table.lookup_linear in
      let tuple = time_lookups n table Flow.Table.lookup_tuple in
      let cached = time_lookups n table Flow.Table.lookup in
      let hi () = probe (1 + Util.Prng.int prng (max 1 (n / 10))) in
      let lo () = probe (max 1 (n - Util.Prng.int prng (max 1 (n / 10)))) in
      let nohit () = probe (n + 1 + Util.Prng.int prng 1000) in
      let hit_hi = linear hi in
      let hit_lo = linear lo in
      let miss = linear nohit in
      (* the cold path through the classifier: one probe per shape *)
      let t_lo = tuple lo in
      let t_miss = tuple nohit in
      (* same worst-case workloads through the cache: the probes vary
         only tp_src, which no rule constrains, so after one miss per
         destination every lookup is a megaflow hit *)
      let c_lo = cached lo in
      let c_miss = cached nohit in
      let m = Printf.sprintf "%d-rules" n in
      record ~experiment:"e2" ~metric:(m ^ "/linear-hit-lo-ns") hit_lo;
      record ~experiment:"e2" ~metric:(m ^ "/linear-miss-ns") miss;
      record ~experiment:"e2" ~metric:(m ^ "/tuple-hit-lo-ns") t_lo;
      record ~experiment:"e2" ~metric:(m ^ "/tuple-miss-ns") t_miss;
      record ~experiment:"e2" ~metric:(m ^ "/cached-hit-lo-ns") c_lo;
      record ~experiment:"e2" ~metric:(m ^ "/cached-miss-ns") c_miss;
      pf "%-10d | %12.0f %12.0f %12.0f | %11.0f %11.0f | %11.0f %11.0f@." n
        hit_hi hit_lo miss t_lo t_miss c_lo c_miss)
    sizes;
  (* worst case for tuple-space search: many shapes.  Prefix rules over
     five CIDR lengths; a cold miss probes every shape's hashtable. *)
  pf "@.mixed-shape table (ip4_dst prefixes over 5 CIDR lengths):@.@.";
  pf "%-10s | %8s | %12s %12s@." "rules" "shapes" "miss(ns)" "tuple-miss";
  pf "%s@." (String.make 50 '-');
  let lens = [| 16; 20; 24; 28; 32 |] in
  List.iter
    (fun n ->
      let table = Flow.Table.create () in
      for i = 1 to n do
        let len = lens.(i mod Array.length lens) in
        Flow.Table.add table
          (Flow.Table.make_rule ~priority:(n - i)
             ~pattern:
               { Flow.Pattern.any with
                 ip4_dst =
                   Some
                     (Packet.Ipv4.Prefix.make (Packet.Ipv4.of_host_id i) len) }
             ~actions:(Flow.Action.forward 1) ())
      done;
      (* true miss: destinations outside every 10/8 prefix *)
      let nohit () =
        Packet.Headers.set
          (Packet.Headers.tcp ~switch:1 ~in_port:1 ~src_host:1 ~dst_host:1
             ~tp_src:0 ~tp_dst:80)
          Packet.Fields.Ip4_dst
          (Packet.Ipv4.of_octets 11 (Util.Prng.int prng 256)
             (Util.Prng.int prng 256) 0)
      in
      let miss = time_lookups n table Flow.Table.lookup_linear nohit in
      let t_miss = time_lookups n table Flow.Table.lookup_tuple nohit in
      let m = Printf.sprintf "%d-rules" n in
      record ~experiment:"e2" ~metric:(m ^ "/mixed-linear-miss-ns") miss;
      record ~experiment:"e2" ~metric:(m ^ "/mixed-tuple-miss-ns") t_miss;
      pf "%-10d | %8d | %12.0f %12.0f@." n (Flow.Table.shape_count table) miss
        t_miss)
    sizes

(* cache overflow: once the working set exceeds the megaflow cache,
   CLOCK second-chance eviction should keep the hot headers resident.
   The top rule constrains eth_dst and tp_src, the two fields the hot
   and cold streams vary, so every distinct pair is its own entry. *)
let e2_overflow () =
  pf "@.cache overflow (hot set + cold stream > cache capacity):@.@.";
  pf "%-8s | %9s | %10s@." "policy" "hit-pct" "evictions";
  pf "%s@." (String.make 35 '-');
  let table = Flow.Table.create ~cache_entries:1024 () in
  Flow.Table.add table
    (Flow.Table.make_rule ~priority:1 ~pattern:Flow.Pattern.any
       ~actions:(Flow.Action.forward 1) ());
  Flow.Table.add table
    (Flow.Table.make_rule ~priority:5
       ~pattern:
         { Flow.Pattern.any with
           eth_dst = Some (Packet.Mac.of_host_id 1);
           tp_src = Some 0 }
       ~actions:(Flow.Action.forward 2) ());
  let probe dst tp_src =
    Packet.Headers.tcp ~switch:1 ~in_port:1 ~src_host:1 ~dst_host:dst
      ~tp_src ~tp_dst:80
  in
  (* 512 hot headers take 3/4 of lookups; the cold quarter streams
     through 8192 distinct headers, repeatedly overflowing the cache *)
  let hot = Array.init 512 (fun i -> probe (1 + (i / 64)) (i mod 64)) in
  let prng = Util.Prng.create 77 in
  for _ = 1 to 200_000 do
    let h =
      if Util.Prng.int prng 4 < 3 then hot.(Util.Prng.int prng 512)
      else probe (100 + Util.Prng.int prng 128) (1000 + Util.Prng.int prng 64)
    in
    ignore (Flow.Table.lookup table h)
  done;
  let hits = Flow.Table.cache_hits table
  and misses = Flow.Table.cache_misses table in
  let hit_pct = 100.0 *. float_of_int hits /. float_of_int (hits + misses) in
  record ~experiment:"e2" ~metric:"overflow-clock/cache-hit-pct" hit_pct;
  pf "%-8s | %8.1f%% | %10d@." "clock" hit_pct
    (Flow.Table.cache_evictions table)

let e2 () =
  e2_sizes [ 10; 100; 1000; 4000 ];
  e2_overflow ()

(* ------------------------------------------------------------------ *)
(* E3 — simulator throughput vs topology size *)

let e3 () =
  header "E3 — simulator packet throughput vs topology size";
  pf "expected shape: events/sec roughly constant (queue-bound), so pkts/sec@.";
  pf "falls with path length; larger topologies cost more per delivered packet.@.";
  pf "words/ev is minor-heap allocation per executed event (deterministic@.";
  pf "for a given build); promoted/ev is the part of it that a minor collection@.";
  pf "copied into the major heap.  Each row routes 32 fixed-port flows at@.";
  pf "500 pps for 1 s, except fattree:6, which carries 1000 flows at 1 kpps@.";
  pf "for 0.1 s (the shape of the benchmark's fwd-k6-flows).@.@.";
  pf "%-12s %8s %8s | %10s %10s | %12s %8s %11s@." "topology" "switches"
    "hosts" "delivered" "events" "events/s" "words/ev" "promoted/ev";
  pf "%s@." (String.make 89 '-');
  List.iter
    (fun (spec, flows, rate_pps, stop) ->
      let (net, events, words, promoted), t =
        best_of 5 (fun () ->
          let net = Scenarios.routed_flows ~flows ~rate_pps ~stop spec in
          (* [Gc.minor_words] counts to the word; [quick_stat]'s
             [minor_words] only moves at a minor collection *)
          let w0 = Gc.minor_words () and p0 = (Gc.quick_stat ()).promoted_words in
          let events, t = wall (fun () -> Zen.run net) in
          let words = Gc.minor_words () -. w0 in
          let promoted = (Gc.quick_stat ()).promoted_words -. p0 in
          ((net, events, words, promoted), t))
      in
      let stats = Dataplane.Network.stats (Zen.network net) in
      let eps = float_of_int events /. t in
      let per_event w = w /. float_of_int (max 1 events) in
      let wpe = per_event words and ppe = per_event promoted in
      record ~experiment:"e3" ~metric:(spec ^ "/events-per-sec") eps;
      record ~experiment:"e3" ~metric:(spec ^ "/words-per-event") wpe;
      record ~experiment:"e3" ~metric:(spec ^ "/promoted-per-event") ppe;
      pf "%-12s %8d %8d | %10d %10d | %12.0f %8.1f %11.2f@." spec
        (Topo.Topology.switch_count (Zen.topology net))
        (Topo.Topology.host_count (Zen.topology net))
        stats.delivered events eps wpe ppe)
    (List.map (fun spec -> (spec, 32, 500.0, 1.0))
       [ "ring:4"; "ring:16"; "ring:64"; "fattree:4"; "grid:6x6" ]
     @ [ ("fattree:6", 1000, 1000.0, 0.1) ])

(* ------------------------------------------------------------------ *)
(* E4 — reactive vs proactive control *)

let e4 () =
  header "E4 — reactive (learning) vs proactive (routing) control";
  pf "expected shape: reactive pays control-channel latency on first packets@.";
  pf "(~ms flow setup) and keeps punting; proactive pre-installs everything@.";
  pf "and sees zero packet-ins, at the cost of pushing all rules up front.@.";
  pf "Either way the dataplane flow cache absorbs repeated headers (hit rate@.";
  pf "polled from the switches by the monitoring app).@.@.";
  pf "%-10s | %12s %12s %10s %10s %10s %10s %10s@." "mode" "first(us)"
    "steady(us)" "pkt-ins" "ctl-msgs" "ctl-KB" "rules" "cache-hit";
  pf "%s@." (String.make 95 '-');
  let run_mode name apps get_rules =
    let topo = Topo.Gen.linear ~switches:4 ~hosts_per_switch:2 () in
    let net = Zen.create topo in
    let monitor = Controller.Monitor.create ~period:0.5 () in
    let _rt =
      Zen.with_controller net (apps () @ [ Controller.Monitor.app monitor ])
    in
    Dataplane.Traffic.install_responders (Zen.network net) ;
    (* 20 pings between far hosts; first is the cold path *)
    let result =
      Dataplane.Traffic.ping (Zen.network net) ~src:1 ~dst:8 ~count:20
        ~interval:0.05
    in
    ignore (Zen.run ~until:(Zen.now net +. 3.0) net);
    let rtts = List.rev_map snd !(result.rtts) in
    let first = match rtts with r :: _ -> r | [] -> nan in
    let steady =
      match List.rev rtts with r :: _ -> r | [] -> nan
    in
    let stats = Dataplane.Network.stats (Zen.network net) in
    let pkt_ins =
      List.fold_left
        (fun acc (sw : Dataplane.Network.switch) -> acc + sw.packet_ins)
        0
        (Dataplane.Network.switch_list (Zen.network net))
    in
    let rules =
      List.fold_left
        (fun acc (sw : Dataplane.Network.switch) ->
          acc + Flow.Table.size sw.table)
        0
        (Dataplane.Network.switch_list (Zen.network net))
    in
    let hits, misses, _invalidations =
      Controller.Monitor.cache_summary monitor
    in
    let hit_pct =
      100.0 *. float_of_int hits /. float_of_int (max 1 (hits + misses))
    in
    record ~experiment:"e4" ~metric:(name ^ "/cache-hit-pct") hit_pct;
    pf "%-10s | %12.0f %12.0f %10d %10d %10.1f %10d %9.1f%%@." name
      (first *. 1e6) (steady *. 1e6) pkt_ins stats.control_msgs
      (float_of_int stats.control_bytes /. 1024.0)
      (get_rules rules) hit_pct
  in
  run_mode "reactive"
    (fun () -> [ Controller.Learning.app (Controller.Learning.create ()) ])
    (fun r -> r);
  run_mode "proactive"
    (fun () -> [ Controller.Routing.app (Controller.Routing.create ()) ])
    (fun r -> r)

(* ------------------------------------------------------------------ *)
(* E5 — failover convergence *)

let e5 () =
  header "E5 — failover: loss and convergence after a link failure";
  pf "expected shape: outage lasts about one control RTT + recompute; loss@.";
  pf "scales with flow rate x outage; rule churn = the changed rules only.@.@.";
  pf "%-12s %10s | %10s %12s %10s %10s@." "topology" "rate(pps)" "lost"
    "outage(ms)" "churn" "reinstalls";
  pf "%s@." (String.make 74 '-');
  List.iter
    (fun (spec, rate) ->
      let topo = Topo.Gen.of_spec spec in
      let net = Zen.create topo in
      let routing = Controller.Routing.create () in
      let _rt = Zen.with_controller net [ Controller.Routing.app routing ] in
      (* a flow crossing the network; fail a link on its path at t=1 *)
      let dst_host = Topo.Topology.host_count topo / 2 in
      let arrivals = ref [] in
      (Dataplane.Network.host (Zen.network net) dst_host).on_receive <-
        Some (fun _ -> arrivals := Zen.now net :: !arrivals);
      let sent =
        Dataplane.Traffic.cbr (Zen.network net)
          { (Dataplane.Traffic.default_flow ~src:1 ~dst:dst_host) with
            rate_pps = rate; pkt_size = 500; stop = 3.0 }
      in
      (* the path's first inter-switch link *)
      let path =
        Option.get
          (Topo.Path.shortest_path topo ~src:(Topo.Topology.Node.Host 1)
             ~dst:(Topo.Topology.Node.Host dst_host))
      in
      let sw_hop =
        List.find
          (fun (h : Topo.Path.hop) ->
            Topo.Topology.Node.is_switch h.node
            && Topo.Topology.Node.is_switch h.next)
          path
      in
      Dataplane.Sim.schedule (Dataplane.Network.sim (Zen.network net))
        ~delay:1.0 (fun () ->
          Dataplane.Network.fail_link (Zen.network net) sw_hop.node
            sw_hop.out_port);
      ignore (Zen.run ~until:4.0 net);
      let received = List.length !arrivals in
      (* outage = largest inter-arrival gap in a window around the
         failure (in-flight packets keep arriving briefly after t=1.0) *)
      let outage =
        let sorted = List.sort compare !arrivals in
        let rec max_gap best prev = function
          | [] -> best
          | t :: rest ->
            let best =
              if prev >= 0.95 && prev <= 1.5 then max best (t -. prev)
              else best
            in
            max_gap best t rest
        in
        match sorted with [] -> nan | t0 :: rest -> max_gap 0.0 t0 rest
      in
      pf "%-12s %10.0f | %10d %12.2f %10d %10d@." spec rate (!sent - received)
        (ms outage)
        (Controller.Routing.last_churn routing)
        (Controller.Routing.reinstalls routing - 1))
    [ ("ring:6", 500.0); ("ring:6", 2000.0); ("fattree:4", 1000.0) ]

(* ------------------------------------------------------------------ *)
(* E6 — traffic engineering on the WAN *)

let e6 () =
  header "E6 — TE: carried traffic under load (B4-like WAN, gravity demands)";
  pf "expected shape: all equal under light load; at/after saturation the@.";
  pf "multipath schemes carry 15-40%% more than oblivious ECMP, and greedy@.";
  pf "protects priority-0 demands (B4's property) at some fairness cost.@.@.";
  let topo = Topo.Gen.b4 ~hosts_per_switch:0 () in
  let prng = Util.Prng.create 4242 in
  let base =
    Te.Demand.gravity ~prng ~switches:(Topo.Topology.switch_ids topo)
      ~total_rate:100e9 ~priorities:3 ()
  in
  pf "%-6s %9s | %9s %9s %9s | %7s %7s | %8s@." "load" "offered" "ecmp-G"
    "maxmin-G" "greedy-G" "g/e" "jain-g" "p0-sat";
  pf "%s@." (String.make 82 '-');
  List.iter
    (fun scale ->
      let demands = Te.Demand.scale scale base in
      let e = Te.Ecmp.solve topo demands in
      let m = Te.Maxmin.solve topo demands in
      let g = Te.Greedy_kpath.solve topo demands in
      let p0 =
        let xs =
          List.filter_map
            (fun (en : Te.Alloc.entry) ->
              if en.demand.priority = 0 then Some (Te.Alloc.satisfaction en)
              else None)
            g.entries
        in
        Util.Stats.mean xs
      in
      pf "%-6.2f %8.1fG | %8.1fG %8.1fG %8.1fG | %6.2fx %7.2f | %8.2f@." scale
        (Te.Demand.total demands /. 1e9)
        (Te.Alloc.carried e /. 1e9)
        (Te.Alloc.carried m /. 1e9)
        (Te.Alloc.carried g /. 1e9)
        (Te.Alloc.carried g /. Te.Alloc.carried e)
        (Te.Alloc.fairness g) p0)
    [ 0.25; 0.5; 1.0; 1.5; 2.0; 3.0; 4.0 ];
  pf "@.same sweep on Abilene (11 nodes):@.";
  let topo = Topo.Gen.abilene ~hosts_per_switch:0 () in
  let prng = Util.Prng.create 11 in
  let base =
    Te.Demand.gravity ~prng ~switches:(Topo.Topology.switch_ids topo)
      ~total_rate:100e9 ~priorities:3 ()
  in
  List.iter
    (fun scale ->
      let demands = Te.Demand.scale scale base in
      let e = Te.Ecmp.solve topo demands in
      let g = Te.Greedy_kpath.solve topo demands in
      pf "  load %.2f: ecmp %.1fG, greedy %.1fG (%.2fx)@." scale
        (Te.Alloc.carried e /. 1e9)
        (Te.Alloc.carried g /. 1e9)
        (Te.Alloc.carried g /. Te.Alloc.carried e))
    [ 1.0; 2.0; 4.0 ]

(* ------------------------------------------------------------------ *)
(* E7 — verification cost *)

let e7 () =
  header "E7 — header-space verification cost vs network size";
  pf "expected shape: per-pair reachability is near-linear in path length x@.";
  pf "rules; the full matrix scales with host pairs; loop checks walk the@.";
  pf "entire header space from every host and dominate.@.@.";
  pf "%-12s %7s %7s %7s | %12s %12s %10s@." "topology" "switch" "hosts"
    "rules" "matrix(ms)" "loops(ms)" "explored";
  pf "%s@." (String.make 78 '-');
  List.iter
    (fun spec ->
      let topo = Topo.Gen.of_spec spec in
      let net = Zen.create topo in
      let rules = Zen.install_policy net (Netkat.Builder.routing_policy topo) in
      let snap = Zen.snapshot net in
      let matrix, mt = wall (fun () -> Verify.Reach.reachability_matrix snap) in
      let _loops, lt = wall (fun () -> Verify.Reach.loop_free snap) in
      let explored =
        List.fold_left
          (fun acc src ->
            acc
            + (Verify.Reach.walk snap ~src ~cube:Verify.Hsa.top ()).explored)
          0 (Topo.Topology.host_ids topo)
      in
      pf "%-12s %7d %7d %7d | %12.1f %12.1f %10d@." spec
        (Topo.Topology.switch_count topo)
        (Topo.Topology.host_count topo)
        rules (ms mt) (ms lt) explored;
      ignore matrix)
    [ "linear:8"; "fattree:2"; "fattree:4"; "waxman:16:3" ]

(* ------------------------------------------------------------------ *)
(* E8 — codec throughput *)

(* the deterministic frame set shared by e8 and the pooled-encode gate *)
let e8_frames () =
  let mac i = Packet.Mac.of_host_id i and ip i = Packet.Ipv4.of_host_id i in
  Array.init 256 (fun i ->
    Packet.Frame.tcp_packet ~eth_src:(mac (i + 1)) ~eth_dst:(mac (i + 2))
      ~ip_src:(ip (i + 1)) ~ip_dst:(ip (i + 2)) ~tp_src:i ~tp_dst:80
      ~payload:(Bytes.make (64 + (i land 63)) 'x') ())

(* seconds for [iters] encodes cycling over [frames], allocating each
   result or writing into one reused scratch buffer *)
let e8_encode_times frames iters =
  let scratch =
    Bytes.create
      (Array.fold_left (fun a f -> max a (Packet.Frame.size f)) 0 frames)
  in
  ( time_iters iters (fun i ->
      ignore (Packet.Codec.encode frames.(i land 255))),
    time_iters iters (fun i ->
      ignore (Packet.Codec.encode_into frames.(i land 255) scratch 0)) )

let e8 () =
  header "E8 — wire codec throughput (packets and control messages)";
  pf "expected shape: the single-pass encoder writes each frame in one walk@.";
  pf "over the layers; encoding into a pooled buffer also skips the result@.";
  pf "allocation and should be the fastest row.  Control messages reach@.";
  pf "millions of msg/s (the wire writer reuses one per-domain buffer).@.@.";
  let mac i = Packet.Mac.of_host_id i in
  let frames = e8_frames () in
  let encoded = Array.map Packet.Codec.encode frames in
  let iters = 200_000 in
  let enc_t, encp_t = e8_encode_times frames iters in
  let dec_t =
    time_iters iters (fun i ->
      ignore (Packet.Codec.decode encoded.(i land 255)))
  in
  let bytes =
    Array.fold_left (fun a b -> a + Bytes.length b) 0 encoded * (iters / 256)
  in
  pf "%-22s | %12s %12s@." "codec" "ops/s" "MB/s";
  pf "%s@." (String.make 50 '-');
  let rate t = float_of_int iters /. t in
  let row name t =
    record ~experiment:"e8" ~metric:(name ^ "/ops-per-sec") (rate t);
    pf "%-22s | %12.0f %12.1f@." name (rate t)
      (float_of_int bytes /. t /. 1e6)
  in
  row "frame encode" enc_t;
  row "frame encode pooled" encp_t;
  row "frame decode" dec_t;
  (* control messages *)
  let fm =
    Openflow.Message.Flow_mod
      (Openflow.Message.add_flow ~priority:10
         ~pattern:{ Flow.Pattern.any with eth_dst = Some (mac 1) }
         ~actions:(Flow.Action.forward 2) ())
  in
  let fm_b = Openflow.Wire.encode ~xid:1 fm in
  let ofe_t =
    time_iters iters (fun _ -> ignore (Openflow.Wire.encode ~xid:1 fm))
  in
  let ofd_t = time_iters iters (fun _ -> ignore (Openflow.Wire.decode fm_b)) in
  (* a 16-message batch amortizes the wire writer's per-send cost *)
  let batch = List.init 16 (fun i -> (i + 1, fm)) in
  let ofb_t =
    time_iters (iters / 16) (fun _ -> ignore (Openflow.Wire.encode_batch batch))
  in
  let of_row name t iters_done len =
    let r = float_of_int iters_done /. t in
    record ~experiment:"e8" ~metric:(name ^ "/ops-per-sec") r;
    pf "%-22s | %12.0f %12.1f@." name r
      (float_of_int (len * iters_done) /. t /. 1e6)
  in
  of_row "flow_mod encode" ofe_t iters (Bytes.length fm_b);
  of_row "flow_mod decode" ofd_t iters (Bytes.length fm_b);
  of_row "flow_mod batch16" ofb_t (iters / 16 * 16) (Bytes.length fm_b)

(* ------------------------------------------------------------------ *)
(* E9 — consistent updates: naive vs two-phase *)

(* the port of [sw] whose (possibly down) link leads to [nbr] *)
let port_toward topo sw nbr =
  Topo.Topology.ports topo (Topo.Topology.Node.Switch sw)
  |> List.find (fun p ->
    match Topo.Topology.link_via topo (Topo.Topology.Node.Switch sw) p with
    | Some l -> l.dst = Topo.Topology.Node.Switch nbr
    | None -> false)

(* unicast policy along the current shortest path h_src -> h_dst *)
let path_policy topo ~src ~dst =
  let path =
    Option.get
      (Topo.Path.shortest_path topo ~src:(Topo.Topology.Node.Host src)
         ~dst:(Topo.Topology.Node.Host dst))
  in
  Netkat.Syntax.big_union
    (List.filter_map
       (fun (h : Topo.Path.hop) ->
         match h.node with
         | Topo.Topology.Node.Host _ -> None
         | Topo.Topology.Node.Switch sw ->
           Some
             (Netkat.Syntax.big_seq
                [ Netkat.Syntax.at ~switch:sw;
                  Netkat.Syntax.filter
                    (Netkat.Syntax.conj
                       (Netkat.Syntax.test Packet.Fields.Eth_src
                          (Packet.Mac.of_host_id src))
                       (Netkat.Syntax.test Packet.Fields.Eth_dst
                          (Packet.Mac.of_host_id dst)));
                  Netkat.Syntax.forward h.out_port ]))
       path)

(* E9's inconsistent baseline: every switch's table is replaced
   independently by a fresh cookie-0 compile, each after a random delay
   in [0, max_jitter], emulating the asynchronous rollout of real
   deployments, so in-flight packets can see mixed old/new forwarding.
   Returns the number of rules it adds. *)
let naive_rollout ctx ~prng ~max_jitter pol =
  let result =
    Netkat.Delta.compile
      ~switches:(Topo.Topology.switch_ids (Controller.Api.topology ctx))
      None (Netkat.Fdd.of_policy pol)
  in
  List.fold_left
    (fun adds (switch_id, change) ->
      let delay = Util.Prng.float prng max_jitter in
      Controller.Api.schedule ctx ~delay (fun () ->
        Controller.Api.send_flow_mods ctx ~switch_id
          (Controller.Api.change_flow_mods ~known:false change));
      match change with
      | Netkat.Delta.Changed { rules; _ } -> adds + List.length rules
      | Netkat.Delta.Unchanged -> adds)
    0 result.changes

let e9 () =
  header "E9 — consistent updates: naive switch-by-switch vs two-phase";
  pf "expected shape: rerouting a live flow by rewriting tables one switch@.";
  pf "at a time drops packets while the network is a mix of old and new@.";
  pf "policy; two-phase versioned update loses nothing but transiently@.";
  pf "doubles table occupancy.@.@.";
  (* ring:4 — h1 -> h3 has two disjoint 2-hop switch paths (via s2 / s4) *)
  let make_policies topo =
    let via_s4 = port_toward topo 1 4 in
    Topo.Topology.fail_link topo (Topo.Topology.Node.Switch 1, via_s4);
    let old_pol = path_policy topo ~src:1 ~dst:3 in
    Topo.Topology.restore_link topo (Topo.Topology.Node.Switch 1, via_s4);
    let via_s2 = port_toward topo 1 2 in
    Topo.Topology.fail_link topo (Topo.Topology.Node.Switch 1, via_s2);
    let new_pol = path_policy topo ~src:1 ~dst:3 in
    Topo.Topology.restore_link topo (Topo.Topology.Node.Switch 1, via_s2);
    (old_pol, new_pol)
  in
  pf "%-12s | %8s %8s %8s | %10s %10s@." "strategy" "sent" "lost"
    "ttl-drop" "peak-rules" "flowmods";
  pf "%s@." (String.make 66 '-');
  (* [initial] installs the old policy through the updater; [update]
     moves to the new one and returns the flow-mods it issued outside
     the updater's count *)
  let run name ~initial ~update =
    let topo = Topo.Gen.ring ~switches:4 ~hosts_per_switch:1 () in
    let old_pol, new_pol = make_policies topo in
    let net = Zen.create topo in
    let rt = Zen.with_controller net [] in
    let ctx = Controller.Runtime.ctx rt in
    let updater = Controller.Update.create ~drain:0.3 () in
    initial updater ctx old_pol;
    ignore (Zen.run ~until:(Zen.now net +. 0.2) net);
    let sent =
      Dataplane.Traffic.cbr (Zen.network net)
        { (Dataplane.Traffic.default_flow ~src:1 ~dst:3) with
          rate_pps = 2000.0; pkt_size = 500; start = Zen.now net;
          stop = Zen.now net +. 2.0 }
    in
    let extra_mods = ref 0 in
    Dataplane.Sim.schedule
      (Dataplane.Network.sim (Zen.network net))
      ~delay:1.0
      (fun () -> extra_mods := update updater ctx new_pol);
    ignore (Zen.run ~until:(Zen.now net +. 3.5) net);
    let stats = Dataplane.Network.stats (Zen.network net) in
    let received = (Dataplane.Network.host (Zen.network net) 3).received in
    pf "%-12s | %8d %8d %8d | %10d %10d@." name !sent (!sent - received)
      stats.dropped_ttl
      (Controller.Update.peak_rules updater)
      (Controller.Update.installs updater + !extra_mods)
  in
  let two_phase updater ctx pol =
    Controller.Update.transition updater ctx (Local pol)
  in
  run "naive" ~initial:Controller.Update.install_plain
    ~update:(fun _ ctx pol ->
      naive_rollout ctx ~prng:(Util.Prng.create 99) ~max_jitter:0.05 pol);
  run "two-phase" ~initial:two_phase ~update:(fun updater ctx pol ->
    two_phase updater ctx pol;
    0)

(* ------------------------------------------------------------------ *)
(* E10 — incremental (delta) routing updates *)

let e10 () =
  header "E10 — failover churn: delta updates after a core-link failure";
  pf "expected shape: one link failure affects a few destinations; the@.";
  pf "delta installer touches an order of magnitude fewer rules than the@.";
  pf "initial push, and every host pair stays reachable.@.@.";
  pf "%10s %12s %12s | %12s@." "initial" "fail-churn" "restore-churn"
    "reachable";
  pf "%s@." (String.make 53 '-');
  let topo, info = Topo.Gen.fat_tree ~k:4 () in
  let net = Zen.create topo in
  let routing = Controller.Routing.create () in
  let _rt = Zen.with_controller net [ Controller.Routing.app routing ] in
  let initial = Controller.Routing.last_churn routing in
  let core = Topo.Topology.Node.Switch (List.hd info.core) in
  Dataplane.Network.fail_link (Zen.network net) core 1;
  ignore (Zen.run ~until:(Zen.now net +. 0.5) net);
  let fail_churn = Controller.Routing.last_churn routing in
  Dataplane.Network.restore_link (Zen.network net) core 1;
  ignore (Zen.run ~until:(Zen.now net +. 0.5) net);
  let restore_churn = Controller.Routing.last_churn routing in
  let matrix = Verify.Reach.reachability_matrix (Zen.snapshot net) in
  let reachable = List.length (List.filter snd matrix) in
  pf "%10d %12d %12d | %9d/%d@." initial fail_churn restore_churn reachable
    (List.length matrix)

(* ------------------------------------------------------------------ *)
(* E11 — flow-table minimization *)

let e11 () =
  header "E11 — flow-table minimization (dead + redundant rule removal)";
  pf "expected shape: baseline-compiled tables shrink substantially (they@.";
  pf "carry duplicated and shadowed rules); FDD-compiled tables are already@.";
  pf "near-minimal; random tables shrink by whatever redundancy was drawn.@.@.";
  pf "%-34s | %8s %8s %8s@." "table" "before" "after" "saved";
  pf "%s@." (String.make 64 '-');
  let row name rules =
    let before = List.length rules in
    let after = List.length (Flow.Optimize.minimize rules) in
    pf "%-34s | %8d %8d %7.0f%%@." name before after
      (100.0 *. float_of_int (before - after) /. float_of_int (max 1 before))
  in
  (* redundant unions through the naive compiler *)
  let dup_policy =
    Netkat.Syntax.big_union
      (List.concat
         (List.init 8 (fun _ ->
            List.init 8 (fun i ->
              Netkat.Syntax.seq
                (Netkat.Syntax.filter
                   (Netkat.Syntax.test Packet.Fields.Tp_dst (i + 1)))
                (Netkat.Syntax.forward ((i mod 3) + 1))))))
  in
  row "naive: 8x-duplicated ACL" (Netkat.Naive.compile ~switch:1 dup_policy);
  let topo, _ = Topo.Gen.fat_tree ~k:4 () in
  row "naive: acl8 x routing (s9)"
    (Netkat.Naive.compile ~switch:9 (Scenarios.allowlist_policy topo 8));
  row "fdd: routing fat-tree (s9)"
    (Netkat.Local.compile ~switch:9 (Netkat.Builder.routing_policy topo));
  row "fdd: fw8-denylist (s9)"
    (Netkat.Local.compile ~switch:9 (denylist_policy topo 8));
  (* random tables: mostly-exact rules over a few fields, few actions *)
  let prng = Util.Prng.create 31 in
  let random_rules n =
    List.init n (fun _ ->
      let pattern =
        match Util.Prng.int prng 4 with
        | 0 -> Flow.Pattern.any
        | 1 -> Flow.Pattern.of_field Packet.Fields.Tp_dst (Util.Prng.int prng 8)
        | 2 -> Flow.Pattern.of_field Packet.Fields.In_port (Util.Prng.int prng 4)
        | _ ->
          (match
             Flow.Pattern.conj
               (Flow.Pattern.of_field Packet.Fields.Tp_dst (Util.Prng.int prng 8))
               (Flow.Pattern.of_field Packet.Fields.In_port (Util.Prng.int prng 4))
           with
           | Some p -> p
           | None -> Flow.Pattern.any)
      in
      (pattern, Flow.Action.forward (1 + Util.Prng.int prng 3)))
  in
  row "random: 500 rules, 3 actions" (random_rules 500)

(* ------------------------------------------------------------------ *)
(* E12 — TE allocations validated in the dataplane *)

let e12 () =
  header "E12 — analytic TE allocation vs packet-level simulation";
  pf "expected shape: realizing an allocation as per-subflow forwarding@.";
  pf "rules and replaying it at packet granularity reproduces the analytic@.";
  pf "throughput within CBR quantization (a few percent).@.@.";
  pf "%-10s | %10s %12s %12s %9s@." "scheme" "demands" "alloc(Mb/s)"
    "meas(Mb/s)" "accuracy";
  pf "%s@." (String.make 60 '-');
  (* miniature-capacity B4 so packet simulation is tractable *)
  let topo = Topo.Gen.b4 ~capacity:1e6 () in
  let prng = Util.Prng.create 12 in
  let demands =
    Te.Demand.gravity ~prng ~switches:(Topo.Topology.switch_ids topo)
      ~total_rate:8e6 ()
  in
  List.iter
    (fun (name, alloc) ->
      let m = Zen.Wan.validate ~subflows:4 ~pkt_size:250 ~duration:2.0 topo alloc in
      let total_alloc =
        List.fold_left (fun a (r : Zen.Wan.measurement) -> a +. r.allocated) 0.0 m
      in
      let total_meas =
        List.fold_left (fun a (r : Zen.Wan.measurement) -> a +. r.measured) 0.0 m
      in
      pf "%-10s | %10d %12.2f %12.2f %9.2f@." name (List.length m)
        (total_alloc /. 1e6) (total_meas /. 1e6) (Zen.Wan.accuracy m))
    [ ("greedy", Te.Greedy_kpath.solve topo demands);
      ("maxmin", Te.Maxmin.solve topo demands) ]

(* ------------------------------------------------------------------ *)
(* E13 — core-table state: destination routing vs label tunnels *)

let e13 () =
  header "E13 — core-table state: destination routing vs label-switched tunnels";
  pf "expected shape: destination routing keeps one rule per host at every@.";
  pf "switch, so core state grows with hosts; edge-to-edge tunnels keep one@.";
  pf "rule per tunnel in the core — constant in host count (the MPLS/@.";
  pf "segment-routing aggregation argument).@.@.";
  pf "%-22s %8s | %14s %14s | %14s %14s@." "topology" "hosts"
    "route-core" "route-edge" "tunnel-core" "tunnel-edge";
  pf "%s@." (String.make 96 '-');
  List.iter
    (fun hosts_per_leaf ->
      let leaves = 4 and spines = 2 in
      let mk () = Topo.Gen.leaf_spine ~leaves ~spines ~hosts_per_leaf () in
      (* routing *)
      let net_r = Zen.create (mk ()) in
      ignore
        (Zen.install_policy net_r (Netkat.Builder.routing_policy (Zen.topology net_r)));
      let table_size net sw =
        Flow.Table.size (Dataplane.Network.switch (Zen.network net) sw).table
      in
      let route_core = table_size net_r 1 in
      let route_edge = table_size net_r (spines + 1) in
      (* tunnels *)
      let net_t = Zen.create (mk ()) in
      let tunnels = Controller.Tunnel.create () in
      let _rt = Zen.with_controller net_t [ Controller.Tunnel.app tunnels ] in
      let tunnel_core = table_size net_t 1 in
      let tunnel_edge = table_size net_t (spines + 1) in
      pf "%-22s %8d | %14d %14d | %14d %14d@."
        (Printf.sprintf "leafspine:%d:%d" leaves spines)
        (leaves * hosts_per_leaf) route_core route_edge tunnel_core
        tunnel_edge)
    [ 2; 8; 32 ]

(* ------------------------------------------------------------------ *)
(* E14 — reliable transport: goodput vs window vs queue depth *)

let e14 () =
  header "E14 — reliable transport (go-back-N) goodput vs window and queue";
  pf "expected shape: goodput rises with window until the path is full@.";
  pf "(bandwidth-delay product), then flattens; past the queue's capacity@.";
  pf "larger windows add loss and retransmissions without adding goodput.@.@.";
  let run ?fault ~queue_depth ~window ~rto ~backoff ~total () =
    let topo = Topo.Gen.linear ~switches:2 ~hosts_per_switch:1 () in
    let net = Dataplane.Network.create ~queue_depth ?fault topo in
    Controller.Api.load_delta ~previous:None
      ~table_of:(fun id -> (Dataplane.Network.switch net id).table)
      (Netkat.Delta.compile_policy ~switches:(Topo.Topology.switch_ids topo)
         None (Netkat.Builder.routing_policy topo));
    let c =
      Dataplane.Transport.start net ~src:1 ~dst:2 ~total ~window ~rto ~backoff
        ~max_retx:20_000 ()
    in
    ignore (Dataplane.Network.run ~until:120.0 net ());
    (c, net)
  in
  pf "%-8s %-8s | %12s %10s %10s@." "queue" "window" "goodput(Mb/s)"
    "retx" "q-drops";
  pf "%s@." (String.make 56 '-');
  List.iter
    (fun queue_depth ->
      List.iter
        (fun window ->
          let c, net =
            run ~queue_depth ~window ~rto:0.005 ~backoff:2.0 ~total:2000 ()
          in
          let s = Dataplane.Transport.stats c in
          pf "%-8d %-8d | %12.1f %10d %10d@." queue_depth window
            (Dataplane.Transport.goodput c /. 1e6)
            s.retransmissions
            (Dataplane.Network.stats net).dropped_queue)
        [ 1; 4; 16; 64 ])
    [ 8; 64 ];
  pf "@.with 20%% per-link loss (seed 77), queue 64, window 32 and the@.";
  pf "initial RTO set below the loaded RTT: every timed packet is resent@.";
  pf "before its ACK, so Karn's rule takes no RTT sample and the timer@.";
  pf "cannot adapt.  Without backoff it keeps re-offering whole windows@.";
  pf "while ACKs are in flight; capped exponential backoff grows past the@.";
  pf "real RTT and retransmits far less.@.@.";
  pf "%-12s | %12s %10s %10s@." "rto-policy" "goodput(Mb/s)" "retx"
    "chaos-drops";
  pf "%s@." (String.make 52 '-');
  List.iter
    (fun (name, backoff) ->
      let fault = Dataplane.Fault.create ~seed:77 ~link_drop:0.2 () in
      let c, net =
        run ~fault ~queue_depth:64 ~window:32 ~rto:1e-4 ~backoff ~total:1000 ()
      in
      let s = Dataplane.Transport.stats c in
      pf "%-12s | %12.1f %10d %10d@." name
        (Dataplane.Transport.goodput c /. 1e6)
        s.retransmissions
        (Dataplane.Network.stats net).dropped_chaos;
      record ~experiment:"e14" ~metric:(name ^ "/retx-under-loss")
        (float_of_int s.retransmissions))
    [ ("fixed", 1.0); ("backoff-2x", 2.0) ]

(* ------------------------------------------------------------------ *)
(* E9-chaos — delivery and recovery under control-plane chaos *)

let e9_chaos () =
  header "E9-chaos — delivery and recovery under control-plane chaos";
  pf "expected shape: with a clean control channel the crash/flap scenario@.";
  pf "still reconverges (keepalives detect the outage, resync repushes the@.";
  pf "intended table) with zero retransmits; as loss/duplication grow, the@.";
  pf "reliable stream retransmits until acked and every table still ends@.";
  pf "equal to intended state, at a bounded recovery-time cost.@.@.";
  pf "%-22s | %7s %9s %7s %6s %8s %8s %6s@." "config" "sent" "delivered"
    "ratio" "retx" "resyncs" "p50-rec" "conv";
  pf "%s@." (String.make 86 '-');
  List.iter
    (fun (name, drop, dup, jitter) ->
      let r =
        Scenarios.chaos_ring ~flaps:true
          (Dataplane.Fault.create ~seed:1005 ~drop ~dup ~jitter ())
      in
      let ratio = Scenarios.delivery_ratio r in
      let p50 =
        match r.c_recoveries with
        | [] -> 0.0
        | ts -> Util.Stats.percentile ts 50.0
      in
      pf "%-22s | %7d %9d %6.1f%% %6d %8d %7.3fs %6s@." name r.c_sent
        r.c_delivered (100.0 *. ratio) r.c_retransmits r.c_resyncs p50
        (if r.c_diverged = [] then "yes" else "NO");
      record ~experiment:"e9-chaos" ~metric:(name ^ "/delivery-pct")
        (100.0 *. ratio);
      record ~experiment:"e9-chaos" ~metric:(name ^ "/retransmits")
        (float_of_int r.c_retransmits);
      record ~experiment:"e9-chaos" ~metric:(name ^ "/recovery-p50-ms")
        (p50 *. 1e3))
    [ ("zero-chaos", 0.0, 0.0, 0.0);
      ("drop-10", 0.1, 0.0, 0.0);
      ("drop-20-dup-5-jit-1ms", 0.2, 0.05, 1e-3) ]

(* ------------------------------------------------------------------ *)
(* E15 — sharded parallel simulation: throughput + pinned equivalence *)

(* Fill flow tables by BFS next-hop toward every host, bypassing the
   NetKAT compiler: E15 measures the {e simulator}, and FDD compilation
   of full fat-tree routing dominates setup at k >= 8.  [table_of sw]
   supplies the table owning switch [sw] (plain or sharded). *)
let e15_install_routes topo table_of =
  List.iter
    (fun dst ->
      let pred = Topo.Path.bfs topo ~src:(Topo.Topology.Node.Host dst) in
      let pattern =
        Flow.Pattern.of_field Packet.Fields.Ip4_dst
          (Packet.Ipv4.of_host_id dst)
      in
      Hashtbl.iter
        (fun n (h : Topo.Path.hop) ->
          match n with
          | Topo.Topology.Node.Switch sw ->
            (* [h] is the hop that first reached [sw] from the
               destination side, so [h.in_port] points back toward
               [dst] *)
            Flow.Table.add (table_of sw)
              (Flow.Table.make_rule ~priority:100 ~pattern
                 ~actions:(Flow.Action.forward h.in_port) ())
          | _ -> ())
        pred)
    (Topo.Topology.host_ids topo)

(* staggered long-lived CBR pairs: tie-free (see Dataplane.Shard), so
   sharded and single-domain runs are byte-equivalent *)
let e15_specs topo ~flows ~rate_pps ~stop =
  let prng = Util.Prng.create 77 in
  let host_ids = Array.of_list (Topo.Topology.host_ids topo) in
  Dataplane.Traffic.random_pair_specs ~fixed_ports:true
    ~stagger:(stop /. 4.0) ~prng ~host_ids ~flows ~rate_pps ~pkt_size:500
    ~stop ()

let e15_until stop = stop +. 0.1

(* single-domain reference run: same topo, routes and specs *)
let e15_run_single spec ~flows ~rate_pps ~stop =
  let topo = Topo.Gen.of_spec spec in
  let net = Dataplane.Network.create topo in
  e15_install_routes topo (fun sw -> (Dataplane.Network.switch net sw).table);
  List.iter
    (fun s -> ignore (Dataplane.Traffic.cbr net s))
    (e15_specs topo ~flows ~rate_pps ~stop);
  let events, t =
    wall (fun () -> Dataplane.Network.run ~until:(e15_until stop) net ())
  in
  ((Dataplane.Shard.net_signature topo [ net ], events), t)

let e15_run_sharded spec ~shards ~flows ~rate_pps ~stop =
  let topo = Topo.Gen.of_spec spec in
  let t = Dataplane.Shard.create ~shards topo in
  e15_install_routes topo (fun sw ->
    (Dataplane.Network.switch (Dataplane.Shard.net_of_switch t sw) sw).table);
  List.iter
    (fun (s : Dataplane.Traffic.flow_spec) ->
      ignore (Dataplane.Traffic.cbr (Dataplane.Shard.net_of_host t s.src) s))
    (e15_specs topo ~flows ~rate_pps ~stop);
  let events, wall_t =
    wall (fun () -> Dataplane.Shard.run ~until:(e15_until stop) t)
  in
  ((Dataplane.Shard.signature t, events, t), wall_t)

let e15 () =
  header "E15 — sharded simulation: events/s vs shard count";
  pf "expected shape: observable results (delivery counters, tables, port@.";
  pf "stats) byte-equal at every shard count.  Every shard's window runs on@.";
  pf "the calling domain, so the sharded rows measure the conservative@.";
  pf "loop's overhead (rounds, mailbox handoffs) against one domain.@.";
  pf "Cross-shard handoffs add bookkeeping events, so the sharded event@.";
  pf "count exceeds the single-domain count by exactly the handoffs.@.@.";
  let rows =
    [ ("fattree:4", 200, 500.0, 0.2, [ 1; 2; 4 ]);
      ("fattree:8", 1000, 200.0, 0.2, [ 1; 2; 4 ]) ]
  in
  pf "%-12s %8s %7s | %10s %12s %9s %8s %7s@." "topology" "flows" "shards"
    "events" "events/s" "handoffs" "windows" "equal";
  pf "%s@." (String.make 84 '-');
  List.iter
    (fun (spec, flows, rate_pps, stop, shard_counts) ->
      let (ref_sig, ref_events), ref_t =
        best_of 3 (fun () -> e15_run_single spec ~flows ~rate_pps ~stop)
      in
      pf "%-12s %8d %7s | %10d %12.0f %9s %8s %7s@." spec flows "-" ref_events
        (float_of_int ref_events /. ref_t) "-" "-" "-";
      record ~experiment:"e15" ~metric:(spec ^ "/single-events-per-sec")
        (float_of_int ref_events /. ref_t);
      List.iter
        (fun shards ->
          let (s, events, t), wall_t =
            best_of 3 (fun () ->
              e15_run_sharded spec ~shards ~flows ~rate_pps ~stop)
          in
          let equal = s = ref_sig in
          pf "%-12s %8d %7d | %10d %12.0f %9d %8d %7s@." spec flows shards
            events
            (float_of_int events /. wall_t)
            (Dataplane.Shard.handoffs t)
            (Dataplane.Shard.rounds t)
            (if equal then "yes" else "NO");
          record ~experiment:"e15"
            ~metric:(Printf.sprintf "%s/shards-%d/events-per-sec" spec shards)
            (float_of_int events /. wall_t);
          if not equal then begin
            pf "E15 FAILURE: %s at %d shards diverges from single-domain@."
              spec shards;
            exit 1
          end)
        shard_counts)
    rows

(* ------------------------------------------------------------------ *)
(* E16 — link-level data chaos: route-around-crash + crash resync *)

let e16 () =
  header "E16 — link-level chaos: delivery, route-around-crash, reconvergence";
  pf "expected shape: per-link drop/corrupt/reorder verdicts thin delivery@.";
  pf "but every corrupted frame is counted and discarded (never mis-parsed),@.";
  pf "the mid-run switch crash is detected by keepalives and routed around@.";
  pf "(reroutes >= 1), and every table reconverges to intended state.@.@.";
  pf "%-28s | %7s %9s %7s %7s %7s %7s %4s %5s@." "config" "sent" "delivered"
    "ratio" "drops" "corrupt" "reorder" "rr" "conv";
  pf "%s@." (String.make 94 '-');
  List.iter
    (fun (name, link_drop, link_corrupt, link_reorder) ->
      let r =
        Scenarios.chaos_ring ~flaps:false
          (Dataplane.Fault.create ~seed:4242 ~link_drop ~link_corrupt
             ~link_reorder ())
      in
      let drops, corrupts, reorders = r.c_link_chaos in
      let ratio = Scenarios.delivery_ratio r in
      pf "%-28s | %7d %9d %6.1f%% %7d %7d %7d %4d %5s@." name r.c_sent
        r.c_delivered (100.0 *. ratio) drops corrupts reorders r.c_reroutes
        (if r.c_diverged = [] then "yes" else "NO");
      record ~experiment:"e16" ~metric:(name ^ "/delivery-pct")
        (100.0 *. ratio);
      record ~experiment:"e16" ~metric:(name ^ "/reroutes")
        (float_of_int r.c_reroutes))
    [ ("clean", 0.0, 0.0, 0.0);
      ("link-drop-5", 0.05, 0.0, 0.0);
      ("drop-10-corrupt-2-reorder-5", 0.1, 0.02, 0.05) ]

(* ------------------------------------------------------------------ *)
(* E17 — delta recompilation under policy churn *)

(* one timed install of [fdd] into [net]; drains GC debt from the
   (untimed) FDD composition first so collector slices don't land inside
   the timed window *)
let e17_time_install net fdd =
  Gc.major ();
  snd (wall (fun () -> ignore (Zen.install_fdd net fdd)))

(* the headline single-rule-edit latency: one seeded edit applied to a
   freshly-installed deployment, against installing the edited policy on
   a fresh network; best of [rounds] each (fresh state every round — a
   repeated delta edit would be a no-op — shared by both timings).
   Returns (fresh, delta). *)
let e17_single ~k ~seed ~rounds =
  let runs =
    List.init rounds (fun _ ->
      Netkat.Fdd.clear_cache ();
      let topo, _ = Topo.Gen.fat_tree ~k () in
      let base = Netkat.Builder.routing_policy topo in
      let net = Zen.create topo in
      ignore (Zen.install_fdd net (Netkat.Fdd.of_policy base));
      let next =
        Netkat.Fdd.of_policy
          (Scenarios.apply_edit base
             (List.hd (Scenarios.churn_edits ~seed ~edits:1 topo)))
      in
      let delta = e17_time_install net next in
      (e17_time_install (Zen.create topo) next, delta))
  in
  let best pick =
    List.fold_left (fun t r -> Float.min t (pick r)) infinity runs
  in
  (best fst, best snd)

let e17 () =
  header "E17 — delta recompilation under policy churn";
  pf "expected shape: a single-rule edit on a fat-tree deployment leaves@.";
  pf "all but one switch uid-unchanged, so the delta path re-derives one@.";
  pf "table and pushes a handful of flow-mods where installing the same@.";
  pf "policy on a fresh network compiles and loads everything — >=10x@.";
  pf "lower edit latency and orders of magnitude fewer bytes than a full@.";
  pf "re-push (the netkat.delta tests check the tables).@.@.";
  let k = 8 and seed = 42 and edits = 32 in
  let nick = Printf.sprintf "fattree-k%d" k in
  let rules, full_b, delta_b, skipped =
    Scenarios.churn_accounting ~k ~seed ~edits
  in
  let fresh, delta = e17_single ~k ~seed ~rounds:5 in
  pf "%s, %d edits: %d rules after the last, %d switch-skips@.@." nick
    edits rules skipped;
  pf "%-8s | %16s | %14s@." "path" "single edit (ms)" "flow-mod bytes";
  pf "%s@." (String.make 44 '-');
  pf "%-8s | %16.3f | %14d@." "fresh" (ms fresh) full_b;
  pf "%-8s | %16.3f | %14d@." "delta" (ms delta) delta_b;
  pf "%-8s | %15.1fx | %13.0fx@." "ratio" (fresh /. delta)
    (float_of_int full_b /. float_of_int (max 1 delta_b));
  List.iter
    (fun (metric, v) -> record ~experiment:"e17" ~metric:(nick ^ metric) v)
    [ ("/rules", float_of_int rules);
      ("/single-edit-fresh-ms", ms fresh);
      ("/single-edit-delta-ms", ms delta);
      ("/full-flowmod-bytes", float_of_int full_b);
      ("/delta-flowmod-bytes", float_of_int delta_b) ]

(* ------------------------------------------------------------------ *)
(* E18 — adaptive window sizing vs the fixed min-lookahead barrier *)

(* dense chains in the [dense] sites, a trickle in the [light] ones,
   silence elsewhere: a uniform barrier would step the whole fabric at
   the min cross-shard lookahead while the loaded shards have far more
   safe slack than that *)
let e18_specs ~dense ~light ~stop =
  List.concat_map
    (fun site ->
      Scenarios.site_flows ~site ~flows:6 ~rate_pps:5000.0
        ~start:(0.0107 +. (float_of_int site *. 13e-6)) ~stop)
    dense
  @ List.concat_map
      (fun site ->
        Scenarios.site_flows ~site ~flows:2 ~rate_pps:500.0
          ~start:(0.0131 +. (float_of_int site *. 13e-6)) ~stop)
      light

type e18_obs = {
  e_sig : string;
  e_chaos : string list;
  e_events : int;
  e_rounds : int;
  e_stalls : int;
  e_wall : float;
}

let e18_chaos seed =
  Dataplane.Fault.make_config ~seed ~link_drop:0.05 ~link_corrupt:0.02
    ~link_reorder:0.05 ()

let e18_run ~sites ~dense ~light ~stop ~until ?chaos how =
  let topo = Scenarios.multi_site_topo ~sites () in
  let specs = e18_specs ~dense ~light ~stop in
  match how with
  | `Single ->
    let fault = Option.map Dataplane.Fault.of_config chaos in
    let net = Dataplane.Network.create ?fault topo in
    e15_install_routes topo (fun sw -> (Dataplane.Network.switch net sw).table);
    List.iter (fun s -> ignore (Dataplane.Traffic.cbr net s)) specs;
    let events, t = wall (fun () -> Dataplane.Network.run ~until net ()) in
    { e_sig = Dataplane.Shard.net_signature topo [ net ];
      e_chaos =
        (match Dataplane.Network.fault net with
         | Some f -> List.sort compare (Dataplane.Fault.events f)
         | None -> []);
      e_events = events; e_rounds = 0; e_stalls = 0; e_wall = t }
  | `Sharded shards ->
    let t = Dataplane.Shard.create ?fault_config:chaos ~shards topo in
    e15_install_routes topo (fun sw ->
      (Dataplane.Network.switch (Dataplane.Shard.net_of_switch t sw) sw).table);
    List.iter
      (fun (s : Dataplane.Traffic.flow_spec) ->
        ignore (Dataplane.Traffic.cbr (Dataplane.Shard.net_of_host t s.src) s))
      specs;
    let events, wall_t = wall (fun () -> Dataplane.Shard.run ~until t) in
    { e_sig = Dataplane.Shard.signature t;
      e_chaos = List.sort compare (Dataplane.Shard.chaos_events t);
      e_events = events;
      e_rounds = Dataplane.Shard.rounds t;
      e_stalls = Dataplane.Shard.stalls t;
      e_wall = wall_t }

let e18 () =
  header "E18 — adaptive windows on a heterogeneous-delay fabric";
  let sites = 4 and stop = 0.05 in
  let until = 0.06 in
  let e18_run ~sites ~stop ~until ?chaos how =
    e18_run ~sites ~dense:[ 2; 3 ] ~light:[ 0 ] ~stop ~until ?chaos how
  in
  pf "4-site fabric: dense CBR in the two long-haul sites (1 ms links), \
      a trickle at site 0; the idle metro pair pins the global \
      lookahead at 20 us@.";
  let single = e18_run ~sites ~stop ~until `Single in
  pf "%-28s %9s %9s %9s %9s@." "config" "events" "rounds" "stalls" "wall-ms";
  pf "%-28s %9d %9s %9s %9.1f@." "single-domain" single.e_events "-" "-"
    (ms single.e_wall);
  List.iter
    (fun shards ->
      let r = e18_run ~sites ~stop ~until (`Sharded shards) in
      let name = Printf.sprintf "shards-%d/adaptive" shards in
      pf "%-28s %9d %9d %9d %9.1f@." name r.e_events r.e_rounds r.e_stalls
        (ms r.e_wall);
      if r.e_sig <> single.e_sig then begin
        pf "FAILURE: %s diverged from the single-domain run@." name;
        exit 1
      end;
      record ~experiment:"e18" ~metric:(name ^ "/rounds")
        (float_of_int r.e_rounds);
      record ~experiment:"e18" ~metric:(name ^ "/stalls")
        (float_of_int r.e_stalls))
    [ 1; 2; 4 ];
  (* link-level chaos replays byte-identically at every shard count *)
  let chaos = e18_chaos 4242 in
  let csingle = e18_run ~sites ~stop ~until ~chaos `Single in
  List.iter
    (fun shards ->
      let r = e18_run ~sites ~stop ~until ~chaos (`Sharded shards) in
      if r.e_sig <> csingle.e_sig || r.e_chaos <> csingle.e_chaos then begin
        pf "FAILURE: chaos run diverged at %d shards@." shards;
        exit 1
      end)
    [ 1; 2; 4 ];
  pf "link chaos (drop/corrupt/reorder) byte-identical at 1/2/4 shards@."

(* ------------------------------------------------------------------ *)
(* E19 — replicated controller: leader-lease failover and fencing *)

let e19_chaos_levels =
  [ ("drop-10", 0.10, 0.0, 0.0);
    ("drop-20-dup-5-jitter", 0.20, 0.05, 1e-3) ]

let e19_seeds = List.init 12 (fun i -> 7000 + i)

let e19 () =
  header "E19 — replicated controller: failover time and divergence";
  pf "expected shape: the standby detects the expired lease within the@.";
  pf "stagger bound and re-adopts every switch in a handful of heartbeat@.";
  pf "intervals (the new leader re-pushes every table from its replica);@.";
  pf "chaos stretches the tail but never yields divergence.@.@.";
  pf "%-22s | %5s %8s %8s %8s %5s@." "chaos" "runs" "p50(s)" "p95(s)"
    "p99(s)" "conv";
  pf "%s@." (String.make 66 '-');
  List.iter
    (fun (name, drop, dup, jitter) ->
      let results =
        List.map
          (fun seed -> Scenarios.failover_ring ~seed ~drop ~dup ~jitter ())
          e19_seeds
      in
      let samples = List.concat_map (fun r -> r.Scenarios.f_samples) results in
      let diverged =
        List.concat_map (fun r -> r.Scenarios.f_diverged) results
      in
      let complete =
        List.for_all
          (fun r ->
            let f, c, _, _ = r.Scenarios.f_repl in
            f = 1 && c = 1)
          results
      in
      pf "%-22s | %5d %8.3f %8.3f %8.3f %5s@." name (List.length results)
        (Util.Stats.percentile samples 50.0)
        (Util.Stats.percentile samples 95.0)
        (Util.Stats.percentile samples 99.0)
        (if diverged = [] && complete then "yes" else "NO");
      record ~experiment:"e19" ~metric:(name ^ "/failover-p50")
        (Util.Stats.percentile samples 50.0);
      record ~experiment:"e19" ~metric:(name ^ "/failover-p95")
        (Util.Stats.percentile samples 95.0);
      record ~experiment:"e19" ~metric:(name ^ "/failover-p99")
        (Util.Stats.percentile samples 99.0);
      record ~experiment:"e19" ~metric:(name ^ "/diverged")
        (float_of_int (List.length diverged)))
    e19_chaos_levels

(* ------------------------------------------------------------------ *)
(* gates — the CI wall-time bounds *)

(* Every correctness check runs under [dune runtest]; these four bounds
   compare two timings taken in one process, which a loaded test run
   would flake.  The relative bounds allow 1.25x + 2 ms: the headroom
   absorbs GC pauses and single-CPU runners (where two domains
   time-share one core).  Exits 1 if any bound is missed. *)
let gates () =
  header "gates — wall-time bounds";
  let failed = ref 0 in
  let gate name ok detail =
    pf "%-44s %-4s %s@." name (if ok then "ok" else "FAIL") detail;
    record ~experiment:"gates" ~metric:name (if ok then 1.0 else 0.0);
    if not ok then incr failed
  in
  let no_slower name ~base t =
    gate name
      (t <= (base *. 1.25) +. 2e-3)
      (Printf.sprintf "%.2f ms vs %.2f ms (<= 1.25x + 2 ms)" (ms t) (ms base))
  in
  let table = e2_table 100 and prng = Util.Prng.create 5 in
  let nohit () = e2_probe prng (101 + Util.Prng.int prng 1000) in
  let linear = time_lookups 100 table Flow.Table.lookup_linear nohit in
  let tuple = time_lookups 100 table Flow.Table.lookup_tuple nohit in
  gate "e2: tuple-space miss vs linear, 100 rules"
    (tuple *. 2.0 < linear)
    (Printf.sprintf "%.0f ns vs %.0f ns (>= 2x faster)" tuple linear);
  let alloc_t, pooled_t = e8_encode_times (e8_frames ()) 100_000 in
  no_slower "e8: pooled encode vs allocating" ~base:alloc_t pooled_t;
  let spec = "fattree:4" and flows = 50 and rate_pps = 500.0 and stop = 0.2 in
  let _, single_t =
    best_of 3 (fun () -> e15_run_single spec ~flows ~rate_pps ~stop)
  in
  let _, one_t =
    best_of 3 (fun () -> e15_run_sharded spec ~shards:1 ~flows ~rate_pps ~stop)
  in
  no_slower "e15: 1-shard vs single-domain" ~base:single_t one_t;
  let fresh_t, delta_t = e17_single ~k:4 ~seed:7 ~rounds:3 in
  no_slower "e17: delta edit vs fresh install (k=4)" ~base:fresh_t delta_t;
  if !failed > 0 then begin
    pf "%d gate(s) failed@." !failed;
    exit 1
  end

(* ------------------------------------------------------------------ *)

let experiments =
  [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
    ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16);
    ("e17", e17); ("e18", e18); ("e19", e19); ("e9-chaos", e9_chaos);
    ("gates", gates) ]

let () =
  (* pull out a --json FILE pair; remaining args name experiments *)
  let json_file = ref None in
  let rec parse = function
    | "--json" :: file :: rest ->
      json_file := Some file;
      parse rest
    | "--json" :: [] ->
      prerr_endline "usage: --json FILE";
      exit 2
    | arg :: rest -> arg :: parse rest
    | [] -> []
  in
  let requested =
    match parse (List.tl (Array.to_list Sys.argv)) with
    | _ :: _ as names -> names
    | [] -> List.map fst experiments
  in
  (* a typo must not silently skip a gate: reject before running any *)
  (match List.filter (fun n -> not (List.mem_assoc n experiments)) requested with
   | [] -> ()
   | unknown ->
     Format.eprintf "unknown experiment(s) %s (have: %s)@."
       (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
       (String.concat ", " (List.map fst experiments));
     exit 2);
  let t0 = Unix.gettimeofday () in
  List.iter (fun name -> (List.assoc name experiments) ()) requested;
  pf "@.total bench wall time: %.1f s@." (Unix.gettimeofday () -. t0);
  Option.iter write_json !json_file
