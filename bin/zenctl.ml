(* zenctl — command-line front end to the toolkit.

   Subcommands:
     topo      describe a generated topology
     compile   compile a policy and print per-switch flow tables
     verify    check reachability / loops / isolation of a policy
     simulate  run traffic through the simulated network
     chaos     seeded chaos run against the resilient control plane
     ping      end-to-end ping between two hosts under a policy
     te        compare traffic-engineering schemes on a WAN

   Topology specs: linear:N ring:N star:N fattree:K grid:RxC abilene b4
   waxman:N:SEED (see Topo.Gen.of_spec). *)

open Cmdliner

let topo_arg =
  let doc =
    "Topology spec: linear:N, ring:N, star:N, fattree:K, grid:RxC, \
     abilene, b4, waxman:N:SEED."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TOPO" ~doc)

let load_topo spec =
  try Ok (Topo.Gen.of_spec spec) with
  | Invalid_argument m -> Error (`Msg m)

let policy_arg =
  let doc =
    "Policy in concrete syntax (e.g. 'filter tpDst = 80; port := 2'). \
     Default: shortest-path routing synthesized from the topology."
  in
  Arg.(value & opt (some string) None & info [ "p"; "policy" ] ~docv:"POLICY" ~doc)

let load_policy topo = function
  | None -> Ok (Netkat.Builder.routing_policy topo)
  | Some s ->
    (try Ok (Netkat.Parser.pol_of_string s) with
     | Netkat.Parser.Parse_error m -> Error (`Msg ("policy: " ^ m)))

let die m =
  prerr_endline ("zenctl: " ^ m);
  exit 1

let or_die = function Ok v -> v | Error (`Msg m) -> die m

(* a rate, duration or lease that is not a finite positive number would
   run nothing, or never stop *)
let require_positive flag v =
  if not (Float.is_finite v && v > 0.0) then
    die (flag ^ " must be finite and > 0")

let require_non_negative flag n = if n < 0 then die (flag ^ " must be >= 0")

(* ------------------------------------------------------------------ *)
(* topo *)

let topo_cmd =
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of text.")
  in
  let run spec dot =
    let topo = or_die (load_topo spec) in
    if dot then print_string (Topo.Topology.to_dot topo)
    else Format.printf "%a" Topo.Topology.pp topo
  in
  Cmd.v (Cmd.info "topo" ~doc:"Describe a generated topology")
    Term.(const run $ topo_arg $ dot_arg)

(* ------------------------------------------------------------------ *)
(* compile *)

let compile_cmd =
  let switch_arg =
    Arg.(value & opt (some int) None
         & info [ "s"; "switch" ] ~docv:"ID" ~doc:"Only this switch.")
  in
  let naive_arg =
    Arg.(value & flag
         & info [ "naive" ] ~doc:"Use the naive baseline compiler instead of the FDD.")
  in
  let run spec pol_str switch naive =
    let topo = or_die (load_topo spec) in
    let pol = or_die (load_policy topo pol_str) in
    let switches =
      match switch with
      | Some s -> [ s ]
      | None -> Topo.Topology.switch_ids topo
    in
    let total = ref 0 in
    let show sw rules pp =
      total := !total + List.length rules;
      Format.printf "switch %d (%d rules):@." sw (List.length rules);
      List.iter (Format.printf "  %a@." pp) rules
    in
    let pp_rule fmt (pattern, actions) =
      Format.fprintf fmt "%a -> %a" Flow.Pattern.pp pattern
        Flow.Action.pp_group actions
    in
    if naive then
      (* no installer loads the baseline: its rules in list order *)
      List.iter
        (fun sw -> show sw (Netkat.Naive.compile ~switch:sw pol) pp_rule)
        switches
    else begin
      (* the priorities [Zen.install_policy] installs *)
      let snap = (Netkat.Delta.compile_policy ~switches None pol).snapshot in
      List.iter
        (fun sw ->
          show sw
            (Option.value ~default:[] (Netkat.Delta.find snap sw))
            (fun fmt (r : Netkat.Delta.rule) ->
              Format.fprintf fmt "[%6d] %a" r.priority pp_rule
                (r.pattern, r.actions)))
        switches
    end;
    Format.printf "total: %d rules (%s compiler)@." !total
      (if naive then "naive" else "FDD")
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a policy to per-switch flow tables")
    Term.(const run $ topo_arg $ policy_arg $ switch_arg $ naive_arg)

(* ------------------------------------------------------------------ *)
(* verify *)

let verify_cmd =
  let run spec pol_str =
    let topo = or_die (load_topo spec) in
    let pol = or_die (load_policy topo pol_str) in
    let net = Zen.create topo in
    ignore (Zen.install_policy net pol);
    let snap = Zen.snapshot net in
    let matrix = Verify.Reach.reachability_matrix snap in
    let ok = List.length (List.filter snd matrix) in
    Format.printf "reachability: %d/%d host pairs connected@." ok
      (List.length matrix);
    List.iter
      (fun ((s, d), r) -> if not r then Format.printf "  h%d -/-> h%d@." s d)
      matrix;
    let loops = Verify.Reach.loop_free snap in
    Format.printf "loops: %s@."
      (if loops = [] then "none"
       else Printf.sprintf "%d looping slices" (List.length loops))
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Symbolically verify a policy's tables")
    Term.(const run $ topo_arg $ policy_arg)

(* ------------------------------------------------------------------ *)
(* simulate *)

(* hand-rolled JSON: everything simulate emits is flat scalars, one
   stats object and one per-shard array, so a printer beats a dep *)
let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_str s = "\"" ^ json_escape s ^ "\""
(* JSON has no inf or nan: a non-finite value (a 1-shard run's
   lookahead) is null *)
let json_float f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.9g" f
let json_obj fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields)
  ^ "}"
let json_arr items = "[" ^ String.concat ", " items ^ "]"

let json_of_counters (c : Dataplane.Network.counters) =
  json_obj
    [ ("delivered", string_of_int c.delivered);
      ("dropped_policy", string_of_int c.dropped_policy);
      ("dropped_miss", string_of_int c.dropped_miss);
      ("dropped_queue", string_of_int c.dropped_queue);
      ("dropped_link", string_of_int c.dropped_link);
      ("dropped_ttl", string_of_int c.dropped_ttl);
      ("dropped_down", string_of_int c.dropped_down);
      ("dropped_chaos", string_of_int c.dropped_chaos);
      ("corrupted", string_of_int c.corrupted);
      ("reordered", string_of_int c.reordered);
      ("forwarded", string_of_int c.forwarded);
      ("control_msgs", string_of_int c.control_msgs);
      ("control_bytes", string_of_int c.control_bytes);
      ("fenced_writes", string_of_int c.fenced_writes) ]

(* Flow-cache and classifier counters summed over every switch table of
   [nets]: the one network of a single-domain run, or each shard's. *)
type cache_counts = {
  cc_hits : int;
  cc_misses : int;
  cc_invalidations : int;
  cc_probes : int;
  cc_shapes : int;
}

let cache_counts nets =
  let add c (sw : Dataplane.Network.switch) =
    { cc_hits = c.cc_hits + Flow.Table.cache_hits sw.table;
      cc_misses = c.cc_misses + Flow.Table.cache_misses sw.table;
      cc_invalidations = c.cc_invalidations + Flow.Table.invalidations sw.table;
      cc_probes = c.cc_probes + Flow.Table.classifier_probes sw.table;
      cc_shapes = c.cc_shapes + Flow.Table.shape_count sw.table }
  in
  List.fold_left
    (fun c net -> List.fold_left add c (Dataplane.Network.switch_list net))
    { cc_hits = 0; cc_misses = 0; cc_invalidations = 0; cc_probes = 0;
      cc_shapes = 0 }
    nets

let json_of_cache_counts c =
  json_obj
    [ ("hits", string_of_int c.cc_hits);
      ("misses", string_of_int c.cc_misses);
      ("invalidations", string_of_int c.cc_invalidations);
      ("classifier_probes", string_of_int c.cc_probes);
      ("shapes", string_of_int c.cc_shapes) ]

let print_cache_counts c =
  let lookups = c.cc_hits + c.cc_misses in
  Format.printf
    "flow cache: %d hits, %d misses (%.1f%% hit rate), %d invalidations@."
    c.cc_hits c.cc_misses
    (if lookups = 0 then 0.0
     else 100.0 *. float_of_int c.cc_hits /. float_of_int lookups)
    c.cc_invalidations;
  Format.printf
    "classifier: %d shape probes over %d shapes (%.1f probes/miss)@."
    c.cc_probes c.cc_shapes
    (if c.cc_misses = 0 then 0.0
     else float_of_int c.cc_probes /. float_of_int c.cc_misses)

let simulate_cmd =
  let flows_arg =
    Arg.(value & opt int 10 & info [ "flows" ] ~docv:"N" ~doc:"Random CBR flows.")
  in
  let rate_arg =
    Arg.(value & opt float 100.0 & info [ "rate" ] ~docv:"PPS" ~doc:"Per-flow rate.")
  in
  let duration_arg =
    Arg.(value & opt float 1.0 & info [ "duration" ] ~docv:"SECS" ~doc:"Traffic duration.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")
  in
  let mode_arg =
    let e = Arg.enum [ ("compiled", `Compiled); ("learning", `Learning);
                       ("routing", `Routing) ] in
    Arg.(value & opt e `Compiled
         & info [ "mode" ] ~docv:"MODE"
             ~doc:"compiled (tables pushed directly), learning (reactive \
                   controller) or routing (proactive controller).")
  in
  let shards_arg =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"N"
             ~doc:"Partition the simulation over N domains (conservative \
                   parallel DES; compiled mode only).")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the run's results as one JSON object on stdout \
                   instead of text.")
  in
  let partition_arg =
    Arg.(value & opt (some string) None
         & info [ "partition" ] ~docv:"SCHEME"
             ~doc:"Shard partition scheme: 'block' (contiguous switch-id \
                   blocks) or 'pod:K' (fat-tree pod affinity; K is the \
                   fat-tree's even k).  Default: block.")
  in
  let run_sharded topo spec pol_str flows rate duration seed shards partition
      json =
    let partition =
      Option.map
        (fun s ->
          match Dataplane.Shard.partition_of_string s with
          | Some p -> p
          | None ->
            die ("unknown partition " ^ s ^ " (have: block, pod:K, K even)"))
        partition
    in
    let t =
      try Zen.create_sharded ~shards ?partition topo
      with Invalid_argument m -> die m
    in
    let n = Zen.install_policy_sharded t (or_die (load_policy topo pol_str)) in
    if not json then
      Format.printf "installed %d rules over %d shards (lookahead %.1f us)@."
        n
        (Dataplane.Shard.shards t)
        (Dataplane.Shard.lookahead t *. 1e6);
    let prng = Util.Prng.create seed in
    let host_ids = Array.of_list (Topo.Topology.host_ids topo) in
    let specs =
      Dataplane.Traffic.random_pair_specs ~prng ~host_ids ~flows
        ~rate_pps:rate ~pkt_size:1000 ~stop:duration ()
    in
    let senders =
      List.map
        (fun (s : Dataplane.Traffic.flow_spec) ->
          Dataplane.Traffic.cbr (Dataplane.Shard.net_of_host t s.src) s)
        specs
    in
    let t0 = Unix.gettimeofday () in
    let executed = Zen.run_sharded ~until:(duration +. 1.0) t in
    let wall = Unix.gettimeofday () -. t0 in
    let sent = List.fold_left (fun acc s -> acc + !s) 0 senders in
    let ss = Dataplane.Shard.sync_stats t in
    let cc = cache_counts (Array.to_list (Dataplane.Shard.nets t)) in
    if json then
      print_endline
        (json_obj
           [ ("mode", json_str "compiled");
             ("topo", json_str spec);
             ("shards", string_of_int (Dataplane.Shard.shards t));
             ("lookahead_us",
              json_float (Dataplane.Shard.lookahead t *. 1e6));
             ("installed_rules", string_of_int n);
             ("flows", string_of_int flows);
             ("sent", string_of_int sent);
             ("duration_s", json_float duration);
             ("wall_s", json_float wall);
             ("events", string_of_int executed);
             ("rounds", string_of_int (Dataplane.Shard.rounds t));
             ("handoffs", string_of_int (Dataplane.Shard.handoffs t));
             ("stalls", string_of_int (Dataplane.Shard.stalls t));
             ("backpressure",
              string_of_int ss.backpressure);
             ("high_water", string_of_int ss.high_water);
             ("stats", json_of_counters (Dataplane.Shard.stats t));
             ("flow_cache", json_of_cache_counts cc);
             ("per_shard",
              json_arr
                (List.init (Dataplane.Shard.shards t) (fun i ->
                   json_obj
                     [ ("shard", string_of_int i);
                       ("events",
                        string_of_int (Dataplane.Shard.executed_of t i));
                       ("handoffs_out",
                        string_of_int ss.handoffs.(i));
                       ("stalls",
                        string_of_int ss.stalls.(i));
                       ("windows",
                        string_of_int ss.windows.(i));
                       ("avg_window_us",
                        json_float (ss.avg_window.(i) *. 1e6))
                     ]))) ])
    else begin
      Format.printf "sent %d packets over %d flows in %.1fs of simulated time@."
        sent flows duration;
      Format.printf "%a@." Dataplane.Network.pp_stats (Dataplane.Shard.stats t);
      print_cache_counts cc;
      Format.printf
        "events executed: %d (%.0f events/s wall) in %d rounds, %d \
         cross-shard handoffs, %d backpressure waits (mailbox high-water \
         %d)@."
        executed
        (if wall > 0.0 then float_of_int executed /. wall else 0.0)
        (Dataplane.Shard.rounds t)
        (Dataplane.Shard.handoffs t)
        ss.backpressure ss.high_water;
      for i = 0 to Dataplane.Shard.shards t - 1 do
        let ev = Dataplane.Shard.executed_of t i in
        Format.printf
          "  shard %d: %d events (%.0f events/s wall), %d handoffs out, %d \
           horizon stalls, %d windows (avg %.1f us)@."
          i ev
          (if wall > 0.0 then float_of_int ev /. wall else 0.0)
          ss.handoffs.(i) ss.stalls.(i) ss.windows.(i)
          (ss.avg_window.(i) *. 1e6)
      done
    end
  in
  let run spec pol_str flows rate duration seed mode shards partition json =
    if shards < 1 then die "--shards must be >= 1";
    require_non_negative "--flows" flows;
    require_positive "--rate" rate;
    require_positive "--duration" duration;
    let topo = or_die (load_topo spec) in
    if shards > 1 || partition <> None then begin
      (match mode with
       | `Compiled -> ()
       | `Learning | `Routing ->
         die
           "--shards and --partition support --mode compiled only (a \
            controller attaches only to a single-domain network)");
      run_sharded topo spec pol_str flows rate duration seed shards partition
        json
    end
    else
    let net = Zen.create topo in
    let network = Zen.network net in
    let mode_name, installed =
      match mode with
      | `Compiled ->
        let pol = or_die (load_policy topo pol_str) in
        let n = Zen.install_policy net pol in
        if not json then Format.printf "installed %d rules@." n;
        ("compiled", n)
      | `Learning ->
        let app = Controller.Learning.create () in
        ignore (Zen.with_controller net [ Controller.Learning.app app ]);
        ("learning", 0)
      | `Routing ->
        let app = Controller.Routing.create () in
        ignore (Zen.with_controller net [ Controller.Routing.app app ]);
        ( "routing",
          List.fold_left
            (fun acc (sw : Dataplane.Network.switch) ->
              acc + Flow.Table.size sw.table)
            0
            (Dataplane.Network.switch_list network) )
    in
    let prng = Util.Prng.create seed in
    let t0 = Unix.gettimeofday () in
    let senders =
      Dataplane.Traffic.random_pairs network ~prng ~flows ~rate_pps:rate
        ~pkt_size:1000 ~stop:duration
    in
    ignore (Zen.run ~until:(duration +. 1.0) net);
    let wall = Unix.gettimeofday () -. t0 in
    let sent = List.fold_left (fun acc s -> acc + !s) 0 senders in
    let cc = cache_counts [ network ] in
    let executed = Dataplane.Sim.executed (Dataplane.Network.sim network) in
    if json then
      print_endline
        (json_obj
           [ ("mode", json_str mode_name);
             ("topo", json_str spec);
             ("shards", "1");
             ("installed_rules", string_of_int installed);
             ("flows", string_of_int flows);
             ("sent", string_of_int sent);
             ("duration_s", json_float duration);
             ("wall_s", json_float wall);
             ("events", string_of_int executed);
             ("stats",
              json_of_counters (Dataplane.Network.stats network));
             ("flow_cache", json_of_cache_counts cc) ])
    else begin
      Format.printf "sent %d packets over %d flows in %.1fs of simulated time@."
        sent flows duration;
      Format.printf "%a@." Dataplane.Network.pp_stats
        (Dataplane.Network.stats network);
      print_cache_counts cc;
      Format.printf "events executed: %d@." executed
    end
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run random traffic through the network")
    Term.(const run $ topo_arg $ policy_arg $ flows_arg $ rate_arg
          $ duration_arg $ seed_arg $ mode_arg $ shards_arg $ partition_arg
          $ json_arg)

(* ------------------------------------------------------------------ *)
(* chaos *)

let chaos_cmd =
  let seed_arg =
    Arg.(value & opt int Dataplane.Fault.default_seed
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Chaos seed; the same seed reproduces the same run.")
  in
  let drop_arg =
    Arg.(value & opt float 0.2 & info [ "drop" ] ~docv:"P"
             ~doc:"Per-transmission control-channel drop probability.")
  in
  let dup_arg =
    Arg.(value & opt float 0.05 & info [ "dup" ] ~docv:"P"
             ~doc:"Per-transmission duplicate probability.")
  in
  let jitter_arg =
    Arg.(value & opt float 1e-3 & info [ "jitter" ] ~docv:"SECS"
             ~doc:"Max extra one-way control latency (uniform).")
  in
  let link_drop_arg =
    Arg.(value & opt float 0.0 & info [ "link-drop" ] ~docv:"P"
             ~doc:"Per-transmission data-packet drop probability, per link.")
  in
  let corrupt_arg =
    Arg.(value & opt float 0.0 & info [ "corrupt" ] ~docv:"P"
             ~doc:"Per-transmission data-packet corruption probability, per \
                   link; corrupted frames are counted and discarded.")
  in
  let reorder_arg =
    Arg.(value & opt float 0.0 & info [ "reorder" ] ~docv:"P"
             ~doc:"Per-transmission data-packet reorder probability, per \
                   link (extra uniform delay past in-flight packets).")
  in
  let flaps_arg =
    Arg.(value & opt int 2 & info [ "flaps" ] ~docv:"N"
             ~doc:"Random inter-switch links to flap during the run.")
  in
  let crash_arg =
    Arg.(value & opt (some int) None & info [ "crash" ] ~docv:"SWITCH"
             ~doc:"Crash this switch mid-run (it restarts and resyncs).")
  in
  let flows_arg =
    Arg.(value & opt int 6 & info [ "flows" ] ~docv:"N" ~doc:"Random CBR flows.")
  in
  let rate_arg =
    Arg.(value & opt float 200.0 & info [ "rate" ] ~docv:"PPS" ~doc:"Per-flow rate.")
  in
  let duration_arg =
    Arg.(value & opt float 2.0
         & info [ "duration" ] ~docv:"SECS" ~doc:"Traffic duration.")
  in
  let trace_arg =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the event trace.")
  in
  let replicas_arg =
    Arg.(value & opt int 1
         & info [ "replicas" ] ~docv:"N"
             ~doc:"Run N controller replicas under a leader lease \
                   (default 1: plain single controller).")
  in
  let lease_arg =
    Arg.(value & opt float 150.0
         & info [ "lease" ] ~docv:"MS"
             ~doc:"Leader lease in milliseconds (replicas > 1); finite and \
                   positive.")
  in
  let ctl_crash_arg =
    Arg.(value & opt (some int) None
         & info [ "ctl-crash" ] ~docv:"ID"
             ~doc:"Crash controller ID mid-run: a standby detects the \
                   expired lease and takes over.  Needs --replicas >= 2 and \
                   ID < replicas.")
  in
  let split_brain_arg =
    Arg.(value & flag
         & info [ "split-brain" ]
             ~doc:"Partition the leader off the inter-controller channel \
                   mid-run (it keeps writing; fencing must reject it), \
                   healing near the end.")
  in
  let run spec seed drop dup jitter link_drop link_corrupt link_reorder flaps
      crash flows rate duration trace replicas lease_ms ctl_crash split_brain =
    if replicas < 1 then die "--replicas must be >= 1";
    require_positive "--lease" lease_ms;
    require_positive "--rate" rate;
    require_positive "--duration" duration;
    require_non_negative "--flaps" flaps;
    require_non_negative "--flows" flows;
    (match ctl_crash with
     | Some _ when replicas < 2 -> die "--ctl-crash needs --replicas >= 2"
     | Some id when id < 0 || id >= replicas ->
       die (Printf.sprintf "--ctl-crash %d: no such controller (0..%d)" id
              (replicas - 1))
     | Some _ | None -> ());
    let topo = or_die (load_topo spec) in
    (match crash with
     | Some id when not (List.mem id (Topo.Topology.switch_ids topo)) ->
       die (Printf.sprintf "--crash %d: no such switch in %s" id spec)
     | Some _ | None -> ());
    let fault =
      try
        Dataplane.Fault.create ~seed ~drop ~dup ~jitter ~link_drop
          ~link_corrupt ~link_reorder ()
      with Invalid_argument m -> die m
    in
    let net = Zen.create ~fault topo in
    let network = Zen.network net in
    if trace then
      Dataplane.Network.set_tracer network (fun time line ->
        Printf.printf "%.9f %s\n" time line);
    let mk_apps () = [ Controller.Routing.app (Controller.Routing.create ()) ] in
    let replica =
      if replicas > 1 then
        Some
          (Zen.with_replicas ~replicas ~lease:(lease_ms /. 1000.0) net
             mk_apps)
      else None
    in
    let rt_of_replica () =
      match replica with
      | None -> None
      | Some r -> Controller.Replica.leader_runtime r
    in
    let rt =
      match replica with
      | Some _ -> None
      | None ->
        Some (Zen.with_controller net (mk_apps ()))
    in
    (* the whole scenario — flap targets, times, traffic — derives from
       the one chaos seed, so a run is reproducible end to end *)
    let scenario = Dataplane.Fault.derive_prng fault in
    let sw_links =
      Topo.Topology.links topo
      |> List.filter (fun (l : Topo.Topology.link) ->
        Topo.Topology.Node.is_switch l.src && Topo.Topology.Node.is_switch l.dst)
      |> Array.of_list
    in
    let incidents =
      List.init (min flaps (Array.length sw_links)) (fun _ ->
        let l = Util.Prng.pick scenario sw_links in
        Dataplane.Fault.Link_flap
          { node = l.src; port = l.src_port;
            at = 0.2 *. duration +. Util.Prng.float scenario (0.4 *. duration);
            duration = 0.2 *. duration })
      @
      (match crash with
       | None -> []
       | Some switch_id ->
         [ Dataplane.Fault.Switch_outage
             { switch_id; at = 0.3 *. duration; duration = 0.3 *. duration } ])
      @ (match ctl_crash with
         | None -> []
         | Some controller_id ->
           [ Dataplane.Fault.Controller_outage
               { controller_id; at = 0.3 *. duration;
                 duration = 0.4 *. duration } ])
    in
    Dataplane.Network.inject network incidents;
    (match (replica, split_brain) with
     | Some r, true ->
       (* cut the current leader off the replication channel mid-run;
          heal near the end so the deposed leader steps down on record *)
       let sim = Dataplane.Network.sim network in
       Dataplane.Sim.schedule_at sim ~time:(0.3 *. duration) (fun () ->
         match Controller.Replica.leader r with
         | Some id -> Controller.Replica.partition r ~controller_id:id
         | None -> ());
       Dataplane.Sim.schedule_at sim ~time:(0.8 *. duration) (fun () ->
         List.iter
           (fun id ->
             Controller.Replica.heal r ~controller_id:id)
           (List.init replicas Fun.id))
     | _ -> ());
    let senders =
      Dataplane.Traffic.random_pairs network ~prng:scenario ~flows
        ~rate_pps:rate ~pkt_size:500 ~stop:duration
    in
    ignore (Zen.run ~until:(duration +. 2.0) net);
    (* convergence is a state the run must reach, not a property of one
       sample time: under control loss a false switch-down can be
       resyncing at any instant, so give the live runtime settle's
       horizon before judging *)
    let live_rt =
      match rt with Some _ -> rt | None -> rt_of_replica ()
    in
    Option.iter (fun rt -> ignore (Controller.Runtime.settle rt)) live_rt;
    let sent = List.fold_left (fun acc s -> acc + !s) 0 senders in
    let delivered = (Dataplane.Network.stats network).delivered in
    Format.printf "sent %d, delivered %d (%.1f%% delivery) over %d flows@."
      sent delivered
      (if sent = 0 then 0.0
       else 100.0 *. float_of_int delivered /. float_of_int sent)
      flows;
    Format.printf "%a@." Dataplane.Fault.pp_stats fault;
    (match live_rt with
     | None -> Format.printf "control plane: no live controller@."
     | Some rt ->
       let rs = Controller.Runtime.resilience_stats rt in
       Format.printf
         "control plane: %d retransmits, %d echo misses, %d switch-down \
          events, %d resyncs, %d batches acked, %d dropped@."
         rs.retransmits rs.echo_misses rs.switch_downs rs.resyncs
         rs.acked_batches rs.dropped_batches;
       match Controller.Runtime.recovery_times rt with
       | [] -> Format.printf "recoveries: none@."
       | ts ->
         Format.printf
           "recoveries: %d, time p50=%.3fs p95=%.3fs p99=%.3fs@."
           (List.length ts)
           (Util.Stats.percentile ts 50.0)
           (Util.Stats.percentile ts 95.0)
           (Util.Stats.percentile ts 99.0));
    (match replica with
     | None -> ()
     | Some r ->
       let s = Controller.Replica.stats r in
       Format.printf
         "replication: leader=%s epoch=%d, %d failovers (%d completed), %d \
          step-downs, %d heartbeats, %d deltas, %d syncs, %d repl msgs (%d \
          dropped), %d fenced writes@."
         (match Controller.Replica.leader r with
          | Some id -> Printf.sprintf "c%d" id
          | None -> "none")
         (Controller.Replica.epoch r)
         s.failovers s.takeovers_completed s.step_downs s.hb_sent
         s.deltas_sent s.syncs s.repl_msgs s.repl_drops
         (Dataplane.Network.stats network).fenced_writes;
       match Controller.Replica.failover_samples r with
       | [] -> Format.printf "failovers: none@."
       | ts ->
         Format.printf "failovers: %d, time p50=%.3fs p95=%.3fs p99=%.3fs@."
           (List.length ts)
           (Util.Stats.percentile ts 50.0)
           (Util.Stats.percentile ts 95.0)
           (Util.Stats.percentile ts 99.0));
    let diverged =
      match replica with
      | Some r -> Controller.Replica.diverged r
      | None ->
        Option.fold ~none:[] ~some:Controller.Runtime.diverged live_rt
    in
    (match diverged with
     | [] -> Format.printf "convergence: all tables equal intended state@."
     | sws ->
       Format.printf "convergence: DIVERGED on switches %s@."
         (String.concat ", " (List.map string_of_int sws)));
    if diverged <> [] then exit 4
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run seeded chaos (control loss/dup/jitter, per-link data \
             drop/corrupt/reorder, flaps, crashes) against the resilient \
             control plane")
    Term.(const run $ topo_arg $ seed_arg $ drop_arg $ dup_arg $ jitter_arg
          $ link_drop_arg $ corrupt_arg $ reorder_arg
          $ flaps_arg $ crash_arg $ flows_arg $ rate_arg $ duration_arg
          $ trace_arg $ replicas_arg $ lease_arg $ ctl_crash_arg
          $ split_brain_arg)

(* ------------------------------------------------------------------ *)
(* ping *)

let ping_cmd =
  let src_arg =
    Arg.(required & opt (some int) None & info [ "src" ] ~docv:"HOST" ~doc:"Source host id.")
  in
  let dst_arg =
    Arg.(required & opt (some int) None & info [ "dst" ] ~docv:"HOST" ~doc:"Destination host id.")
  in
  let run spec pol_str src dst =
    let topo = or_die (load_topo spec) in
    let pol = or_die (load_policy topo pol_str) in
    let net = Zen.create topo in
    ignore (Zen.install_policy net pol);
    Format.printf "verified reachable: %b@." (Zen.reachable net ~src ~dst);
    match Zen.ping net ~src ~dst with
    | [] -> Format.printf "no replies@."; exit 2
    | rtts ->
      List.iteri
        (fun i r -> Format.printf "seq=%d rtt=%.1f us@." i (r *. 1e6))
        rtts
  in
  Cmd.v
    (Cmd.info "ping" ~doc:"End-to-end ping through the simulated dataplane")
    Term.(const run $ topo_arg $ policy_arg $ src_arg $ dst_arg)

(* ------------------------------------------------------------------ *)
(* analyze *)

let analyze_cmd =
  let pol_pos n doc = Arg.(required & pos n (some string) None & info [] ~docv:"POLICY" ~doc) in
  let run a b =
    let parse s =
      try Netkat.Parser.pol_of_string s with
      | Netkat.Parser.Parse_error m ->
        prerr_endline ("zenctl: " ^ m);
        exit 1
    in
    let pa = parse a and pb = parse b in
    match Netkat.Analysis.counterexample pa pb with
    | None -> Format.printf "equivalent@."
    | Some h ->
      Format.printf "NOT equivalent; counterexample packet:@.  %a@."
        Packet.Headers.pp h;
      Format.printf "  first  policy output: %d packet(s)@."
        (Netkat.Semantics.HSet.cardinal (Netkat.Semantics.eval pa h));
      Format.printf "  second policy output: %d packet(s)@."
        (Netkat.Semantics.HSet.cardinal (Netkat.Semantics.eval pb h));
      exit 3
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Decide equivalence of two policies")
    Term.(const run
          $ pol_pos 0 "First policy." $ pol_pos 1 "Second policy.")

(* ------------------------------------------------------------------ *)
(* te *)

let te_cmd =
  let load_arg =
    Arg.(value & opt float 2.0
         & info [ "load" ] ~docv:"X" ~doc:"Demand scale (1.0 ~ capacity).")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Demand seed.")
  in
  let run spec load seed =
    let topo = or_die (load_topo spec) in
    let prng = Util.Prng.create seed in
    let demands =
      Te.Demand.gravity ~prng ~switches:(Topo.Topology.switch_ids topo)
        ~total_rate:(load *. 100e9) ~priorities:3 ()
    in
    Format.printf "offered: %.1f Gb/s over %d demands@."
      (Te.Demand.total demands /. 1e9)
      (List.length demands);
    List.iter
      (fun (name, a) -> Format.printf "%-8s %s@." name (Te.Alloc.summary a))
      [ ("ecmp", Te.Ecmp.solve topo demands);
        ("maxmin", Te.Maxmin.solve topo demands);
        ("greedy", Te.Greedy_kpath.solve topo demands) ]
  in
  Cmd.v
    (Cmd.info "te" ~doc:"Compare traffic-engineering schemes")
    Term.(const run $ topo_arg $ load_arg $ seed_arg)

let () =
  let info =
    Cmd.info "zenctl" ~version:Zen.version
      ~doc:"Software-defined network architecture toolkit"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ topo_cmd; compile_cmd; verify_cmd; simulate_cmd; chaos_cmd;
            ping_cmd; analyze_cmd; te_cmd ]))
