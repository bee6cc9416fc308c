(* What one trial reports, and helpers both workload kinds share. *)

type t = {
  setup_s : float;         (* process start -> start of the timed phase *)
  timed_s : float;         (* summed wall time of the timed library calls *)
  op_walls : float list;   (* wall seconds of each operation *)
  throughput : float;      (* completed edits, or delivered packets, per s *)
  attempted : int;
  failed : int;
  errors : string list;    (* failed checks *)
  layers : (string * float) list;  (* per-layer metrics by name *)
  diag : (string * float) list;    (* printed for the reader, not metrics *)
}

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* metrics of a layer a workload does not exercise read 0 *)
let zeros names = List.map (fun name -> (name, 0.0)) names

let shard_metrics = [ "shard.rounds"; "shard.handoffs"; "shard.stalls"; "shard.steals" ]

let percentile xs p = match xs with [] -> 0.0 | _ -> Util.Stats.percentile xs p

(* the workload's headers, as [(switch, header)] at the switch that first
   looks them up, grouped into [(table, distinct headers)] for
   {!Replay.lookups} *)
let by_switch pairs table_of =
  List.sort_uniq compare pairs
  |> List.fold_left
       (fun acc (sw, h) ->
         match acc with
         | (sw', hs) :: rest when sw' = sw -> (sw, h :: hs) :: rest
         | _ -> (sw, [ h ]) :: acc)
       []
  |> List.map (fun (sw, hs) -> (table_of sw, hs))

(* a packet of flow [src -> dst] as its ingress edge switch sees it *)
let ingress_header topo ~src ~dst ~tp_src ~tp_dst =
  match Topo.Topology.attachment topo src with
  | Some (sw, port) ->
    ( sw,
      Packet.Headers.tcp ~switch:sw ~in_port:port ~src_host:src ~dst_host:dst
        ~tp_src ~tp_dst )
  | None -> invalid_arg "ingress_header: host has no edge switch"

(* flow-cache and classifier counters summed over [tables] *)
type cache = { hits : int; misses : int; probes : int; invalidations : int }

let cache_counters tables =
  List.fold_left
    (fun c t ->
      { hits = c.hits + Flow.Table.cache_hits t;
        misses = c.misses + Flow.Table.cache_misses t;
        probes = c.probes + Flow.Table.classifier_probes t;
        invalidations = c.invalidations + Flow.Table.invalidations t })
    { hits = 0; misses = 0; probes = 0; invalidations = 0 }
    tables

let cache_layers ~before ~after ~ops =
  let misses = after.misses - before.misses in
  [ ("flow.cache_hit_ratio",
     ratio (after.hits - before.hits) (after.hits - before.hits + misses));
    ("flow.probes_per_miss", ratio (after.probes - before.probes) misses);
    ("flow.invalidations_per_edit",
     ratio (after.invalidations - before.invalidations) ops) ]

(* the replay micro-timings of {!Replay}, named as metrics *)
let replay_layers topo ~lookups ~batches =
  let miss, hit = Replay.lookups lookups in
  let enc, dec = Replay.codec batches in
  [ ("openflow.encode_ns_per_frame", enc *. 1e9);
    ("openflow.decode_ns_per_frame", dec *. 1e9);
    ("flow.lookup_miss_ns", miss *. 1e9);
    ("flow.lookup_hit_ns", hit *. 1e9);
    ("flow.apply_us_per_flowmod", Replay.apply_flow_mods topo batches *. 1e6) ]
