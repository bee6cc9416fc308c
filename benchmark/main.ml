(* Intent-to-packet benchmark: one trial of one workload per process.

     main.exe --workload NAME --seed N --seconds S [--quick] [--trace-out FILE]

   Prints one JSON object on its last line of standard output; run.py
   runs three trials per workload, each a fresh process, and reports
   their medians.  A trial's size follows from [--seconds] alone, so a
   (seed, seconds) pair always runs the same inputs.  [--trace-out]
   records a span around every call into a layer, adds the per-layer
   metrics and writes the spans to FILE.  [--quick] runs a fat-tree
   k = 4 trial with a handful of operations, for tests.  Exits 1 when a
   correctness check fails, 2 on a usage error. *)

let t_start = Spans.now ()

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S [--quick] \
     [--trace-out FILE]";
  exit 2

let run name ~seed ~seconds ~quick =
  (* operations per timed second on a 2-core x86-64 container: sizes a
     trial's timed phase to about [seconds] *)
  let size rate quick_n =
    if quick then quick_n else max 1 (int_of_float (rate *. seconds))
  in
  let k = if quick then 4 else 6 in
  let edits replicated rate =
    { Edits.k = (if replicated then 4 else k); replicated;
      edits = size rate 12; outage_every = (if quick then 5 else 50);
      deadline = (if replicated then 5.0 else 2.0) }
  in
  let fwd fresh_ports shards rate =
    { Fwd.k; flows = (if quick then 100 else 1000); fresh_ports; shards;
      steps = size rate 20 }
  in
  match name with
  | "edit-k6" -> Edits.run (edits false 45.0) ~seed ~t_start
  | "edit-chaos-k4" -> Edits.run (edits true 150.0) ~seed ~t_start
  | "fwd-k6-flows" -> Fwd.run (fwd false None 250.0) ~seed ~t_start
  | "fwd-k6-fresh-2shard" -> Fwd.run (fwd true (Some 2) 100.0) ~seed ~t_start
  | _ ->
    prerr_endline ("unknown workload: " ^ name);
    exit 2

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec find () =
      match input_line ic with
      | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
      | _ -> find ()
      | exception End_of_file -> 0.0
    in
    let r = find () in
    close_in ic;
    r

(* the traced run's per-layer view of the timed phase: each layer's
   self time as a share of the timed wall time, and the wall time per
   operation they divide *)
let span_layers (m : Measure.t) =
  let self = Spans.self_times ~timed_only:true () in
  let share name =
    if m.timed_s <= 0.0 then 0.0
    else Option.value ~default:0.0 (Hashtbl.find_opt self name) /. m.timed_s
  in
  [ ("netkat.builder_s", Spans.total "netkat.builder");
    ("netkat.initial_install_s", Spans.total "netkat.initial_install");
    ("netkat.compile_share", share "netkat.install_plain");
    ("controller.send_share", share "controller.send_batch");
    ("controller.upcall_share", share "controller.upcall");
    ("dataplane.run_share", share "dataplane.run");
    ("trace.op_ms",
     1e3 *. m.timed_s /. float_of_int (max 1 (List.length m.op_walls))) ]

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_obj fields =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields)
  ^ "}"

let () =
  if
    Array.exists
      (fun kv -> String.starts_with ~prefix:"ZEN_" kv)
      (Unix.environment ())
  then begin
    prerr_endline
      "refusing to run: ZEN_* environment variables select implementations \
       and would change what is measured";
    exit 2
  end;
  let workload = ref "" and seed = ref None and seconds = ref None in
  let quick = ref false and trace_out = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--quick" :: rest -> quick := true; parse rest
    | "--trace-out" :: v :: rest -> trace_out := Some v; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds =
    match (!seed, !seconds) with
    | Some n, Some s when s > 0.0 -> (n, s)
    | _ -> usage ()
  in
  Spans.enabled := !trace_out <> None;
  let m = run !workload ~seed ~seconds ~quick:!quick in
  let layers = if !Spans.enabled then m.layers @ span_layers m else [] in
  Option.iter Spans.write !trace_out;
  let ms p = 1e3 *. Measure.percentile m.op_walls p in
  print_endline
    (json_obj
       [ ("workload", Printf.sprintf "%S" !workload);
         ("seed", string_of_int seed);
         ("ops", string_of_int (List.length m.op_walls));
         ("setup_s", json_num m.setup_s);
         ("timed_s", json_num m.timed_s);
         ("op_p50_ms", json_num (ms 50.0));
         ("op_p90_ms", json_num (ms 90.0));
         ("throughput_per_s", json_num m.throughput);
         ("peak_rss_mb", json_num (peak_rss_mb ()));
         ("attempted", string_of_int m.attempted);
         ("failed", string_of_int m.failed);
         ("errors",
          "[" ^ String.concat "," (List.map (Printf.sprintf "%S") m.errors) ^ "]");
         ("layers", json_obj (List.map (fun (k, v) -> (k, json_num v)) layers));
         ("diag", json_obj (List.map (fun (k, v) -> (k, json_num v)) m.diag)) ]);
  if m.errors <> [] then exit 1
