(* Replay micro-timings for the traced run.  Each replays the workload's
   own inputs through one layer's public function, after the timed
   phase, so the per-call cost of that layer is measured in isolation. *)

module Network = Dataplane.Network

(* repeat [f] (one pass over [n] items) until at least [min_items] items
   and [min_s] seconds have been timed; returns seconds per item.
   [prepare] runs before each pass with the clock stopped. *)
let per_item ?(min_items = 20_000) ?(min_s = 0.05) ~n ~prepare f =
  if n = 0 then 0.0
  else begin
    let items = ref 0 and spent = ref 0.0 in
    while !items < min_items || !spent < min_s do
      let state = prepare () in
      let t0 = Spans.now () in
      f state;
      spent := !spent +. (Spans.now () -. t0);
      items := !items + n
    done;
    !spent /. float_of_int !items
  end

(* [lookups groups] — [groups] pairs a final switch table with the
   distinct headers the workload presented to it.  Returns (miss, hit)
   seconds per [Flow.Table.apply].  Misses replay the headers with a
   source port no packet used, so each one runs the classifier and
   enters the exact-match cache; hits replay the headers as they are,
   once the cache holds them. *)
let lookups groups =
  let n = List.fold_left (fun a (_, hs) -> a + List.length hs) 0 groups in
  let apply_all groups =
    List.iter
      (fun (table, hs) ->
        List.iter
          (fun h -> ignore (Flow.Table.apply table ~now:0.0 ~size:200 h))
          hs)
      groups
  in
  let round = ref 0 in
  let unseen () =
    incr round;
    List.map
      (fun (table, hs) ->
        ( table,
          List.map
            (fun (h : Packet.Headers.t) ->
              { h with tp_src = h.tp_src + (!round * 100_000) })
            hs ))
      groups
  in
  let miss = per_item ~n ~prepare:unseen apply_all in
  apply_all groups;
  let hit = per_item ~n ~prepare:(fun () -> groups) apply_all in
  (miss, hit)

(* [codec batches] — encode and decode seconds per frame over control
   batches, each framed as the runtime frames them (one xid per
   message) *)
let codec batches =
  let framed =
    List.map (fun (_, msgs) -> List.mapi (fun i m -> (i + 1, m)) msgs) batches
  in
  let n = List.fold_left (fun a b -> a + List.length b) 0 framed in
  let encoded = List.map Openflow.Wire.encode_batch framed in
  let encode =
    per_item ~n ~prepare:ignore (fun () ->
      List.iter (fun b -> ignore (Openflow.Wire.encode_batch b)) framed)
  in
  let decode =
    per_item ~n ~prepare:ignore (fun () ->
      List.iter (fun b -> ignore (Openflow.Wire.decode_all b)) encoded)
  in
  (encode, decode)

(* [apply_flow_mods topo batches] — seconds per flow-mod applied by
   [Network.apply_flow_mod] to a scratch network built from [topo].
   Every batch opens with a delete of the rules it replaces, so
   replaying the batches again leaves the tables as one pass did. *)
let apply_flow_mods topo batches =
  let mods =
    List.concat_map
      (fun (sw, msgs) ->
        List.filter_map
          (fun (m : Openflow.Message.t) ->
            match m with Flow_mod fm -> Some (sw, fm) | _ -> None)
          msgs)
      batches
  in
  let net = Network.create topo in
  per_item ~min_items:5_000 ~n:(List.length mods) ~prepare:ignore (fun () ->
    List.iter
      (fun (sw, fm) -> Network.apply_flow_mod net (Network.switch net sw) fm)
      mods)

(* the batch a controller would send to install [table] on switch [sw]
   from scratch: delete-all, one add per rule, barrier *)
let install_batch sw table =
  ( sw,
    (Openflow.Message.Flow_mod
       (Openflow.Message.delete_flow ~pattern:Flow.Pattern.any ())
     :: List.map
          (fun (r : Flow.Table.rule) ->
            Openflow.Message.Flow_mod
              (Openflow.Message.add_flow ~priority:r.priority ~pattern:r.pattern
                 ~actions:r.actions ()))
          (Flow.Table.rules table))
    @ [ Openflow.Message.Barrier_request ] )
