type t = {
  app : Api.app;
  cookie : int;
  mutable installs : int;        (* rules pushed over the lifetime *)
  mutable reinstalls : int;      (* recomputation rounds *)
  mutable last_churn : int;      (* flow-mods issued by the last round *)
  mutable recompute_pending : bool;  (* a coalesced recompute is scheduled *)
  (* what we believe each live switch's table holds: per-switch uid
     certificates + rule lists from the last compile (for uid-skipping
     and diffing) *)
  mutable snap : Netkat.Delta.snapshot option;
  (* switches reported down by the runtime's keepalive: compiled around
     (their links are failed on a topology copy) until they re-handshake *)
  dead : (int, unit) Hashtbl.t;
  mutable reroutes : int;  (* recomputes triggered by switch_down *)
  use_ip : bool;
}

let push_tables t ctx =
  let live_topo = Api.topology ctx in
  (* a dead switch is compiled around: fail its links on a copy so BFS
     routes avoid it (the live topology keeps ground truth — the switch
     may still be forwarding, e.g. under a control-channel partition) *)
  let topo =
    if Hashtbl.length t.dead = 0 then live_topo
    else begin
      let c = Topo.Topology.copy live_topo in
      Hashtbl.iter
        (fun id () -> Topo.Topology.fail_node c (Topo.Topology.Node.Switch id))
        t.dead;
      c
    end
  in
  let pol =
    if t.use_ip then Netkat.Builder.ip_routing_policy topo
    else Netkat.Builder.routing_policy topo
  in
  let fdd = Netkat.Fdd.of_policy pol in
  (* The first push full-replaces every table; later ones send each
     changed switch its minimal delta.  Dead switches get no push: they
     are excluded from the compile, so their snapshot entry is dropped —
     recovery re-enters them via a fresh recompute, which sees no entry
     and full-replaces their table. *)
  let switches =
    List.filter
      (fun id -> not (Hashtbl.mem t.dead id))
      (Topo.Topology.switch_ids topo)
  in
  let result = Netkat.Delta.compile ~switches t.snap fdd in
  let full, delta =
    Api.push_delta ctx ~cookie:t.cookie ~previous:t.snap result
  in
  let churn = full + delta in
  t.snap <- Some result.snapshot;
  t.installs <- t.installs + churn;
  t.last_churn <- churn;
  t.reinstalls <- t.reinstalls + 1

let create ?(use_ip = false) ?(cookie = 0x0e) () =
  let t_ref = ref None in
  let get () = Option.get !t_ref in
  let installed = ref false in
  (* coalesced per instant: schedule one zero-delay recompute that runs
     after the instant's remaining events and sees the final topology +
     dead set.  (Comparing times instead would drop a second distinct
     failure landing at the same instant and recompute over a stale
     graph.) *)
  let schedule_recompute t ctx =
    if not t.recompute_pending then begin
      t.recompute_pending <- true;
      Api.schedule ctx ~delay:0.0 (fun () ->
        t.recompute_pending <- false;
        push_tables t ctx)
    end
  in
  let switch_up ctx ~switch_id ~ports:_ =
    (* push all tables once, when the first switch comes up.  A repeat
       switch_up is a re-handshake, which always follows the runtime's
       switch_down, so the switch is dead here: it rejoins the topology.
       Routes were computed around it, so recompute everything (the
       runtime's resync already reconciled its table to the shadow; the
       recompute's mods ride the same ordered stream after it) *)
    let t = get () in
    if Hashtbl.mem t.dead switch_id then begin
      Hashtbl.remove t.dead switch_id;
      schedule_recompute t ctx
    end;
    if not !installed then begin
      installed := true;
      push_tables t ctx
    end
  in
  let switch_down ctx ~switch_id =
    (* keepalive verdict from the runtime: treat the switch as
       a failed node and reroute the surviving traffic around it *)
    let t = get () in
    if not (Hashtbl.mem t.dead switch_id) then begin
      Hashtbl.replace t.dead switch_id ();
      t.reroutes <- t.reroutes + 1;
      schedule_recompute t ctx
    end
  in
  let port_status ctx ~switch_id:_ ~port:_ ~up:_ =
    (* link state changed: recompute routes over the surviving graph *)
    let t = get () in
    schedule_recompute t ctx
  in
  let app =
    { Api.default_app with switch_up; switch_down; port_status }
  in
  let t =
    { app; cookie; installs = 0; reinstalls = 0; last_churn = 0;
      recompute_pending = false; snap = None;
      dead = Hashtbl.create 4; reroutes = 0;
      use_ip }
  in
  t_ref := Some t;
  t

let app t = t.app
let installs t = t.installs
let reinstalls t = t.reinstalls
let reroutes t = t.reroutes
let dead_switches t = Hashtbl.fold (fun id () acc -> id :: acc) t.dead []
let last_churn t = t.last_churn
