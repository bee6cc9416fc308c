module Network = Dataplane.Network
module Sim = Dataplane.Sim
module Fault = Dataplane.Fault
module Ctl_channel = Dataplane.Ctl_channel

type role = Leader | Standby | Down

type config = {
  lease : float;      (* lease duration, seconds *)
  hb_period : float;  (* heartbeat period, [lease / 3] *)
}

(* one inter-controller message; deltas carry the decoded flow-mod (the
   channel is in-process) but are accounted at wire size *)
type repl_msg =
  | Hb of { h_epoch : int }
  | Delta of { d_epoch : int; d_sw : int; d_fm : Openflow.Message.flow_mod }
  | Sync_req of { sr_from : int }
  | Sync_full of { sf_epoch : int;
                   sf_tables : (int * Flow.Table.rule list) list }

type member = {
  m_id : int;
  mutable role : role;
  mutable runtime : Runtime.t option;
  m_shadows : (int, Flow.Table.t) Hashtbl.t;
      (* standby: replicated copy of the leader's intended state *)
  mutable m_epoch : int;   (* highest lease epoch known *)
  mutable last_hb : float;
  mutable synced : bool;   (* false while a rejoined standby awaits Sync_full *)
  mutable partitioned : bool;  (* inter-controller channel cut (split brain) *)
  mutable term : int;
      (* local loop-invalidation counter: every role change bumps it, and
         every periodic loop captures it at start — a loop whose term is
         stale belongs to a previous life of this member and stops *)
}

type stats = {
  mutable failovers : int;
  mutable takeovers_completed : int;
  mutable step_downs : int;
  mutable hb_sent : int;
  mutable deltas_sent : int;
  mutable repl_msgs : int;
  mutable repl_bytes : int;
  mutable repl_drops : int;
  mutable syncs : int;
  mutable failover_samples : float list;
}

type t = {
  net : Network.t;
  cfg : config;
  resilience : Runtime.resilience;
  mk_apps : unit -> Api.app list;
      (* app factory: each leader incarnation runs fresh app instances,
         which rebuild their state from its handshakes' [switch_up]s *)
  switch_ids : int list;
  members : member array;
  repl_fault : Fault.t option;  (* chaos on the inter-controller channel *)
  lanes : Ctl_channel.lane array array;
      (* [lanes.(src).(dst)]: one ordered lane per member pair *)
  rstats : stats;
  mutable stopped : bool;
}

let now t = Network.now t.net
let sim t = Network.sim t.net

(* a member's lease-expiry threshold, staggered by id so two standbys
   never declare expiry in the same tick *)
let expiry t m = t.cfg.lease +. (float_of_int m.m_id *. t.cfg.hb_period)

(* ------------------------------------------------------------------ *)
(* Inter-controller channel *)

let repl_size (msg : repl_msg) =
  match msg with
  | Hb _ -> 12
  | Delta { d_fm; _ } ->
    4
    + Bytes.length
        (Openflow.Wire.encode ~xid:0 (Openflow.Message.Flow_mod d_fm))
  | Sync_req _ -> 8
  | Sync_full { sf_tables; _ } ->
    12
    + List.fold_left (fun a (_, rules) -> a + (40 * List.length rules)) 0
        sf_tables

let rec send_repl t ~src ~dst msg =
  if not t.stopped then begin
    let ms = t.members.(src) and md = t.members.(dst) in
    t.rstats.repl_msgs <- t.rstats.repl_msgs + 1;
    t.rstats.repl_bytes <- t.rstats.repl_bytes + repl_size msg;
    match
      Ctl_channel.transmit ~tracer:None t.repl_fault t.lanes.(src).(dst)
        ~cut:(ms.partitioned || md.partitioned) ~now:(now t) (fun time ->
          Sim.schedule_at (sim t) ~time (fun () -> recv_repl t md msg))
    with
    | Sent -> ()
    | Cut -> t.rstats.repl_drops <- t.rstats.repl_drops + 1
    | Dropped ->
      t.rstats.repl_drops <- t.rstats.repl_drops + 1;
      Network.trace t.net "repl-drop c%d->c%d" src dst
  end

and broadcast t ~src msg =
  Array.iter
    (fun (m : member) ->
      if m.m_id <> src then send_repl t ~src ~dst:m.m_id msg)
    t.members

(* ------------------------------------------------------------------ *)
(* Standby state *)

and shadow_of m sw =
  match Hashtbl.find_opt m.m_shadows sw with
  | Some table -> table
  | None ->
    let table = Flow.Table.create () in
    Hashtbl.replace m.m_shadows sw table;
    table

and replicated_rules t m =
  List.map
    (fun sid ->
      ( sid,
        match Hashtbl.find_opt m.m_shadows sid with
        | Some table -> Flow.Table.rules table
        | None -> [] ))
    t.switch_ids

and load_tables m tables =
  Hashtbl.reset m.m_shadows;
  List.iter
    (fun (sid, rules) -> Flow.Table.add_copies (shadow_of m sid) rules)
    tables

(* ------------------------------------------------------------------ *)
(* Receive *)

and recv_repl t m msg =
  if (not t.stopped) && m.role <> Down && not m.partitioned then
    match msg with
    | Hb { h_epoch } ->
      if h_epoch >= m.m_epoch then begin
        (match m.role with
         | Leader when h_epoch > m.m_epoch ->
           (* a higher lease epoch exists: this member was deposed while
              partitioned — stop writing and rejoin as a standby *)
           step_down t m h_epoch
         | _ -> ());
        if m.role = Standby then begin
          m.last_hb <- now t;
          m.m_epoch <- h_epoch
        end
      end
    | Delta { d_epoch; d_sw; d_fm } ->
      if m.role = Standby && d_epoch >= m.m_epoch then begin
        m.last_hb <- now t;
        m.m_epoch <- d_epoch;
        Runtime.shadow_flow_mod (shadow_of m d_sw) d_fm
      end
    | Sync_req { sr_from } ->
      (match (m.role, m.runtime) with
       | Leader, Some rt ->
         t.rstats.syncs <- t.rstats.syncs + 1;
         let tables =
           List.map
             (fun sid -> (sid, Runtime.intended_rules rt ~switch_id:sid))
             t.switch_ids
         in
         send_repl t ~src:m.m_id ~dst:sr_from
           (Sync_full { sf_epoch = m.m_epoch; sf_tables = tables })
       | _ -> ())
    | Sync_full { sf_epoch; sf_tables } ->
      if m.role = Standby && (not m.synced) && sf_epoch >= m.m_epoch then begin
        load_tables m sf_tables;
        m.m_epoch <- sf_epoch;
        m.synced <- true;
        m.last_hb <- now t;
        Network.trace t.net "sync c%d epoch=%d" m.m_id sf_epoch
      end

(* ------------------------------------------------------------------ *)
(* Leader side *)

and hb_loop t m term =
  if (not t.stopped) && m.term = term && m.role = Leader then begin
    (match m.runtime with
     | Some _ ->
       t.rstats.hb_sent <- t.rstats.hb_sent + 1;
       broadcast t ~src:m.m_id
         (Hb { h_epoch = m.m_epoch })
     | None -> ());
    Sim.schedule (sim t) ~delay:t.cfg.hb_period (fun () -> hb_loop t m term)
  end

and mk_on_shadow t m ~switch_id fm =
  if m.role = Leader then begin
    t.rstats.deltas_sent <- t.rstats.deltas_sent + 1;
    broadcast t ~src:m.m_id
      (Delta { d_epoch = m.m_epoch; d_sw = switch_id; d_fm = fm })
  end

(* the new runtime adopts every switch session — in-flight frames
   re-home at delivery, the stream gate and FIFO clamps stay in the
   session.  The new epoch reaches each switch with the runtime's first
   handshake, which it opens with its fence: from then on nothing the
   deposed leader sends is applied or answered *)
and start_leader t m ~shadows =
  m.role <- Leader;
  m.term <- m.term + 1;
  let rt =
    Runtime.create ~resilience:t.resilience ~fence:m.m_epoch ~shadows
      ~on_shadow:(mk_on_shadow t m) t.net (t.mk_apps ())
  in
  m.runtime <- Some rt;
  hb_loop t m m.term;
  rt

and step_down t m new_epoch =
  t.rstats.step_downs <- t.rstats.step_downs + 1;
  Network.trace t.net "step-down c%d epoch=%d" m.m_id new_epoch;
  (match m.runtime with Some rt -> Runtime.shutdown rt | None -> ());
  m.runtime <- None;
  m.role <- Standby;
  m.term <- m.term + 1;
  m.m_epoch <- new_epoch;
  m.synced <- false;
  Hashtbl.reset m.m_shadows;
  m.last_hb <- now t;
  monitor_loop t m m.term

(* ------------------------------------------------------------------ *)
(* Standby side: lease monitoring and takeover *)

and takeover t m =
  t.rstats.failovers <- t.rstats.failovers + 1;
  let detect = now t in
  m.m_epoch <- m.m_epoch + 1;
  Network.trace t.net "takeover c%d epoch=%d" m.m_id m.m_epoch;
  let shadows = replicated_rules t m in
  let rt = start_leader t m ~shadows in
  let term = m.term in
  (* sample the failover: detection → every switch back up under the new
     leader (handshake + resync complete) *)
  let rec poll () =
    if (not t.stopped) && m.term = term && m.role = Leader then begin
      if
        List.for_all
          (fun sid -> Runtime.switch_up rt ~switch_id:sid)
          t.switch_ids
      then begin
        let d = now t -. detect in
        t.rstats.takeovers_completed <- t.rstats.takeovers_completed + 1;
        t.rstats.failover_samples <- d :: t.rstats.failover_samples;
        Network.trace t.net "failover-complete c%d %.6f" m.m_id d
      end
      else
        Sim.schedule (sim t) ~delay:t.cfg.hb_period poll
    end
  in
  Sim.schedule (sim t) ~delay:t.cfg.hb_period poll

and monitor_loop t m term =
  if (not t.stopped) && m.term = term && m.role = Standby then begin
    if not m.synced then begin
      (* rejoining: pull a full state transfer before becoming eligible
         for takeover (an unsynced standby must never lead) *)
      broadcast t ~src:m.m_id (Sync_req { sr_from = m.m_id });
      Sim.schedule (sim t) ~delay:t.cfg.hb_period (fun () ->
        monitor_loop t m term)
    end
    else if now t -. m.last_hb > expiry t m then begin
      Network.trace t.net "lease-expired c%d" m.m_id;
      takeover t m
    end
    else
      Sim.schedule (sim t) ~delay:t.cfg.hb_period (fun () ->
        monitor_loop t m term)
  end

(* ------------------------------------------------------------------ *)
(* Controller-outage incidents *)

let crash t ~controller_id =
  if controller_id >= 0 && controller_id < Array.length t.members then begin
    let m = t.members.(controller_id) in
    if m.role <> Down then begin
      (match m.runtime with Some rt -> Runtime.halt rt | None -> ());
      m.runtime <- None;
      m.role <- Down;
      m.term <- m.term + 1
    end
  end

let restart t ~controller_id =
  if controller_id >= 0 && controller_id < Array.length t.members then begin
    let m = t.members.(controller_id) in
    if m.role = Down then begin
      m.role <- Standby;
      m.term <- m.term + 1;
      m.synced <- false;
      Hashtbl.reset m.m_shadows;
      m.last_hb <- now t;
      monitor_loop t m m.term
    end
  end

let partition t ~controller_id =
  let m = t.members.(controller_id) in
  if not m.partitioned then begin
    m.partitioned <- true;
    Network.trace t.net "repl-partition c%d" controller_id
  end

let heal t ~controller_id =
  let m = t.members.(controller_id) in
  if m.partitioned then begin
    m.partitioned <- false;
    Network.trace t.net "repl-heal c%d" controller_id
  end

(* ------------------------------------------------------------------ *)
(* Introspection *)

let leader t =
  let r = ref None in
  Array.iter (fun m -> if m.role = Leader then r := Some m.m_id) t.members;
  !r

let epoch t =
  Array.fold_left (fun acc m -> max acc m.m_epoch) 0 t.members

let leader_runtime t =
  match leader t with
  | None -> None
  | Some id -> t.members.(id).runtime

let runtime_of t ~controller_id = t.members.(controller_id).runtime

let role_of t ~controller_id =
  t.members.(controller_id).role

let stats t = t.rstats

let failover_samples t = t.rstats.failover_samples

let diverged t =
  match leader_runtime t with
  | None -> t.switch_ids
  | Some rt -> Runtime.diverged rt

let shutdown t =
  t.stopped <- true;
  Array.iter
    (fun m ->
      match m.runtime with Some rt -> Runtime.shutdown rt | None -> ())
    t.members

(* ------------------------------------------------------------------ *)
(* Creation *)

let create ?(resilience = Runtime.default_resilience) ?(replicas = 2)
    ?(lease = 0.15) ?repl_fault net mk_apps =
  if replicas < 2 then
    invalid_arg "Replica.create: replicas < 2 (one controller is a Runtime)";
  if lease <= 0.0 then invalid_arg "Replica.create: lease <= 0";
  let switch_ids =
    List.map (fun (sw : Network.switch) -> sw.sw_id) (Network.switch_list net)
  in
  Runtime.check_resilience "Replica.create" resilience;
  let members =
    Array.init replicas (fun id ->
      { m_id = id; role = (if id = 0 then Leader else Standby); runtime = None;
        m_shadows = Hashtbl.create 16;
        m_epoch = 1; last_hb = Network.now net; synced = true;
        partitioned = false; term = 0 })
  in
  let t =
    { net; cfg = { lease; hb_period = lease /. 3.0 };
      resilience; mk_apps; switch_ids; members;
      repl_fault;
      lanes =
        Array.init replicas (fun _ ->
          Array.init replicas (fun _ -> Ctl_channel.lane None));
      rstats =
        { failovers = 0; takeovers_completed = 0; step_downs = 0;
          hb_sent = 0; deltas_sent = 0; repl_msgs = 0; repl_bytes = 0;
          repl_drops = 0; syncs = 0; failover_samples = [] };
      stopped = false }
  in
  Network.set_ctl_outage_handler net (fun ~controller_id ~up ->
    if up then restart t ~controller_id else crash t ~controller_id);
  ignore (start_leader t members.(0) ~shadows:[]);
  Array.iter
    (fun m -> if m.role = Standby then monitor_loop t m m.term)
    members;
  t
