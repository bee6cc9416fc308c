type resilience = {
  echo_period : float;
  echo_miss_limit : int;
  retx_timeout : float;
  retx_backoff : float;
  retx_cap : float;
}

let default_resilience =
  { echo_period = 0.25; echo_miss_limit = 3;
    retx_timeout = 0.02; retx_backoff = 2.0; retx_cap = 0.5 }

let check_resilience who r =
  let bad field = invalid_arg (Printf.sprintf "%s: resilience.%s" who field) in
  if not (Float.is_finite r.echo_period && r.echo_period > 0.0) then
    bad "echo_period";
  if r.echo_miss_limit < 1 then bad "echo_miss_limit";
  match
    Util.Rto.bad_arg ~initial:r.retx_timeout ~backoff:r.retx_backoff
      ~cap:r.retx_cap
  with
  | Some Initial -> bad "retx_timeout"
  | Some Backoff -> bad "retx_backoff"
  | Some Cap -> bad "retx_cap"
  | None -> ()

(* a reliable batch: pre-assigned xids so retransmissions are replays *)
type batch = {
  frames : (int * Openflow.Message.t) list;
  barrier_xid : int;
  mutable attempts : int;
  mutable sent_at : float;  (* the latest transmission *)
}

type sw_status = Handshaking | Sw_up | Sw_down

type sw_state = {
  st_id : int;
  shadow : Flow.Table.t;  (* the rules this switch is intended to hold *)
  pending : batch Queue.t;
  mutable inflight : batch option;
  rto : Util.Rto.t;
  mutable status : sw_status;
  mutable echo_outstanding : int;  (* keepalives sent and not yet answered *)
  mutable down_since : float;
  mutable handshaked : bool;  (* completed at least one features exchange *)
}

type resilience_stats = {
  mutable retransmits : int;
  mutable echo_misses : int;
  mutable switch_downs : int;
  mutable resyncs : int;
  mutable acked_batches : int;
  mutable dropped_batches : int;
  mutable recovery_samples : float list;
}

type t = {
  ctx : Api.ctx;
  apps : Api.app list;
  mutable next_xid : int;
  stats_waiters : (int, (Openflow.Message.stats_reply -> unit) Queue.t) Hashtbl.t;
  mutable handshakes : int;  (* switches that completed features exchange *)
  resilience : resilience;
  states : (int, sw_state) Hashtbl.t;
  rstats : resilience_stats;
  mutable stopped : bool;  (* shuts periodic loops down (see shutdown) *)
  mutable halted : bool;
      (* crashed (see halt): additionally refuses incoming frames and
         outgoing sends — a dead process neither reads nor writes *)
  fence : int;
      (* lease epoch stamped on every reliable batch as a leading
         {!Openflow.Message.Fence} frame; 0 = no fencing (single
         controller).  See {!Controller.Replica}. *)
  preset : (int, Flow.Table.rule list) Hashtbl.t;
      (* replicated shadow tables to seed per-switch state from (a new
         leader starts from its replica, not from empty); consumed by
         [state] on first touch *)
  on_shadow : (switch_id:int -> Openflow.Message.t -> unit) option;
      (* replication hook: observes every flow-mod as it is shadowed,
         i.e. exactly the intended-state delta stream *)
  mutable hfn : (switch_id:int -> bytes -> unit) option;
      (* the control-channel receive handler, exposed for session
         adoption (see {!handler}) *)
}

let state t switch_id =
  match Hashtbl.find_opt t.states switch_id with
  | Some st -> st
  | None ->
    let st =
      { st_id = switch_id; shadow = Flow.Table.create ();
        pending = Queue.create (); inflight = None;
        rto =
          Util.Rto.create ~initial:t.resilience.retx_timeout
            ~backoff:t.resilience.retx_backoff ~cap:t.resilience.retx_cap;
        status = Handshaking; echo_outstanding = 0; down_since = 0.0;
        handshaked = false }
    in
    (match Hashtbl.find_opt t.preset switch_id with
     | None -> ()
     | Some rules ->
       (* seed the intended-state shadow from the replicated copy, and
          mark the switch as previously handshaked so the first features
          reply re-pushes it *)
       Flow.Table.add_copies st.shadow rules;
       st.handshaked <- true;
       Hashtbl.remove t.preset switch_id);
    Hashtbl.replace t.states switch_id st;
    st

(* ------------------------------------------------------------------ *)
(* Intended-state shadow *)

let timed (r : Flow.Table.rule) = Option.is_some r.idle_timeout

let shadow_flow_mod table (fm : Openflow.Message.flow_mod) =
  match fm.command with
  | Add_flow when Option.is_some fm.idle_timeout ->
    Flow.Table.remove_strict table ~priority:fm.fm_priority
      ~pattern:fm.fm_pattern
  | _ -> Openflow.Message.apply_to_table ~now:0.0 table fm

let intended_rules t ~switch_id = Flow.Table.rules (state t switch_id).shadow

let diverged t =
  let keys rules =
    List.sort compare
      (List.filter_map
         (fun (r : Flow.Table.rule) ->
           if timed r then None
           else Some (r.priority, r.pattern, r.actions, r.cookie))
         rules)
  in
  List.filter_map
    (fun (sw : Dataplane.Network.switch) ->
      if keys (Flow.Table.rules sw.table)
         <> keys (intended_rules t ~switch_id:sw.sw_id)
      then Some sw.sw_id
      else None)
    (Dataplane.Network.switch_list t.ctx.Api.net)

let settle t =
  let net = t.ctx.Api.net in
  let limit = Dataplane.Network.now net +. 2.0 in
  let rec go () =
    match diverged t with
    | d when d = [] || Dataplane.Network.now net >= limit -> d
    | _ ->
      ignore
        (Dataplane.Network.run ~until:(Dataplane.Network.now net +. 0.01) net ());
      go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Reliable batches *)

let sim_of t = Dataplane.Network.sim t.ctx.Api.net

let transmit_batch t st b =
  b.attempts <- b.attempts + 1;
  b.sent_at <- Api.time t.ctx;
  Dataplane.Network.controller_send t.ctx.Api.net ~switch_id:st.st_id
    (Openflow.Wire.encode_batch b.frames)

(* arm the retransmission timer for the batch currently in flight; the
   timer is disarmed implicitly when the batch is acked or discarded
   (physical equality against [inflight]) *)
let rec arm_retx t st b =
  Dataplane.Sim.schedule (sim_of t) ~delay:(Util.Rto.current st.rto)
    (fun () ->
      if not t.stopped then
        match st.inflight with
        | Some cur when cur == b ->
          t.rstats.retransmits <- t.rstats.retransmits + 1;
          Util.Rto.expire st.rto;
          transmit_batch t st b;
          arm_retx t st b
        | _ -> ())

(* start the next queued batch if the line is idle and the switch is up *)
let pump t st =
  match st.inflight with
  | Some _ -> ()
  | None ->
    if st.status = Sw_up && not (Queue.is_empty st.pending) then begin
      let b = Queue.pop st.pending in
      st.inflight <- Some b;
      transmit_batch t st b;
      arm_retx t st b
    end

(* enqueue [msgs] as one reliable batch (trailing barrier appended when
   missing); xids are assigned now so any retransmission is a replay.
   A replicated leader opens every batch with its lease-epoch Fence —
   the switch rejects the whole delivery once a higher epoch has been
   seen, so a deposed leader's retransmits can never land. *)
let enqueue_reliable t st msgs =
  let msgs =
    if t.fence > 0 then Openflow.Message.Fence t.fence :: msgs else msgs
  in
  let msgs =
    match List.rev msgs with
    | Openflow.Message.Barrier_request :: _ -> msgs
    | _ -> msgs @ [ Openflow.Message.Barrier_request ]
  in
  let frames =
    List.map
      (fun msg ->
        t.next_xid <- t.next_xid + 1;
        (t.next_xid, msg))
      msgs
  in
  let barrier_xid =
    (* the batch ends with the barrier by construction *)
    match List.rev frames with (xid, _) :: _ -> xid | [] -> assert false
  in
  Queue.push { frames; barrier_xid; attempts = 0; sent_at = nan } st.pending;
  pump t st

let contains_flow_mod msgs =
  List.exists
    (fun (m : Openflow.Message.t) ->
      match m with Flow_mod _ -> true | _ -> false)
    msgs

(* the one controller send path ([ctx.send] is a batch of one, which
   {!Openflow.Wire.encode_batch} frames byte-identically to [encode]):
   shadow and replicate every flow-mod, then either join the reliable
   stream (the batch carries a flow-mod, so the switch-side xid dedup
   sees one ordered sequence) or go out at once as one transmission *)
let send_batch t ~switch_id msgs =
  if msgs <> [] && not t.halted then begin
    let st = state t switch_id in
    List.iter
      (fun (msg : Openflow.Message.t) ->
        match msg with
        | Flow_mod fm ->
          shadow_flow_mod st.shadow fm;
          (match t.on_shadow with Some f -> f ~switch_id msg | None -> ())
        | _ -> ())
      msgs;
    if contains_flow_mod msgs then enqueue_reliable t st msgs
    else begin
      let framed =
        List.map
          (fun msg ->
            t.next_xid <- t.next_xid + 1;
            (t.next_xid, msg))
          msgs
      in
      Dataplane.Network.controller_send t.ctx.Api.net ~switch_id
        (Openflow.Wire.encode_batch framed)
    end
  end

(* ------------------------------------------------------------------ *)
(* Liveness *)

let mark_down t st =
  if st.status = Sw_up then begin
    st.status <- Sw_down;
    st.down_since <- Api.time t.ctx;
    st.echo_outstanding <- 0;
    t.rstats.switch_downs <- t.rstats.switch_downs + 1;
    (* discard the reliable stream: the resync at re-handshake
       re-derives everything from the intended-state shadow *)
    let dropped =
      Queue.length st.pending
      + (match st.inflight with Some _ -> 1 | None -> 0)
    in
    t.rstats.dropped_batches <- t.rstats.dropped_batches + dropped;
    st.inflight <- None;
    Queue.clear st.pending;
    List.iter
      (fun (app : Api.app) -> app.switch_down t.ctx ~switch_id:st.st_id)
      t.apps
  end

let send_handshake t ~switch_id =
  t.ctx.Api.send_batch ~switch_id
    [ Openflow.Message.Hello; Openflow.Message.Features_request ]

(* per-switch keepalive / probe loop: echo while up, re-handshake probes
   while down or never handshaked *)
let rec keepalive_tick t st =
  let r = t.resilience in
  if not t.stopped then begin
    (match st.status with
     | Sw_up ->
       if st.echo_outstanding > 0 then
         t.rstats.echo_misses <- t.rstats.echo_misses + 1;
       if st.echo_outstanding >= r.echo_miss_limit then mark_down t st
       else begin
         st.echo_outstanding <- st.echo_outstanding + 1;
         t.ctx.Api.send ~switch_id:st.st_id
           (Openflow.Message.Echo_request "keepalive")
       end
     | Handshaking | Sw_down -> send_handshake t ~switch_id:st.st_id);
    Api.schedule t.ctx ~delay:r.echo_period (fun () -> keepalive_tick t st)
  end

(* a flow-mod add reconstructing one intended (shadow) rule — permanent
   by construction (see shadow_flow_mod) *)
let add_of_rule (ru : Flow.Table.rule) =
  Openflow.Message.Flow_mod
    (Openflow.Message.add_flow ~priority:ru.priority ~cookie:ru.cookie
       ~pattern:ru.pattern ~actions:ru.actions ())

(* full-table re-push after a re-handshake, as a single reliable
   delete-all-plus-adds batch.  The batch is NOT shadowed: it
   reconstructs the shadow, it does not extend it. *)
let full_resync t st =
  t.rstats.resyncs <- t.rstats.resyncs + 1;
  enqueue_reliable t st
    (Openflow.Message.Flow_mod
       (Openflow.Message.delete_flow ~pattern:Flow.Pattern.any ())
    :: List.map add_of_rule (Flow.Table.rules st.shadow))

let resilience_stats t = t.rstats

let recovery_times t = t.rstats.recovery_samples

let shutdown t = t.stopped <- true

let halt t =
  t.stopped <- true;
  t.halted <- true

let create ?(latency = 1e-3) ?(resilience = default_resilience)
    ?(attach = true) ?(fence = 0) ?(xid_base = 0) ?(shadows = []) ?on_shadow
    net apps =
  check_resilience "Runtime.create" resilience;
  let t_ref = ref None in
  let rec handler ~switch_id data =
    match !t_ref with
    | None -> ()
    | Some t -> if not t.halted then handle t ~switch_id data
  and handle t ~switch_id data =
    (* switches send single frames today, but decode as a batch so the
       channel is symmetric *)
    List.iter
      (fun (xid, msg) -> dispatch t ~switch_id ~xid msg)
      (Openflow.Wire.decode_all data)
  and dispatch t ~switch_id ~xid (msg : Openflow.Message.t) =
    match msg with
    | Hello ->
      (* The only switch-originated Hello is the spontaneous restart
         announcement.  From a switch believed up, declare it down and
         open a fresh handshake; from one already marked down, just
         handshake (the probe loop would get there anyway, this
         shortens the outage).  During the initial handshake it is
         ignored — a features exchange is already in flight. *)
      let st = state t switch_id in
      (match st.status with
       | Sw_up ->
         mark_down t st;
         send_handshake t ~switch_id
       | Sw_down -> send_handshake t ~switch_id
       | Handshaking -> ())
    | Echo_reply _ ->
      let st = state t switch_id in
      if st.status = Sw_up then st.echo_outstanding <- 0
    | Barrier_reply ->
      let st = state t switch_id in
      (match st.inflight with
       | Some b when b.barrier_xid = xid ->
         st.inflight <- None;
         (* Karn's rule: a retransmitted batch's reply may answer any of
            its copies, so only a first send is timed *)
         Util.Rto.ack st.rto
           ?rtt:
             (if b.attempts = 1 then Some (Api.time t.ctx -. b.sent_at)
              else None);
         t.rstats.acked_batches <- t.rstats.acked_batches + 1;
         pump t st
       | _ -> ())  (* stale or duplicate ack *)
    | Features_reply f ->
      let st = state t f.datapath_id in
      (match st.status with
       | Sw_up -> ()  (* duplicate features reply: already up *)
       | prev ->
         st.status <- Sw_up;
         st.echo_outstanding <- 0;
         (* the switch answers again: drop any backoff, keep the RTT
            estimate *)
         Util.Rto.ack st.rto;
         t.handshakes <- t.handshakes + 1;
         if prev = Sw_down then
           t.rstats.recovery_samples <-
             (Api.time t.ctx -. st.down_since) :: t.rstats.recovery_samples;
         let resync = st.handshaked in
         st.handshaked <- true;
         (* re-handshake after a crash: restore intended state before
            apps react, then let their switch_up pushes layer on top *)
         if resync then full_resync t st;
         List.iter
           (fun (app : Api.app) ->
             app.switch_up t.ctx ~switch_id:f.datapath_id ~ports:f.port_list)
           t.apps;
         pump t st)
    | Packet_in pi ->
      List.iter
        (fun (app : Api.app) ->
          app.packet_in t.ctx ~switch_id ~port:pi.in_port ~reason:pi.reason
            pi.packet)
        t.apps
    | Port_status ps ->
      List.iter
        (fun (app : Api.app) ->
          app.port_status t.ctx ~switch_id ~port:ps.ps_port
            ~up:(ps.ps_reason = Openflow.Message.Port_up))
        t.apps
    | Stats_reply reply ->
      (match Hashtbl.find_opt t.stats_waiters switch_id with
       | Some q when not (Queue.is_empty q) -> (Queue.pop q) reply
       | Some _ | None -> ())
    | Echo_request _ | Features_request | Packet_out _ | Flow_mod _
    | Stats_request _ | Barrier_request | Fence _ ->
      ()
      (* switch-bound message types never arrive at the controller, and
         no switch originates an echo request *)
  in
  (* tie the knot: the ctx closes over the runtime record *)
  let rec t =
    { ctx =
        { net;
          send = (fun ~switch_id msg -> send_batch t ~switch_id [ msg ]);
          send_batch = (fun ~switch_id msgs -> send_batch t ~switch_id msgs);
          await_stats =
            (fun ~switch_id k ->
              let q =
                match Hashtbl.find_opt t.stats_waiters switch_id with
                | Some q -> q
                | None ->
                  let q = Queue.create () in
                  Hashtbl.replace t.stats_waiters switch_id q;
                  q
              in
              Queue.push k q) };
      apps;
      next_xid = xid_base;
      stats_waiters = Hashtbl.create 16;
      handshakes = 0;
      resilience;
      states = Hashtbl.create 16;
      rstats =
        { retransmits = 0; echo_misses = 0; switch_downs = 0; resyncs = 0;
          acked_batches = 0; dropped_batches = 0; recovery_samples = [] };
      stopped = false; halted = false;
      fence;
      preset =
        (let h = Hashtbl.create (List.length shadows) in
         List.iter (fun (sid, rules) -> Hashtbl.replace h sid rules) shadows;
         h);
      on_shadow; hfn = None }
  in
  t_ref := Some t;
  t.hfn <- Some handler;
  if attach then Dataplane.Network.attach_controller net ~latency handler;
  (* handshake with every switch: hello + features request ride in one
     batched transmission per switch *)
  List.iter
    (fun (sw : Dataplane.Network.switch) ->
      let switch_id = sw.sw_id in
      ignore (state t switch_id);
      send_handshake t ~switch_id;
      Api.schedule t.ctx ~delay:resilience.echo_period (fun () ->
        keepalive_tick t (state t switch_id)))
    (Dataplane.Network.switch_list net);
  t

let ctx t = t.ctx

let handler t =
  match t.hfn with Some h -> h | None -> assert false (* set in create *)

let next_xid t = t.next_xid

let ready_switches t = t.handshakes

let switch_up t ~switch_id = (state t switch_id).status = Sw_up

let create_and_handshake ?(latency = 1e-3) ?resilience net apps =
  let t = create ~latency ?resilience net apps in
  let horizon = Dataplane.Network.now net +. (20.0 *. latency) in
  ignore (Dataplane.Network.run ~until:horizon net ());
  t
