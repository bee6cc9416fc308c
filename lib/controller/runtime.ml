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
    Util.Gbn.bad_arg ~initial:r.retx_timeout ~backoff:r.retx_backoff
      ~cap:r.retx_cap
  with
  | Some Initial -> bad "retx_timeout"
  | Some Backoff -> bad "retx_backoff"
  | Some Cap -> bad "retx_cap"
  | None -> ()

(* reliable batches in flight per switch: a burst lands in a round trip
   or two, not a round trip per batch *)
let window = 8

type sw_status = Handshaking | Sw_up | Sw_down

type sw_state = {
  st_id : int;
  shadow : Flow.Table.t;  (* the rules this switch is intended to hold *)
  stream : Openflow.Message.t list Util.Gbn.t;
      (* the reliable batches, each ending with its barrier; live only
         while the switch is up *)
  mutable status : sw_status;
  mutable echo_outstanding : int;  (* keepalives sent and not yet answered *)
  mutable down_since : float;
  mutable handshaked : bool;  (* completed at least one features exchange *)
  mutable probe : int;  (* number of the live handshake retry chain *)
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
      (* lease epoch opening every transmission (see [transmit]); 0 = no
         fencing (single controller) *)
  on_shadow : (switch_id:int -> Openflow.Message.flow_mod -> unit) option;
      (* replication hook: observes every flow-mod as it is shadowed,
         i.e. exactly the intended-state delta stream *)
}

(* one transmission to [switch_id], every frame numbered [xid]; a
   replicated leader opens each one with its lease-epoch Fence, so once a
   switch has seen a higher epoch nothing a deposed leader sends is
   applied or answered *)
let transmit t ~switch_id xid msgs =
  if not t.halted then begin
    let msgs =
      if t.fence > 0 then Openflow.Message.Fence t.fence :: msgs else msgs
    in
    Dataplane.Network.controller_send t.ctx.Api.net ~switch_id
      (Openflow.Wire.encode_batch (List.map (fun msg -> (xid, msg)) msgs))
  end

let state t switch_id =
  match Hashtbl.find_opt t.states switch_id with
  | Some st -> st
  | None ->
    let r = t.resilience in
    let st =
      { st_id = switch_id; shadow = Flow.Table.create ();
        stream =
          Util.Gbn.create ~window ~initial:r.retx_timeout
            ~backoff:r.retx_backoff ~cap:r.retx_cap
            ~now:(fun () -> Api.time t.ctx)
            ~schedule:(fun delay f ->
              Api.schedule t.ctx ~delay (fun () -> if not t.stopped then f ()))
            ~send:(fun ~retransmit xid msgs ->
              if retransmit then
                t.rstats.retransmits <- t.rstats.retransmits + 1;
              transmit t ~switch_id xid msgs);
        status = Handshaking; echo_outstanding = 0; down_since = 0.0;
        handshaked = false; probe = 0 }
    in
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

(* the one controller send path (a batch of one is framed by
   {!Openflow.Wire.encode_batch} byte-identically to [encode]): shadow
   and replicate every flow-mod, then either join the reliable stream (a
   batch with a flow-mod or a barrier), terminated by the barrier whose
   reply acks it, or go out at once as one transmission *)
let send_batch t ~switch_id msgs =
  if msgs <> [] && not t.halted then begin
    let st = state t switch_id in
    List.iter
      (fun (msg : Openflow.Message.t) ->
        match msg with
        | Flow_mod fm ->
          shadow_flow_mod st.shadow fm;
          (match t.on_shadow with Some f -> f ~switch_id fm | None -> ())
        | _ -> ())
      msgs;
    if
      List.exists
        (fun (m : Openflow.Message.t) ->
          match m with Flow_mod _ | Barrier_request -> true | _ -> false)
        msgs
    then
      Util.Gbn.push st.stream
        (match List.rev msgs with
         | Openflow.Message.Barrier_request :: _ -> msgs
         | _ -> msgs @ [ Openflow.Message.Barrier_request ])
    else transmit t ~switch_id 0 msgs
  end

(* ------------------------------------------------------------------ *)
(* Liveness *)

(* the features request's xid opens the switch's stream at the next
   batch's number ({!Dataplane.Ctl_channel.admit}); it is sent only while
   the stream is held, so that number cannot move before the reply *)
let send_handshake t st =
  transmit t ~switch_id:st.st_id (Util.Gbn.next_seq st.stream)
    [ Openflow.Message.Hello; Openflow.Message.Features_request ]

(* the one probe of a switch that is not up: send the handshake now,
   then again after [retx_timeout], backing off by [retx_backoff] up to
   [min retx_cap echo_period], until the features reply puts the switch
   up.  A lost frame costs one RTO, and a dead switch is probed no more
   often than once per keepalive period.  Every copy goes out while the
   stream is held, so all carry the same xid; a newer start supersedes
   the older chain *)
let start_handshake t st =
  let r = t.resilience in
  let cap = Float.min r.retx_cap r.echo_period in
  st.probe <- st.probe + 1;
  let chain = st.probe in
  let rec retry delay =
    Api.schedule t.ctx ~delay (fun () ->
      if not t.stopped && st.probe = chain && st.status <> Sw_up then begin
        send_handshake t st;
        retry (Float.min cap (delay *. r.retx_backoff))
      end)
  in
  send_handshake t st;
  retry (Float.min cap r.retx_timeout)

let mark_down t st =
  if st.status = Sw_up then begin
    st.status <- Sw_down;
    st.down_since <- Api.time t.ctx;
    st.echo_outstanding <- 0;
    t.rstats.switch_downs <- t.rstats.switch_downs + 1;
    (* discard the reliable stream: the resync at re-handshake
       re-derives everything from the intended-state shadow *)
    t.rstats.dropped_batches <-
      t.rstats.dropped_batches + Util.Gbn.reset st.stream;
    List.iter
      (fun (app : Api.app) -> app.switch_down t.ctx ~switch_id:st.st_id)
      t.apps;
    start_handshake t st
  end

(* per-switch keepalive loop: echo a switch that is up; one that is not
   is probed by its handshake retries (see start_handshake) *)
let rec keepalive_tick t st =
  let r = t.resilience in
  if not t.stopped then begin
    if st.status = Sw_up then begin
      if st.echo_outstanding > 0 then
        t.rstats.echo_misses <- t.rstats.echo_misses + 1;
      if st.echo_outstanding >= r.echo_miss_limit then mark_down t st
      else begin
        st.echo_outstanding <- st.echo_outstanding + 1;
        send_batch t ~switch_id:st.st_id
          [ Openflow.Message.Echo_request "keepalive" ]
      end
    end;
    Api.schedule t.ctx ~delay:r.echo_period (fun () -> keepalive_tick t st)
  end

(* a flow-mod add reconstructing one intended (shadow) rule — permanent
   by construction (see shadow_flow_mod) *)
let add_of_rule (ru : Flow.Table.rule) =
  Openflow.Message.Flow_mod
    (Openflow.Message.add_flow ~priority:ru.priority ~cookie:ru.cookie
       ~pattern:ru.pattern ~actions:ru.actions ())

(* full-table re-push after a re-handshake, as the first batch of the
   new stream: one delete-all-plus-adds batch.  It supersedes whatever
   was queued while the switch was down (the shadow already holds it).
   The batch is NOT shadowed: it reconstructs the shadow, it does not
   extend it. *)
let full_resync t st =
  t.rstats.resyncs <- t.rstats.resyncs + 1;
  t.rstats.dropped_batches <-
    t.rstats.dropped_batches + Util.Gbn.reset st.stream;
  Util.Gbn.push st.stream
    (Openflow.Message.Flow_mod
       (Openflow.Message.delete_flow ~pattern:Flow.Pattern.any ())
     :: List.map add_of_rule (Flow.Table.rules st.shadow)
    @ [ Openflow.Message.Barrier_request ])

let resilience_stats t = t.rstats

let recovery_times t = t.rstats.recovery_samples

let shutdown t = t.stopped <- true

let halt t =
  t.stopped <- true;
  t.halted <- true

let dispatch t ~switch_id ~xid (msg : Openflow.Message.t) =
  match msg with
  | Hello ->
    (* The only switch-originated Hello is the spontaneous restart
       announcement.  From a switch believed up, declare it down, which
       opens a fresh handshake; from one already marked down, restart
       the handshake and its backoff, since the switch is back.  During
       the initial handshake it is ignored: that handshake is already
       being retried. *)
    let st = state t switch_id in
    (match st.status with
     | Sw_up -> mark_down t st
     | Sw_down -> start_handshake t st
     | Handshaking -> ())
  | Echo_reply _ ->
    let st = state t switch_id in
    if st.status = Sw_up then st.echo_outstanding <- 0
  | Barrier_reply ->
    (* a cumulative ack; a stale or duplicate one acks nothing *)
    t.rstats.acked_batches <-
      t.rstats.acked_batches + Util.Gbn.ack (state t switch_id).stream xid
  | Features_reply f ->
    let st = state t f.datapath_id in
    (match st.status with
     | Sw_up -> ()  (* duplicate features reply: already up *)
     | prev ->
       st.status <- Sw_up;
       st.echo_outstanding <- 0;
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
       Util.Gbn.resume st.stream)
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

let handler t ~switch_id data =
  (* switches send single frames today, but decode as a batch so the
     channel is symmetric *)
  if not t.halted then
    List.iter
      (fun (xid, msg) -> dispatch t ~switch_id ~xid msg)
      (Openflow.Wire.decode_all data)

let create ?(resilience = default_resilience) ?(fence = 0) ?(shadows = [])
    ?on_shadow net apps =
  check_resilience "Runtime.create" resilience;
  (* tie the knot: the ctx closes over the runtime record *)
  let rec t =
    { ctx =
        { net;
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
      stats_waiters = Hashtbl.create 16;
      handshakes = 0;
      resilience;
      states = Hashtbl.create 16;
      rstats =
        { retransmits = 0; echo_misses = 0; switch_downs = 0; resyncs = 0;
          acked_batches = 0; dropped_batches = 0; recovery_samples = [] };
      stopped = false; halted = false;
      fence; on_shadow }
  in
  (* take every switch: adopt its session, then handshake (hello +
     features request in one transmission).  A switch seeded from a
     replicated shadow counts as handshaked before, so its first
     features reply re-pushes it *)
  List.iter
    (fun (sw : Dataplane.Network.switch) ->
      let st = state t sw.sw_id in
      (match List.assoc_opt sw.sw_id shadows with
       | Some rules ->
         Flow.Table.add_copies st.shadow rules;
         st.handshaked <- true
       | None -> ());
      Dataplane.Network.adopt sw.ctl (handler t);
      start_handshake t st;
      Api.schedule t.ctx ~delay:resilience.echo_period (fun () ->
        keepalive_tick t st))
    (Dataplane.Network.switch_list net);
  t

let ctx t = t.ctx

let ready_switches t = t.handshakes

let switch_up t ~switch_id = (state t switch_id).status = Sw_up

let create_and_handshake ?resilience net apps =
  let t = create ?resilience net apps in
  let horizon =
    Dataplane.Network.now net +. (20.0 *. Dataplane.Ctl_channel.latency)
  in
  ignore (Dataplane.Network.run ~until:horizon net ());
  t
