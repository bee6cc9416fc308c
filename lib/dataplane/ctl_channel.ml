(** The control channel: the per-switch control session, and the one
    transmit path that every ordered, lossy channel in the simulator
    shares.

    A {!lane} is one direction of an ordered channel.  {!transmit} puts
    one transmission on a lane.  It checks the partition flag, draws the
    chaos verdict ({!Fault.decide}: drop, duplicate, jitter), clamps the
    arrival so that jitter never reorders the lane (the channel models
    TCP) and hands each arrival time to the caller's [emit].  Two
    channels use it: a switch's control session in both directions, and
    the inter-controller channel of {!Controller.Replica}.

    A {!session} is the switch's half of the OpenFlow channel.  It holds
    both lanes, the partition flag, the adopted owner of up-direction
    frames, the lease-fencing token and the flow-mod xid watermark.
    {!admit} is the session's gate on a delivered controller→switch
    transmission: fence frames and replayed or fenced flow-mods stop
    here, and everything else goes on to the switch.  A network's
    {!wiring} says where its sessions' frames go: the attached
    controller.  A controller attaches only to a single-domain network,
    so a session's frames never leave the network that owns the
    switch.

    The module keeps no clock and no counters.  Callers pass the current
    time and account for the {!fate} that {!transmit} returns. *)

type lane = {
  mutable arrival : float;  (* latest arrival handed out: the FIFO clamp *)
  label : string option;
      (* the lane's name in the fault trace ("ctl->s3"); with [None]
         nothing is recorded and the caller reports its own losses *)
}

let lane label = { arrival = 0.0; label }

(** What became of one transmission. *)
type fate =
  | Sent     (** one or two arrivals were emitted *)
  | Cut      (** lost to a partition; no verdict was drawn *)
  | Dropped  (** lost to a chaos drop verdict *)

(** [transmit fault lane ~cut ~now ~latency emit] sends one transmission
    on [lane] at time [now].  Without a fault it arrives [latency] later.
    Under chaos the verdict may drop it, delay it by jitter or duplicate
    it; every copy's arrival is clamped to the lane's latest so far.
    Draws exactly one verdict per transmission that is not [cut], so a
    seed replays the same realization. *)
let transmit fault lane ~cut ~now ~latency emit =
  if cut then Cut
  else
    match fault with
    | None ->
      emit (now +. latency);
      Sent
    | Some f ->
      let v = Fault.decide f in
      if v.v_drop then begin
        (match lane.label with
         | Some l -> Fault.note f ~time:now "drop %s" l
         | None -> ());
        Dropped
      end
      else begin
        let send extra =
          let arr = now +. latency +. extra in
          let arr = if arr < lane.arrival then lane.arrival else arr in
          lane.arrival <- arr;
          emit arr
        in
        (match lane.label with
         | Some l when v.v_delay > 0.0 ->
           Fault.note f ~time:now "jitter %s +%.6f" l v.v_delay
         | Some _ | None -> ());
        send v.v_delay;
        if v.v_dup then begin
          (match lane.label with
           | Some l -> Fault.note f ~time:now "dup %s" l
           | None -> ());
          send v.v_dup_delay
        end;
        Sent
      end

(* ------------------------------------------------------------------ *)
(* The switch control session *)

type session = {
  sw_id : int;
  down : lane;  (** controller → switch *)
  up : lane;    (** switch → controller *)
  mutable cut : bool;
      (** control channel partitioned: frames in either direction vanish
          while the switch keeps forwarding *)
  mutable owner : (switch_id:int -> bytes -> unit) option;
      (** adopted owner of up-direction frames ({!adopt}); [None] means
          the network-wide controller *)
  mutable fence : int;
      (** highest lease-fencing token seen ({!Openflow.Message.Fence}),
          0 = never fenced.  Survives a switch reboot: it models the
          durable epoch a real switch learns from its connection
          manager, and forgetting it would re-open the split-brain
          window after every crash. *)
  mutable last_xid : int;
      (** highest flow-mod xid applied: a retransmitted batch replays
          with its original xids and is skipped *)
}

let create sw_id =
  { sw_id;
    down = lane (Some (Printf.sprintf "ctl->s%d" sw_id));
    up = lane (Some (Printf.sprintf "ctl<-s%d" sw_id));
    cut = false; owner = None; fence = 0; last_xid = 0 }

(** [adopt s handler] re-homes the session: from now on the switch's
    up-direction frames go to [handler] instead of the network-wide
    controller.  Frames already in flight re-home too, because the owner
    is resolved at delivery ({!deliver_up}).  Adoption is like handing a
    connected socket to a new process: nothing is lost or reordered, and
    the xid watermark keeps protecting against the previous owner's
    retransmits.  It is silent (no trace, no fault note), so adoption by
    the same logical controller is invisible to a chaos-free run. *)
let adopt s handler = s.owner <- Some handler

(** A switch reboot is a fresh control connection: the xid watermark
    resets, the fencing token stays. *)
let reconnect s = s.last_xid <- 0

(* ------------------------------------------------------------------ *)
(* A network's end of the channel *)

type wiring = {
  mutable controller : (switch_id:int -> bytes -> unit) option;
      (** the attached controller: receives the up-direction frames of
          every session nobody adopted *)
  mutable latency : float;  (** one-way latency, both directions *)
}

let wiring () = { controller = None; latency = 1e-3 }

(** Whether the up-direction frames of [s] have somewhere to go: an
    adopted owner or the attached controller. *)
let connected w s = s.owner <> None || w.controller <> None

(** [deliver_up w s data] hands an arrived switch→controller frame to
    the session's owner, or to the attached controller when no owner
    adopted it. *)
let deliver_up w s data =
  match s.owner, w.controller with
  | Some handler, _ | None, Some handler -> handler ~switch_id:s.sw_id data
  | None, None -> ()  (* owner detached while the frame was in flight *)

(** [admit s ~tracer ~fault ~now frames apply] gates one delivered
    controller→switch transmission (a batch of decoded [(xid, msg)]
    frames) and calls [apply xid msg] on each frame that passes.
    Returns the number of flow-mods the fence rejected.

    A [Fence] frame that carries a token below the highest ever seen
    marks the rest of the delivery stale: a deposed leader wrote after
    failover, so its flow-mods are rejected.  A strictly higher token
    opens a new epoch and resets the xid watermark, because the new
    leader's xid sequence is unrelated to the old one's.  Its own
    retransmits (same token) still dedup within the epoch.  Frames other
    than flow-mods pass either way: reads and barriers are harmless, and
    a barrier reply acks delivery, not rule acceptance.  xid 0
    (untracked senders) bypasses the dedup. *)
let admit s ~tracer ~fault ~now frames apply =
  let trace fmt =
    match tracer with
    | None -> Printf.ikfprintf ignore () fmt
    | Some f -> Printf.ksprintf (f now) fmt
  in
  let stale = ref false and fenced = ref 0 in
  List.iter
    (fun (xid, (msg : Openflow.Message.t)) ->
      match msg with
      | Fence token ->
        if token > s.fence then begin
          s.fence <- token;
          s.last_xid <- 0;
          stale := false;
          trace "s%d fence epoch=%d" s.sw_id token
        end
        else if token < s.fence then begin
          stale := true;
          trace "s%d stale fence %d < %d" s.sw_id token s.fence;
          match fault with
          | Some f ->
            Fault.note f ~time:now "fence-reject s%d epoch=%d" s.sw_id token
          | None -> ()
        end
        else stale := false
      | Flow_mod _ when !stale ->
        incr fenced;
        trace "s%d drop(fenced) xid=%d" s.sw_id xid
      | Flow_mod _ when xid > 0 && xid <= s.last_xid ->
        trace "s%d dedup flow-mod xid=%d" s.sw_id xid
      | Flow_mod _ ->
        if xid > 0 then s.last_xid <- xid;
        apply xid msg
      | _ -> apply xid msg)
    frames;
  !fenced
