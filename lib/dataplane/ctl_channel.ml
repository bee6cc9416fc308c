type lane = {
  mutable arrival : float;  (* latest arrival handed out: the FIFO clamp *)
  label : string option;
      (* the lane's name in the fault trace ("ctl->s3"); with [None]
         nothing is recorded and the caller reports its own losses *)
}

let lane label = { arrival = 0.0; label }

type fate =
  | Sent
  | Cut
  | Dropped

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
  down : lane;
  up : lane;
  mutable cut : bool;
  mutable owner : (switch_id:int -> bytes -> unit) option;
  mutable fence : int;
  mutable last_xid : int;
}

let create sw_id =
  { sw_id;
    down = lane (Some (Printf.sprintf "ctl->s%d" sw_id));
    up = lane (Some (Printf.sprintf "ctl<-s%d" sw_id));
    cut = false; owner = None; fence = 0; last_xid = 0 }

let adopt s handler = s.owner <- Some handler

let reconnect s = s.last_xid <- 0

(* ------------------------------------------------------------------ *)
(* A network's end of the channel *)

type wiring = {
  mutable controller : (switch_id:int -> bytes -> unit) option;
  mutable latency : float;
}

let wiring () = { controller = None; latency = 1e-3 }

let connected w s = s.owner <> None || w.controller <> None

let deliver_up w s data =
  match s.owner, w.controller with
  | Some handler, _ | None, Some handler -> handler ~switch_id:s.sw_id data
  | None, None -> ()  (* owner detached while the frame was in flight *)

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
