type lane = {
  mutable arrival : float;  (* latest arrival handed out: the FIFO clamp *)
  label : string option;
      (* the lane's name in the event log ("ctl->s3"); with [None]
         nothing is recorded and the caller reports its own losses *)
}

let lane label = { arrival = 0.0; label }

let latency = 1e-3

(* one event-log line at [now]; formats nothing without a tracer *)
let trace tracer now fmt =
  match tracer with
  | None -> Printf.ikfprintf ignore () fmt
  | Some f -> Printf.ksprintf (f now) fmt

type fate =
  | Sent
  | Cut
  | Dropped

let transmit ~tracer fault lane ~cut ~now emit =
  if cut then Cut
  else
    match fault with
    | None ->
      emit (now +. latency);
      Sent
    | Some f ->
      let v = Fault.decide f in
      let note fmt =
        match lane.label with
        | Some l -> trace tracer now fmt l
        | None -> Printf.ikfprintf ignore () fmt ""
      in
      if v.v_drop then begin
        note "drop %s";
        Dropped
      end
      else begin
        let send extra =
          let arr = now +. latency +. extra in
          let arr = if arr < lane.arrival then lane.arrival else arr in
          lane.arrival <- arr;
          emit arr
        in
        if v.v_delay > 0.0 then note "jitter %s +%.6f" v.v_delay;
        send v.v_delay;
        if v.v_dup then begin
          note "dup %s";
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
  mutable next : int;
}

(* [next] of a session with no open stream *)
let closed = -1

let create sw_id =
  { sw_id;
    down = lane (Some (Printf.sprintf "ctl->s%d" sw_id));
    up = lane (Some (Printf.sprintf "ctl<-s%d" sw_id));
    cut = false; owner = None; fence = 0; next = closed }

let adopt s handler = s.owner <- Some handler

let reconnect s = s.next <- closed

type admission =
  | Admitted
  | Fenced of int
  | Unopened

let admit s ~tracer ~now frames apply =
  let trace fmt = trace tracer now fmt in
  (* the delivery's stream batch, judged on its first stream frame *)
  let judge xid =
    if s.next = closed then `Unopened
    else if xid = s.next then (s.next <- xid + 1; `Next)
    else if xid < s.next then `Replay
    else `Gap
  in
  let rec go verdict = function
    | [] -> if verdict = Some `Unopened then Unopened else Admitted
    | (xid, (msg : Openflow.Message.t)) :: rest ->
      (match msg with
       | Fence token when token < s.fence ->
         (* a deposed leader wrote after failover: nothing after its
            fence reaches the switch, not even a barrier *)
         trace "s%d stale fence %d < %d" s.sw_id token s.fence;
         Fenced
           (List.fold_left
              (fun n (_, (m : Openflow.Message.t)) ->
                match m with Flow_mod _ -> n + 1 | _ -> n)
              0 rest)
       | Fence token ->
         if token > s.fence then begin
           s.fence <- token;
           s.next <- closed;
           trace "s%d fence epoch=%d" s.sw_id token
         end;
         go verdict rest
       | Features_request ->
         s.next <- xid;
         apply xid msg;
         go verdict rest
       | Flow_mod _ | Barrier_request ->
         let v = match verdict with Some v -> v | None -> judge xid in
         (match v, msg with
          | `Next, _ -> apply xid msg
          | `Replay, Barrier_request -> apply (s.next - 1) msg
          | `Replay, _ -> trace "s%d dedup flow-mod xid=%d" s.sw_id xid
          | `Gap, _ -> trace "s%d drop(gap) xid=%d next=%d" s.sw_id xid s.next
          | `Unopened, _ -> trace "s%d drop(unopened) xid=%d" s.sw_id xid);
         go (Some v) rest
       | _ ->
         apply xid msg;
         go verdict rest)
  in
  go None frames
