let ack_bit = 0x400000

type stats = {
  mutable sent : int;
  mutable retransmissions : int;
  mutable acks_received : int;
  mutable completed_at : float;
}

type t = {
  net : Network.t;
  src : int;
  dst : int;
  total : int;        (** packets to deliver *)
  window : int;
  rto : Util.Rto.t;   (* never sampled: see the .mli *)
  max_retx : int;     (** per-packet retransmission budget before abort *)
  pkt_size : int;
  tp_dst : int;
  start_time : float;
  stats : stats;
  retx_count : (int, int) Hashtbl.t;
  mutable aborted : bool;
  mutable timer_gen : int;  (* invalidates stale timers on base advance *)
  (* sender state *)
  mutable base : int;        (* lowest unacked seq *)
  mutable next_seq : int;    (* next never-sent seq *)
  mutable done_ : bool;
  (* receiver state *)
  mutable expected : int;    (* next in-order seq the receiver wants *)
  out_of_order : (int, unit) Hashtbl.t;
  mutable delivered : int;
}

let stats t = t.stats
let is_complete t = t.done_
let is_aborted t = t.aborted
let delivered t = t.delivered

let send_data t seq ~retransmit =
  t.stats.sent <- t.stats.sent + 1;
  if retransmit then
    t.stats.retransmissions <- t.stats.retransmissions + 1;
  Network.send_from t.net ~host:t.src
    (Network.make_pkt ~size:t.pkt_size ~tag:seq ~tp_dst:t.tp_dst ~src:t.src
       ~dst:t.dst ())

let send_ack t upto =
  Network.send_from t.net ~host:t.dst
    (Network.make_pkt ~size:64 ~tag:(ack_bit lor upto) ~tp_dst:t.tp_dst
       ~src:t.dst ~dst:t.src ())

(* fill the window *)
let rec pump t =
  if (not t.done_) && t.next_seq < t.total
     && t.next_seq - t.base < t.window
  then begin
    let seq = t.next_seq in
    t.next_seq <- t.next_seq + 1;
    send_data t seq ~retransmit:false;
    pump t
  end

(* One timer per connection (go-back-N).  On expiry the whole
   outstanding window is retransmitted *starting at base*, so the packet
   that gates progress is first into any bottleneck queue — per-packet
   timers are prone to deterministic starvation of the base packet when
   their firing order drifts. *)
and arm_timer t =
  t.timer_gen <- t.timer_gen + 1;
  let gen = t.timer_gen in
  Sim.schedule (Network.sim t.net) ~delay:(Util.Rto.current t.rto) (fun () ->
    if (not t.done_) && (not t.aborted) && gen = t.timer_gen
       && t.base < t.next_seq
    then begin
      let n =
        1 + Option.value ~default:0 (Hashtbl.find_opt t.retx_count t.base)
      in
      if n > t.max_retx then t.aborted <- true
      else begin
        Hashtbl.replace t.retx_count t.base n;
        for seq = t.base to t.next_seq - 1 do
          send_data t seq ~retransmit:true
        done;
        (* back off: the path just ate a whole window, don't re-offer it
           at the same rate *)
        Util.Rto.expire t.rto;
        arm_timer t
      end
    end
    else if (not t.done_) && (not t.aborted) && gen = t.timer_gen then
      arm_timer t)

(* an aborted sender is stopped: late ACKs neither advance [base] nor
   pump new data, so a transfer ends either complete or aborted *)
let on_sender_receive t (pkt : Network.pkt) =
  if (not t.aborted) && pkt.tag land ack_bit <> 0 then begin
    let upto = pkt.tag land lnot ack_bit in
    t.stats.acks_received <- t.stats.acks_received + 1;
    if upto + 1 > t.base then begin
      t.base <- upto + 1;
      if t.base >= t.total then begin
        if not t.done_ then begin
          t.done_ <- true;
          t.stats.completed_at <- Network.now t.net
        end
      end
      else begin
        pump t;
        (* the path is moving again: fresh RTT credit for the new base,
           back at the initial RTO *)
        Util.Rto.ack t.rto;
        arm_timer t
      end
    end
  end

let on_receiver_receive t (pkt : Network.pkt) =
  if pkt.tag land ack_bit = 0 && pkt.hdr.tp_dst = t.tp_dst then begin
    let seq = pkt.tag in
    if seq = t.expected then begin
      t.expected <- t.expected + 1;
      t.delivered <- t.delivered + 1;
      (* drain any buffered successors *)
      while Hashtbl.mem t.out_of_order t.expected do
        Hashtbl.remove t.out_of_order t.expected;
        t.expected <- t.expected + 1;
        t.delivered <- t.delivered + 1
      done
    end
    else if seq > t.expected && not (Hashtbl.mem t.out_of_order seq) then
      Hashtbl.replace t.out_of_order seq ();
    (* cumulative ACK (also re-ACKs duplicates, unblocking the sender) *)
    send_ack t (t.expected - 1)
  end

let start net ~src ~dst ~total ?(window = 8) ?(rto = 0.05)
    ?(backoff = 2.0) ?max_rto ?(max_retx = 50) ?(pkt_size = 1000)
    ?(tp_dst = 9000) () =
  let bad what = invalid_arg ("Transport.start: " ^ what) in
  if total <= 0 then bad "total must be >= 1";
  if window <= 0 then bad "window must be >= 1";
  let max_rto = Option.value max_rto ~default:(8.0 *. rto) in
  (match Util.Rto.bad_arg ~initial:rto ~backoff ~cap:max_rto with
   | Some Initial -> bad "rto must be finite and > 0"
   | Some Backoff -> bad "backoff must be finite and >= 1"
   | Some Cap -> bad "max_rto must be finite and >= rto"
   | None -> ());
  if max_retx < 0 then bad "max_retx must be >= 0";
  let t =
    { net; src; dst; total; window;
      rto = Util.Rto.create ~initial:rto ~backoff ~cap:max_rto;
      max_retx; pkt_size; tp_dst;
      start_time = Network.now net;
      stats = { sent = 0; retransmissions = 0; acks_received = 0;
                completed_at = nan };
      retx_count = Hashtbl.create 32; aborted = false; timer_gen = 0;
      base = 0; next_seq = 0; done_ = false; expected = 0;
      out_of_order = Hashtbl.create 32; delivered = 0 }
  in
  let chain host f =
    let h = Network.host net host in
    let previous = h.on_receive in
    h.on_receive <-
      Some
        (fun pkt ->
          (match previous with Some g -> g pkt | None -> ());
          f pkt)
  in
  chain src (on_sender_receive t);
  chain dst (on_receiver_receive t);
  pump t;
  arm_timer t;
  t

let goodput t =
  if not t.done_ then nan
  else
    float_of_int (t.total * t.pkt_size * 8)
    /. (t.stats.completed_at -. t.start_time)
