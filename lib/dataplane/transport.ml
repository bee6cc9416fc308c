let ack_bit = 0x400000

type stats = {
  mutable sent : int;
  mutable retransmissions : int;
  mutable acks_received : int;
  mutable delivered : int;
  mutable aborted : bool;
  mutable completed_at : float;
}

type t = {
  net : Network.t;
  src : int;
  dst : int;
  total : int;        (** packets to deliver *)
  max_retx : int;     (** per-packet retransmission budget before abort *)
  pkt_size : int;
  tp_dst : int;
  start_time : float;
  stats : stats;
  mutable acked : int;  (* packets acked: the oldest unacked is [acked] *)
  mutable tries : int;  (* timeouts since the window last advanced *)
  (* receiver state *)
  mutable expected : int;    (* next in-order seq the receiver wants *)
  out_of_order : (int, unit) Hashtbl.t;
}

let stats t = t.stats

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

(* the sender's transmit hook.  A timeout resends the window oldest
   first, so a resend of the oldest unacked packet starts a new try; the
   transfer aborts once that packet has been resent [max_retx] times *)
let transmit t ~retransmit seq () =
  if retransmit && seq = t.acked then t.tries <- t.tries + 1;
  if t.tries > t.max_retx then t.stats.aborted <- true;
  if not t.stats.aborted then send_data t seq ~retransmit

(* an aborted sender is stopped: late ACKs neither advance the window
   nor pump new data, so a transfer ends either complete or aborted *)
let on_sender_receive t sender (pkt : Network.pkt) =
  if (not t.stats.aborted) && pkt.tag land ack_bit <> 0 then begin
    t.stats.acks_received <- t.stats.acks_received + 1;
    let n = Util.Gbn.ack sender (pkt.tag land lnot ack_bit) in
    if n > 0 then begin
      t.acked <- t.acked + n;
      t.tries <- 0
    end;
    if t.acked >= t.total && Float.is_nan t.stats.completed_at then
      t.stats.completed_at <- Network.now t.net
  end

let on_receiver_receive t (pkt : Network.pkt) =
  if pkt.tag land ack_bit = 0 && pkt.hdr.tp_dst = t.tp_dst then begin
    let seq = pkt.tag in
    if seq = t.expected then begin
      t.expected <- t.expected + 1;
      t.stats.delivered <- t.stats.delivered + 1;
      (* drain any buffered successors *)
      while Hashtbl.mem t.out_of_order t.expected do
        Hashtbl.remove t.out_of_order t.expected;
        t.expected <- t.expected + 1;
        t.stats.delivered <- t.stats.delivered + 1
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
  (match Util.Gbn.bad_arg ~initial:rto ~backoff ~cap:max_rto with
   | Some Initial -> bad "rto must be finite and > 0"
   | Some Backoff -> bad "backoff must be finite and >= 1"
   | Some Cap -> bad "max_rto must be finite and >= rto"
   | None -> ());
  if max_retx < 0 then bad "max_retx must be >= 0";
  let t =
    { net; src; dst; total; max_retx; pkt_size; tp_dst;
      start_time = Network.now net;
      stats = { sent = 0; retransmissions = 0; acks_received = 0;
                delivered = 0; aborted = false; completed_at = nan };
      acked = 0; tries = 0; expected = 0;
      out_of_order = Hashtbl.create 32 }
  in
  let sim = Network.sim net in
  let sender =
    Util.Gbn.create ~window ~initial:rto ~backoff ~cap:max_rto
      ~now:(fun () -> Network.now net)
      ~schedule:(fun delay f ->
        Sim.schedule sim ~delay (fun () -> if not t.stats.aborted then f ()))
      ~send:(transmit t)
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
  chain src (on_sender_receive t sender);
  chain dst (on_receiver_receive t);
  for _ = 1 to total do
    Util.Gbn.push sender ()
  done;
  Util.Gbn.resume sender;
  t

let goodput t =
  if Float.is_nan t.stats.completed_at then nan
  else
    float_of_int (t.total * t.pkt_size * 8)
    /. (t.stats.completed_at -. t.start_time)
