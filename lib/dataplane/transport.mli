(** A reliable transport on top of the lossy dataplane: sliding-window
    ARQ with cumulative ACKs and timeout retransmission — the protocol
    stack run as a host application, in the x-kernel tradition of
    composing protocols above a bare forwarding substrate.

    Sequence numbers and ACKs ride in the packet's [tag] field (data:
    [seq], ACK: [ack_bit lor highest_in_order]).  The receiver delivers
    in order and acknowledges cumulatively.  The sender is the
    go-back-N core the controller's flow-mod stream also runs
    ({!Util.Gbn}): up to [window] packets in flight, one timer, the whole
    window resent on expiry with capped exponential backoff (each expiry
    multiplies the RTO by [backoff] up to [max_rto]; a fixed RTO hammers
    a lossy or congested path with back-to-back window retransmissions —
    exactly the collapse the backoff avoids).  The RTO adapts: one packet
    per window is timed (Karn's rule), and an ACK that advances the
    window returns the RTO to the RFC 6298 estimate, [rto] being only
    its value before the first sample.  Loss comes from the network
    itself (drop-tail queues, failures, link chaos), so the transfer
    exercises exactly the queueing behavior the simulator models.  Used
    by experiment E14 (goodput vs window vs queue depth). *)

type stats = {
  mutable sent : int;            (** data transmissions incl. retransmits *)
  mutable retransmissions : int;
  mutable acks_received : int;
  mutable delivered : int;       (** packets the receiver delivered in order *)
  mutable aborted : bool;        (** the retransmission budget ran out *)
  mutable completed_at : float;  (** simulated completion time; nan if not *)
}

type t

val stats : t -> stats

(** [start net ~src ~dst ~total ()] — begins a reliable transfer of
    [total] packets; composes with existing host receive handlers.  Run
    the simulation, then inspect {!stats}.  [backoff] multiplies the
    RTO on every timer expiry (capped at [max_rto], default [8 *. rto],
    which also caps the estimate; [~backoff:1.0] never backs off);
    a loss-free path never fires the timer, so the defaults change
    nothing there.  A transfer ends either complete or aborted, never
    both: once [max_retx] retransmissions of one packet have failed the
    sender stops, and late ACKs are ignored.
    @raise Invalid_argument before sending anything unless [total] and
    [window] are >= 1, [rto] is finite and > 0, [backoff] is finite and
    >= 1, [max_rto] is finite and >= [rto] (the timer bounds of
    {!Util.Gbn.bad_arg}), and [max_retx] is >= 0. *)
val start :
  Network.t ->
  src:int ->
  dst:int ->
  total:int ->
  ?window:int ->
  ?rto:float ->
  ?backoff:float ->
  ?max_rto:float ->
  ?max_retx:int -> ?pkt_size:int -> ?tp_dst:int -> unit -> t

(** Application-level goodput in bits/s (delivered payload over the
    completed transfer), or [nan] when incomplete. *)
val goodput : t -> float
