(** One go-back-N sender for every reliable stream: the controller's
    per-switch flow-mod batches ({!Controller.Runtime}) and the host
    transport ({!Dataplane.Transport}).

    The sender numbers units contiguously as it first transmits them and
    keeps at most [window] of them unacknowledged.  Acks are cumulative.
    One timer covers the window: on expiry every outstanding unit is
    resent, oldest first, and the timeout backs off.

    The timeout comes from a Jacobson/Karels estimator (RFC 6298).  The
    first RTT sample [R] sets [SRTT = R] and [RTTVAR = R / 2]; each later
    one folds in as [RTTVAR <- 3/4 RTTVAR + 1/4 |SRTT - R|], then
    [SRTT <- 7/8 SRTT + 1/8 R].  The estimate is
    [min cap (SRTT + max G (4 RTTVAR))], where the clock granularity [G]
    is a constant 16 µs, so the timeout stays strictly above a constant
    RTT.  [G] is the sender's own: the simulator's clock has no
    granularity (events run at their exact times, whatever the timing
    wheel's tick), so retransmit timing does not move with the tick.
    Before the first sample the timeout is [initial].  Each expiry multiplies it by [backoff], up to [cap]; an
    ack that advances the window returns it to the estimate.  Karn's
    rule: one unit per window is timed, from its first transmission to
    the ack that covers it, and an expiry cancels the timing, since the
    ack of a resent unit cannot say which copy it answers.

    The sender keeps no clock: [now] reads the caller's, [schedule delay
    f] runs [f] after [delay], and [send ~retransmit n x] puts unit [x]
    on the wire as number [n]. *)

type 'a t

(** An argument that cannot drive a timer forward. *)
type arg =
  | Initial  (** must be finite and > 0 *)
  | Backoff  (** must be finite and >= 1 *)
  | Cap      (** must be finite and >= [initial] *)

(** [bad_arg ~initial ~backoff ~cap] names the first argument {!create}
    rejects, in that order, or [None] when all are valid: a zero or
    non-finite timeout would retransmit at one simulated instant
    forever.  Callers map it to their own field names. *)
val bad_arg : initial:float -> backoff:float -> cap:float -> arg option

(** A held sender: units pushed before {!resume} wait, unnumbered.  The
    first unit it transmits is number 0.
    @raise Invalid_argument when [window < 1] or {!bad_arg} names an
    argument. *)
val create :
  window:int ->
  initial:float ->
  backoff:float ->
  cap:float ->
  now:(unit -> float) ->
  schedule:(float -> (unit -> unit) -> unit) ->
  send:(retransmit:bool -> int -> 'a -> unit) ->
  'a t

(** [push t x] queues [x] and sends it at once if the sender is live
    and the window has room. *)
val push : 'a t -> 'a -> unit

(** [ack t n] — every unit numbered [n] or less arrived.  Returns how
    many outstanding units that acknowledges: 0 for an ack that is
    stale, duplicate or for a number never sent, which changes nothing. *)
val ack : 'a t -> int -> int

(** [reset t] abandons every outstanding and queued unit, disarms the
    timer, drops any backoff and holds the sender until {!resume}.
    Numbering continues.  Returns the number of units abandoned. *)
val reset : 'a t -> int

(** Lets a held sender fill its window. *)
val resume : 'a t -> unit

(** The number the next fresh unit will be sent as. *)
val next_seq : 'a t -> int

(** [(SRTT, RTTVAR)], or [None] before the first sample.  Test-only. *)
val estimate : 'a t -> (float * float) option
