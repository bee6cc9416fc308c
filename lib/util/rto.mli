(** One retransmission timer for every reliable sender: the controller's
    per-switch flow-mod batches ({!Controller.Runtime}) and the
    go-back-N host transport ({!Dataplane.Transport}) — a protocol
    mechanism written once and composed into both stacks.

    The timeout comes from a Jacobson/Karels estimator (RFC 6298).  The
    first RTT sample [R] sets [SRTT = R] and [RTTVAR = R / 2]; each later
    one folds in with [alpha = 1/8] and [beta = 1/4]:
    [RTTVAR <- 3/4 RTTVAR + 1/4 |SRTT - R|], then
    [SRTT <- 7/8 SRTT + 1/8 R].  The estimate is
    [min cap (SRTT + max G (4 RTTVAR))], where [G] is the simulator's
    clock granularity ({!Timing_wheel.default_tick}): on a constant RTT
    [RTTVAR] decays toward 0, and the floor keeps the timeout strictly above
    the RTT, so a clean path never retransmits.

    Before the first sample the timeout is [initial].  Each expiry
    multiplies the current timeout by [backoff], capped at [cap]; an ack
    returns it to the estimate (to [initial] before the first sample).

    Karn's rule is the caller's: an ack for something sent more than
    once carries no [rtt], because it cannot tell which copy it
    answers. *)

type t

(** An argument that cannot drive a timer forward. *)
type arg =
  | Initial  (** must be finite and > 0 *)
  | Backoff  (** must be finite and >= 1 *)
  | Cap      (** must be finite and >= [initial] *)

(** [bad_arg ~initial ~backoff ~cap] names the first argument {!create}
    rejects, checked in that order, or [None] when all are valid: a
    zero or non-finite timeout would retransmit at one simulated instant
    forever.  Callers map it to their own field names. *)
val bad_arg : initial:float -> backoff:float -> cap:float -> arg option

(** @raise Invalid_argument when {!bad_arg} names an argument. *)
val create : initial:float -> backoff:float -> cap:float -> t

(** The timeout to arm now. *)
val current : t -> float

(** A timer expiry: the current timeout grows by [backoff], up to
    [cap]. *)
val expire : t -> unit

(** [ack ?rtt t] — what was sent was acknowledged: fold [rtt] into the
    estimate when given (omit it for a retransmitted send), then return
    the timeout to the estimate. *)
val ack : ?rtt:float -> t -> unit

(** [(SRTT, RTTVAR)], or [None] before the first sample.  Test-only. *)
val estimate : t -> (float * float) option
