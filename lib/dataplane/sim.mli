(** The discrete-event engine: a clock and a priority queue of thunks.
    Everything in the simulated network — packet transmission, link
    propagation, controller latency, traffic generation, timeouts — is
    expressed as scheduled events.  Ties execute in scheduling order, so
    runs are deterministic.

    The queue is a {!Util.Timing_wheel}: O(1) slot filing for the dense
    near-future events every packet hop schedules, a near heap of cell
    indices for the current tick, and an overflow heap for far timers
    (retransmits, expiry sweeps).  Its execution order is exactly a
    binary heap's on (time, scheduling order) — pinned against
    {!Util.Heap} in [test/util.wheel] and [test/dataplane.sim].

    Running an event allocates only the clock's new boxed time, when
    the event is later than the one before it.  The closure and the
    boxed time an event is scheduled with are its scheduler's (a
    traffic source and a link reuse their closures).  The wheel keeps
    the event in a reused cell of unboxed arrays, and {!run} pops
    through {!Util.Timing_wheel.pop_due}, which writes the popped time
    into a one-element float array rather than returning a pair, so
    queueing and popping allocate nothing once the wheel's arrays have
    grown.  The clock itself stays boxed: {!now} then hands callers in
    other modules the existing box instead of boxing a fresh float per
    call.  [test/dataplane.sim] "allocation budget" pins the per-event
    figure of a forwarding workload. *)

type t

val create : unit -> t

(** Current simulated time in seconds. *)
val now : t -> float

(** Number of events executed so far. *)
val executed : t -> int

(** [schedule t ~delay f] runs [f] at [now + delay].
    @raise Invalid_argument on a negative delay or a non-finite time (a
    time never reached would sit in the queue forever, and a NaN
    compares false with every other time). *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** [schedule_at t ~time f] runs [f] at the absolute [time] (clamped to
    the present if already past).
    @raise Invalid_argument on a non-finite [time]. *)
val schedule_at : t -> time:float -> (unit -> unit) -> unit

val pending : t -> int

val peek : t -> (float * (unit -> unit)) option

(** [run ?until ?strict ?max_events t] drains the event queue.  [until]
    stops the clock at an absolute time (events beyond it stay queued;
    with [~strict:true] events at exactly [until] stay queued too — the
    sharded simulator's conservative windows are half-open intervals);
    [max_events] bounds work as a runaway guard.  Returns the number of
    events executed by this call. *)
val run : ?until:float -> ?strict:bool -> ?max_events:int -> t -> int
