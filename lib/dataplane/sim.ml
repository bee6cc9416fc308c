(** The discrete-event engine: a clock and a priority queue of thunks.
    Everything in the simulated network — packet transmission, link
    propagation, controller latency, traffic generation, timeouts — is
    expressed as scheduled events.  Ties execute in scheduling order, so
    runs are deterministic.

    The queue is a {!Util.Timing_wheel}: O(1) slot filing for the dense
    near-future events every packet hop schedules, an array-backed near
    heap for the current tick, and a heap fallback for far timers
    (retransmits, expiry sweeps).  Its execution order is exactly a
    binary heap's on (time, scheduling order) — pinned against
    {!Util.Heap} in [test/util.wheel] and [test/dataplane.sim].

    One executed event allocates its closure, the wheel's entry record
    (plus a list cell while it waits in a slot) and its boxed time;
    {!run} pops through {!Util.Timing_wheel.pop_due}, which adds
    nothing to that.  [test/dataplane.sim] "allocation budget" pins the
    per-event figure of a forwarding workload. *)

type t = {
  mutable now : float;
  queue : (unit -> unit) Util.Timing_wheel.t;
  mutable executed : int;
  mutable running : bool;
}

let create () =
  { now = 0.0; queue = Util.Timing_wheel.create (); executed = 0;
    running = false }

(** Current simulated time in seconds. *)
let now t = t.now

(** Number of events executed so far. *)
let executed t = t.executed

(** [schedule t ~delay f] runs [f] at [now + delay].
    @raise Invalid_argument on a negative delay or a non-finite time (a
    time never reached would sit in the queue forever, and a NaN
    compares false with every other time). *)
let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Sim.schedule: negative delay";
  let time = t.now +. delay in
  if not (Float.is_finite time) then
    invalid_arg "Sim.schedule: non-finite time";
  Util.Timing_wheel.push t.queue time f

(** [schedule_at t ~time f] runs [f] at the absolute [time] (clamped to
    the present if already past).
    @raise Invalid_argument on a non-finite [time]. *)
let schedule_at t ~time f =
  if not (Float.is_finite time) then
    invalid_arg "Sim.schedule_at: non-finite time";
  Util.Timing_wheel.push t.queue (if time >= t.now then time else t.now) f

let pending t = Util.Timing_wheel.length t.queue
let peek t = Util.Timing_wheel.peek t.queue

let exec t (e : (unit -> unit) Util.Timing_wheel.entry) =
  if e.key > t.now then t.now <- e.key;
  t.executed <- t.executed + 1;
  e.value ()

(** [run ?until ?strict ?max_events t] drains the event queue.  [until]
    stops the clock at an absolute time (events beyond it stay queued;
    with [~strict:true] events at exactly [until] stay queued too — the
    sharded simulator's conservative windows are half-open intervals);
    [max_events] bounds work as a runaway guard.  Returns the number of
    events executed by this call. *)
let run ?until ?(strict = false) ?max_events t =
  if t.running then invalid_arg "Sim.run: already running";
  t.running <- true;
  let start = t.executed in
  let budget = match max_events with None -> max_int | Some m -> m in
  let stop = match until with Some s -> s | None -> infinity in
  let rec loop n =
    if n < budget then
      match Util.Timing_wheel.pop_due t.queue ~strict ~stop with
      | e ->
        exec t e;
        loop (n + 1)
      | exception Not_found ->
        (* nothing due: the clock moves to [until] unless the queue is
           simply empty *)
        if not (Util.Timing_wheel.is_empty t.queue) then
          match until with
          | Some s when s > t.now -> t.now <- s
          | Some _ | None -> ()
  in
  loop 0;
  t.running <- false;
  t.executed - start

(** [run_batch t] executes the next pending event and then drains every
    event sharing its timestamp — including ones scheduled by the batch
    itself at that same instant — without re-peeking the full queue
    between events (same-tick drains stay inside the wheel's near heap).
    Returns the number of events executed; [0] means the queue was
    empty.  Equivalent to popping one event at a time while the head
    timestamp is unchanged. *)
let run_batch t =
  if t.running then invalid_arg "Sim.run_batch: already running";
  t.running <- true;
  let rec drain ~stop n =
    match Util.Timing_wheel.pop_due t.queue ~strict:false ~stop with
    | exception Not_found -> n
    | e ->
      exec t e;
      drain ~stop:e.key (n + 1)
  in
  let n = drain ~stop:infinity 0 in
  t.running <- false;
  n

(** Periodic task: runs [f] every [every] seconds starting after [every],
    until [f] returns [false] or the optional [stop] time passes. *)
let rec every t ~every:interval ?stop f =
  schedule t ~delay:interval (fun () ->
    let continue_ =
      match stop with Some s when t.now > s -> false | Some _ | None -> f ()
    in
    if continue_ then every t ~every:interval ?stop f)
