(** The discrete-event engine: a clock and a priority queue of thunks.
    Everything in the simulated network — packet transmission, link
    propagation, controller latency, traffic generation, timeouts — is
    expressed as scheduled events.  Ties execute in scheduling order, so
    runs are deterministic.

    The queue is a {!Util.Timing_wheel}: O(1) slot filing for the dense
    near-future events every packet hop schedules, with a heap fallback
    for far timers (retransmits, expiry sweeps).  Its execution order is
    exactly a binary heap's on (time, scheduling order) — pinned against
    {!Util.Heap} in [test/util.wheel] and [test/dataplane.sim]. *)

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

let push t time f = Util.Timing_wheel.push t.queue time f

(** [schedule t ~delay f] runs [f] at [now + delay].
    @raise Invalid_argument on negative delay. *)
let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Sim.schedule: negative delay";
  push t (t.now +. delay) f

(** [schedule_at t ~time f] runs [f] at the absolute [time] (clamped to
    the present if already past). *)
let schedule_at t ~time f = push t (max time t.now) f

let pending t = Util.Timing_wheel.length t.queue
let peek t = Util.Timing_wheel.peek t.queue
let pop t = Util.Timing_wheel.pop t.queue

let exec t time f =
  t.now <- (if time > t.now then time else t.now);
  t.executed <- t.executed + 1;
  f ()

(** Executes the next event; returns [false] when none remain. *)
let step t =
  match pop t with
  | exception Not_found -> false
  | time, f ->
    exec t time f;
    true

(* fused peek-and-pop against an absolute stop time; [strict] makes the
   bound exclusive (events at exactly [stop] stay queued) *)
let pop_until ?strict t ~stop =
  Util.Timing_wheel.pop_until ?strict t.queue ~stop

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
    if n < budget then begin
      match pop_until ~strict t ~stop with
      | `Empty -> ()
      | `Beyond -> (match until with Some s -> t.now <- max t.now s | None -> ())
      | `Event (time, f) ->
        exec t time f;
        loop (n + 1)
    end
  in
  loop 0;
  t.running <- false;
  t.executed - start

(** [run_batch t] executes the next pending event and then drains every
    event sharing its timestamp — including ones scheduled by the batch
    itself at that same instant — without re-peeking the full queue
    between events (same-tick drains stay inside the wheel's near heap).
    Returns the number of events executed; [0] means the queue was
    empty.  Equivalent to repeated {!step} while the head timestamp is
    unchanged. *)
let run_batch t =
  if t.running then invalid_arg "Sim.run_batch: already running";
  t.running <- true;
  let n =
    match pop t with
    | exception Not_found -> 0
    | time, f ->
      exec t time f;
      let rec drain n =
        match pop_until t ~stop:time with
        | `Event (time', f) ->
          exec t time' f;
          drain (n + 1)
        | `Empty | `Beyond -> n
      in
      drain 1
  in
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
