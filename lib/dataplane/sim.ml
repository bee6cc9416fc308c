type t = {
  mutable now : float;
  popped : Float.Array.t;
      (* one element: the time [pop_due] wrote, read without a tuple *)
  queue : (unit -> unit) Util.Timing_wheel.t;
  mutable executed : int;
  mutable running : bool;
}

let create () =
  { now = 0.0; popped = Float.Array.make 1 0.0;
    queue = Util.Timing_wheel.create (); executed = 0; running = false }

let now t = t.now

let executed t = t.executed

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Sim.schedule: negative delay";
  let time = t.now +. delay in
  if not (Float.is_finite time) then
    invalid_arg "Sim.schedule: non-finite time";
  Util.Timing_wheel.push t.queue time f

let schedule_at t ~time f =
  if not (Float.is_finite time) then
    invalid_arg "Sim.schedule_at: non-finite time";
  Util.Timing_wheel.push t.queue (if time >= t.now then time else t.now) f

let pending t = Util.Timing_wheel.length t.queue
let peek t = Util.Timing_wheel.peek t.queue

let run ?until ?(strict = false) ?max_events t =
  if t.running then invalid_arg "Sim.run: already running";
  t.running <- true;
  let start = t.executed in
  let budget = match max_events with None -> max_int | Some m -> m in
  let stop = match until with Some s -> s | None -> infinity in
  let rec loop n =
    if n < budget then
      match Util.Timing_wheel.pop_due t.queue ~strict ~stop ~key:t.popped with
      | f ->
        let time = Float.Array.unsafe_get t.popped 0 in
        if time > t.now then t.now <- time;
        t.executed <- t.executed + 1;
        f ();
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
