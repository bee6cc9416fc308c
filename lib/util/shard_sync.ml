(** Conservative synchronization for a sharded discrete-event simulator.

    A simulation partitioned over [n] shards (each with its own clock and
    event queue) stays correct as long as no shard executes an event
    before every event that could still be sent to it with an earlier
    timestamp has arrived.  With a positive {e lookahead} [L] — here, the
    minimum delay of any link crossing a shard boundary — an event
    executing at time [t] can only generate cross-shard work at
    [t + L] or later, so the classic conservative window holds:

    {v
      every shard may safely run all events with time <  min_pending + L
      where min_pending = min over shards of (local queue, inbound mail)
    v}

    This module owns the machinery around that invariant:

    - one {e mailbox} per shard: a mutex-protected buffer of timestamped
      envelopes posted by other shards while a window executes.  Posting
      is the {e horizon exchange}: because every envelope produced in a
      window lands at or beyond the next window boundary, draining the
      mailbox at a barrier is equivalent to a null-message protocol with
      one message per shard pair per window — without the deadlock risk
      of per-link channel blocking (no shard ever waits on a channel; the
      barrier is the only wait).
    - {!drive}: the windowed barrier loop.  Each round computes the
      global minimum pending timestamp, fans [run_window] out over a
      {!Pool}, and barriers (the [Pool.map] return).  Rounds where a
      shard has nothing below the window bound are counted as
      {e horizon stalls} — the per-shard idleness a too-small lookahead
      or an unbalanced partition produces — and such shards are
      {e skipped} outright (their window would only advance a clock, an
      unobservable effect), so a sparse fabric fast-forwards from event
      cluster to event cluster instead of barrier-stepping empty
      [L]-wide windows.
    - {b adaptive windows}: shard [i]'s window may end beyond the
      global [m + L] bound, at its {e distance-based} envelope bound

      {v  B_i = min over shards j of (pending_j + dist(j, i))  v}

      where [dist(j, i)] is the shortest-path weight from [j] to [i] in
      the {e shard quotient graph} (one node per shard, edge weight =
      minimum delay over the boundary links joining the pair), and the
      diagonal [dist(i, i)] is the minimum {e return cycle} — the
      cheapest way shard [i]'s own traffic can bounce off another shard
      and come back.  This is risk-free: any envelope that will ever
      reach [i] is caused by some event that is pending {e now} on some
      shard [j], and its causal chain must cross boundary links summing
      to at least [dist(j, i)] ([j = i] covers the echo of [i]'s own
      posts); barriers only delay it further.  So nothing can arrive
      inside [\[m, B_i)], and [B_i >= m + L] always (the plain
      [m + L] window is the uniform-distance special case).  A growth
      cap [m + g*L] keeps one shard from racing unboundedly ahead of
      its consumers: [g]
      doubles each round the mailboxes stay inside capacity and halves
      when backpressure grew, so sustained cross-shard pressure shrinks
      the window back toward the uniform [L] bound.
    - {b work stealing}: the per-round windows are dealt to the pool's
      workers by shard index (shard [i]'s {e home} is worker
      [i mod size]), each worker's deal
      sorted heaviest-first by a load hint; a worker whose own deal
      drains steals the {e lightest} window from a loaded neighbor's
      tail.  Stealing moves whole windows — each shard's window is still
      executed by exactly one domain between two barriers — so it
      changes which core runs a window, never the events' order, and
      results stay byte-equal at any pool size.
    - determinism: envelopes carry [(time, source shard, per-source
      sequence)] and are filed in that order at every drain, so the
      result of a sharded run is a function of the inputs only, not of
      domain scheduling or pool size.  (The [steals] counters are the
      one scheduling-dependent output: they describe where windows ran,
      not what they computed.)

    Capacity is a soft bound: mailboxes grow past it (a hard bound would
    deadlock the barrier), but posts beyond capacity are counted in
    [backpressure] and the high-water mark is kept, so an undersized
    window shows up in the stats instead of in a hang. *)

type 'a envelope = {
  env_time : float;
  env_src : int;   (* posting shard *)
  env_seq : int;   (* per-source post counter: deterministic tie order *)
  env_load : 'a;
}

type 'a mailbox = {
  mb_mutex : Mutex.t;
  mutable mb_buf : 'a envelope list;  (* newest first *)
  mutable mb_count : int;
  mutable mb_min : float;             (* infinity when empty *)
  mutable mb_high_water : int;
}

type 'a t = {
  nshards : int;
  capacity : int;
  boxes : 'a mailbox array;
  seqs : int array;       (* next per-source sequence; owner-written only *)
  handoffs : int array;   (* envelopes posted by shard i *)
  stalls : int array;     (* windows where shard i had nothing to run *)
  steals : int array;     (* windows of shard i run by a non-home worker *)
  windows : int array;    (* windows shard i actually executed *)
  win_sum : float array;  (* total width of those windows *)
  mutable rounds : int;
  mutable backpressure : int;
}

let default_capacity = 65536

let create ?(capacity = default_capacity) ~shards () =
  if shards < 1 then invalid_arg "Shard_sync.create: shards must be >= 1";
  { nshards = shards; capacity;
    boxes =
      Array.init shards (fun _ ->
        { mb_mutex = Mutex.create (); mb_buf = []; mb_count = 0;
          mb_min = infinity; mb_high_water = 0 });
    seqs = Array.make shards 0;
    handoffs = Array.make shards 0;
    stalls = Array.make shards 0;
    steals = Array.make shards 0;
    windows = Array.make shards 0;
    win_sum = Array.make shards 0.0;
    rounds = 0; backpressure = 0 }

let shards t = t.nshards

(** [post t ~src ~dst ~time load] hands [load] to shard [dst] as an
    event at absolute [time].  Must be called from the domain currently
    running shard [src]'s window; the conservative invariant requires
    [time >= now_of_src + lookahead]. *)
let post t ~src ~dst ~time load =
  let seq = t.seqs.(src) in
  t.seqs.(src) <- seq + 1;
  t.handoffs.(src) <- t.handoffs.(src) + 1;
  let e = { env_time = time; env_src = src; env_seq = seq; env_load = load } in
  let box = t.boxes.(dst) in
  Mutex.lock box.mb_mutex;
  box.mb_buf <- e :: box.mb_buf;
  box.mb_count <- box.mb_count + 1;
  if time < box.mb_min then box.mb_min <- time;
  if box.mb_count > box.mb_high_water then box.mb_high_water <- box.mb_count;
  if box.mb_count > t.capacity then t.backpressure <- t.backpressure + 1;
  Mutex.unlock box.mb_mutex

let envelope_cmp a b =
  match Float.compare a.env_time b.env_time with
  | 0 ->
    (match compare a.env_src b.env_src with
     | 0 -> compare a.env_seq b.env_seq
     | c -> c)
  | c -> c

(** [drain t shard] empties [shard]'s mailbox, returning the envelopes
    sorted by (time, source shard, source sequence) — file them into the
    local queue in list order and tie-breaking stays deterministic. *)
let drain t shard =
  let box = t.boxes.(shard) in
  Mutex.lock box.mb_mutex;
  let buf = box.mb_buf in
  box.mb_buf <- [];
  box.mb_count <- 0;
  box.mb_min <- infinity;
  Mutex.unlock box.mb_mutex;
  List.sort envelope_cmp buf

let mailbox_min t shard =
  let box = t.boxes.(shard) in
  Mutex.lock box.mb_mutex;
  let m = box.mb_min in
  Mutex.unlock box.mb_mutex;
  m

(* ------------------------------------------------------------------ *)
(* Stats *)

let rounds t = t.rounds
let handoffs t = Array.fold_left ( + ) 0 t.handoffs
let handoffs_of t shard = t.handoffs.(shard)
let stalls t = Array.fold_left ( + ) 0 t.stalls
let stalls_of t shard = t.stalls.(shard)
let steals t = Array.fold_left ( + ) 0 t.steals
let steals_of t shard = t.steals.(shard)
let windows_of t shard = t.windows.(shard)

(** Mean executed-window width of [shard], in simulated seconds
    (0 when it never ran a window).  This grows past the lookahead
    whenever the other shards' pending bounds allow it. *)
let avg_window_of t shard =
  if t.windows.(shard) = 0 then 0.0
  else t.win_sum.(shard) /. float_of_int t.windows.(shard)

let backpressure t = t.backpressure
let high_water t =
  Array.fold_left (fun acc b -> max acc b.mb_high_water) 0 t.boxes

(* ------------------------------------------------------------------ *)
(* Per-round window execution, with stealing *)

(* Run this round's windows — [(shard, stop, strict)] tasks — over the
   pool.  On a one-worker pool each task is one pool job (FIFO order).
   Otherwise tasks are dealt to their home workers ([shard mod size]),
   each deal sorted heaviest-first by [load_hint]; a worker drains its
   own deal from the front, then steals the lightest task (the tail)
   from the first loaded neighbor.  Every task is popped exactly once
   under the queue mutex, so a shard's window still runs on exactly one
   domain and [steals] has one writer per cell per round. *)
let exec_round t ~pool ~load_hint ~run_window tasks =
  let run (i, stop, strict) = run_window i ~stop ~strict in
  match tasks with
  | [] -> ()
  | [ task ] -> run task
  | _ ->
    let w = Pool.size pool in
    if w <= 1 then
      ignore (Pool.map pool tasks ~f:run)
    else begin
      let deals = Array.make w [] in
      List.iter
        (fun ((i, _, _) as task) ->
          let home = i mod w in
          deals.(home) <- task :: deals.(home))
        tasks;
      Array.iteri
        (fun h deal ->
          deals.(h) <-
            List.stable_sort
              (fun (i, _, _) (j, _, _) ->
                match compare (load_hint j) (load_hint i) with
                | 0 -> compare i j
                | c -> c)
              deal)
        deals;
      let qm = Mutex.create () in
      (* pop the last element: thieves take the victim's lightest task *)
      let rec split_last acc = function
        | [] -> assert false
        | [ x ] -> (List.rev acc, x)
        | x :: rest -> split_last (x :: acc) rest
      in
      let take worker =
        Mutex.lock qm;
        let r =
          match deals.(worker) with
          | task :: rest ->
            deals.(worker) <- rest;
            Some (task, false)
          | [] ->
            let rec rob k =
              if k = w then None
              else
                let victim = (worker + k) mod w in
                match deals.(victim) with
                | [] -> rob (k + 1)
                | deal ->
                  let kept, task = split_last [] deal in
                  deals.(victim) <- kept;
                  Some (task, true)
            in
            rob 1
        in
        Mutex.unlock qm;
        r
      in
      let rec worker_loop worker =
        match take worker with
        | None -> ()
        | Some (((i, _, _) as task), stolen) ->
          if stolen then t.steals.(i) <- t.steals.(i) + 1;
          run task;
          worker_loop worker
      in
      ignore (Pool.map pool (List.init w Fun.id) ~f:worker_loop)
    end

(* ------------------------------------------------------------------ *)
(* The windowed barrier loop *)

(** [drive t ~pool ~lookahead ?until ~next_time ~run_window ()] runs the
    conservative window loop to completion (or to [until], inclusive —
    matching the single-domain [Sim.run ?until] contract).

    [next_time i] must return shard [i]'s earliest queued local event
    time ([infinity] when idle); [run_window i ~stop ~strict] must drain
    [i]'s mailbox and execute its events up to [stop] ([strict] = stop
    is exclusive, the interior-window case; inclusive only for the final
    [until] window).  Both callbacks run between barriers, so they may
    touch shard state without locks; [run_window] is fanned over [pool]
    and must only touch shard [i].

    Idle pool workers steal queued windows, guided by [load_hint i]
    (any monotone proxy for shard [i]'s queued work; default constant);
    stealing never changes observable simulation results.

    [dist] is the shard-quotient distance matrix for the adaptive bounds:
    [dist.(j).(i)] lower-bounds the boundary-delay any causal chain
    accumulates getting from shard [j] to shard [i], with the diagonal
    [dist.(i).(i)] the minimum return cycle (how soon [i]'s own posts
    can echo back).  Every entry must be [>= lookahead] (the diagonal
    [>= 2 * lookahead]); [infinity] marks unreachable pairs.  Defaults
    to the uniform matrix ([lookahead] off-diagonal, twice that on the
    diagonal — no echo possible when there is a single shard). *)
let drive t ~pool ~lookahead ?until ?dist
    ?(load_hint = fun (_ : int) -> 0) ~next_time ~run_window () =
  if lookahead <= 0.0 then
    invalid_arg "Shard_sync.drive: lookahead must be positive";
  let idx = List.init t.nshards Fun.id in
  let dist =
    match dist with
    | Some d -> d
    | None ->
      Array.init t.nshards (fun j ->
        Array.init t.nshards (fun i ->
          if i <> j then lookahead
          else if t.nshards > 1 then 2.0 *. lookahead
          else infinity))
  in
  let pending i = Float.min (next_time i) (mailbox_min t i) in
  let pend = Array.make t.nshards infinity in
  (* adaptive growth cap, in lookaheads: how far past [m + L] a shard may
     run before its consumers have caught up.  Doubles every round the
     mailboxes stayed inside capacity, halves when backpressure grew. *)
  let growth = ref 1.0 in
  let last_bp = ref t.backpressure in
  let rec round () =
    for i = 0 to t.nshards - 1 do pend.(i) <- pending i done;
    let m = Array.fold_left Float.min infinity pend in
    let live = match until with Some u -> m <= u | None -> m < infinity in
    if live then begin
      let cap = m +. (!growth *. lookahead) in
      (* distance-based envelope bound: nothing can reach shard [i]
         before B_i = min_j (pending_j + dist(j, i)) — see the module
         header for the causal-chain argument *)
      let stop_of i =
        let b = ref infinity in
        for j = 0 to t.nshards - 1 do
          let v = pend.(j) +. dist.(j).(i) in
          if v < !b then b := v
        done;
        Float.min !b cap
      in
      let tasks = ref [] in
      for i = t.nshards - 1 downto 0 do
        (* cap the last window at [until] and make it inclusive, as the
           single-domain run is *)
        let stop, strict =
          let s = stop_of i in
          match until with
          | Some u when s >= u -> (u, false)
          | _ -> (s, true)
        in
        let p = pend.(i) in
        if (if strict then p >= stop else p > stop) then
          (* nothing below the bound: a horizon stall.  The window is
             skipped — running it would only advance the local clock,
             which no observable depends on — so idle shards cost the
             round nothing. *)
          t.stalls.(i) <- t.stalls.(i) + 1
        else begin
          t.windows.(i) <- t.windows.(i) + 1;
          t.win_sum.(i) <- t.win_sum.(i) +. (stop -. m);
          tasks := (i, stop, strict) :: !tasks
        end
      done;
      exec_round t ~pool ~load_hint ~run_window !tasks;
      t.rounds <- t.rounds + 1;
      if t.backpressure > !last_bp then
        growth := Float.max 1.0 (!growth /. 2.0)
      else growth := Float.min 1024.0 (!growth *. 2.0);
      last_bp := t.backpressure;
      round ()
    end
  in
  round ();
  (* final pass so shards whose remaining events all lie beyond [until]
     still advance their clocks to it, exactly as Sim.run does *)
  match until with
  | Some u ->
    ignore (Pool.map pool idx ~f:(fun i -> run_window i ~stop:u ~strict:false))
  | None -> ()
