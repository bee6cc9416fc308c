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

    - one {e mailbox} per shard: a buffer of timestamped envelopes
      posted by other shards while a window executes.  Posting is the
      {e horizon exchange}: because every envelope produced in a
      window lands at or beyond the next window boundary, draining the
      mailbox at a barrier is equivalent to a null-message protocol with
      one message per shard pair per window — without the deadlock risk
      of per-link channel blocking (no shard ever waits on a channel; the
      barrier is the only wait).
    - {!drive}: the windowed barrier loop.  Each round computes the
      global minimum pending timestamp and every shard's window bound,
      then runs the windows one after another in shard order on the
      calling domain; the end of the round is the barrier.  Rounds
      where a shard has nothing below the window bound are counted as
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
    - determinism: envelopes carry [(time, source shard, per-source
      sequence)] and are filed in that order at every drain, so the
      result of a sharded run is a function of the inputs only.

    The loop runs on one domain: every shard's window bound comes from
    the round's snapshot of pending times, so no window's bound depends
    on another's posts, and the mailboxes need no locks.  Running the
    windows on several domains would need them back: an unlocked
    mailbox posted to from two domains races.

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

type 'a t

val create : ?capacity:int -> shards:int -> unit -> 'a t

(** [post t ~src ~dst ~time load] hands [load] to shard [dst] as an
    event at absolute [time].  Must be called from shard [src]'s
    window; the conservative invariant requires
    [time >= now_of_src + lookahead]. *)
val post : 'a t -> src:int -> dst:int -> time:float -> 'a -> unit

(** [drain t shard] empties [shard]'s mailbox, returning the envelopes
    sorted by (time, source shard, source sequence) — file them into the
    local queue in list order and tie-breaking stays deterministic. *)
val drain : 'a t -> int -> 'a envelope list

(** A snapshot of the loop's counters; the arrays are indexed by shard. *)
type stats = {
  rounds : int;            (** barrier rounds run *)
  handoffs : int array;    (** envelopes each shard posted *)
  stalls : int array;      (** windows where the shard had nothing to run *)
  windows : int array;     (** windows the shard actually executed *)
  avg_window : float array;
      (** mean executed-window width in simulated seconds (0 when the
          shard never ran a window).  This grows past the lookahead
          whenever the other shards' pending bounds allow it. *)
  backpressure : int;      (** posts beyond the mailbox capacity *)
  high_water : int;        (** largest mailbox occupancy seen *)
}

val stats : 'a t -> stats

(** [drive t ~lookahead ?until ~next_time ~run_window ()] runs the
    conservative window loop to completion (or to [until], inclusive —
    matching the single-domain [Sim.run ?until] contract).

    [next_time i] must return shard [i]'s earliest queued local event
    time ([infinity] when idle); [run_window i ~stop ~strict] must drain
    [i]'s mailbox and execute its events up to [stop] ([strict] = stop
    is exclusive, the interior-window case; inclusive only for the final
    [until] window).  Each round runs the windows in shard order, and
    [run_window i] must only touch shard [i].

    [dist] is the shard-quotient distance matrix for the adaptive bounds:
    [dist.(j).(i)] lower-bounds the boundary-delay any causal chain
    accumulates getting from shard [j] to shard [i], with the diagonal
    [dist.(i).(i)] the minimum return cycle (how soon [i]'s own posts
    can echo back).  Every entry must be [>= lookahead] (the diagonal
    [>= 2 * lookahead]); [infinity] marks unreachable pairs.  Defaults
    to the uniform matrix ([lookahead] off-diagonal, twice that on the
    diagonal — no echo possible when there is a single shard). *)
val drive :
  'a t ->
  lookahead:float ->
  ?until:float ->
  ?dist:float array array ->
  next_time:(int -> float) ->
  run_window:(int -> stop:float -> strict:bool -> unit) -> unit -> unit
