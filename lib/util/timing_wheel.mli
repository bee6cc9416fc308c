(** Hierarchical timing wheel: the priority queue behind the
    discrete-event simulator's hot path.

    A binary heap pays O(log n) float-compare sifts on every push and
    pop; a simulator scheduling one closure per packet hop does both per
    event.  Most of those events are {e near-future} — link serialization
    and propagation, queue drains, control-channel latency — so this
    structure buckets them into fixed-width time slots ([tick] seconds,
    [slots] of them) and only pays heap costs within one slot:

    - events landing in the {e current} tick go to a small [near] heap
      (usually a handful of entries), which preserves the exact
      (key, insertion-order) execution order of the reference heap.
      It is a wheel-private array of the entry records {!push}
      allocated, not a {!Heap}: filing, draining and popping an event
      allocate nothing further;
    - events within the wheel horizon ([slots * tick] seconds ahead) are
      consed onto their slot's list in O(1);
    - far timers (retransmission timeouts, expiry sweeps, periodic
      polls) overflow to a fallback {!Heap} and migrate into the wheel
      as its base advances.

    Execution order is {e identical} to {!Heap}'s: slot assignment is a
    monotone function of the key, entries carry their global insertion
    sequence through every migration, and each slot is drained through
    the [near] heap, which orders by (key, seq).  The [test/util.wheel]
    suite pins this equivalence property, including ties, and
    [test/dataplane.sim] pins it through {!Dataplane.Sim}.

    A key too large for its tick to fit in an [int] (including
    [infinity]) saturates to a maximum tick: it waits in the overflow until
    everything finite-ticked ahead of it has run, then the [near] heap
    orders it by key like any other.

    Tick width and slot count trade memory against how much of the
    schedule stays O(1): the defaults (16 µs ticks, 1024 slots ≈ 16 ms
    horizon) cover link and control-channel delays of the simulated
    networks; the [create] arguments override them in tests. *)

type 'a entry = { key : float; seq : int; value : 'a }

type 'a t

(** 16 µs: the tick {!create} uses by default, and so the clock
    granularity of the simulator ({!Gbn} floors its timeout with it). *)
val default_tick : float

val create : ?tick:float -> ?slots:int -> unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push t key value] schedules [value] at [key] (seconds, must be
    non-negative and not NaN); ties execute in insertion order. *)
val push : 'a t -> float -> 'a -> unit

(** [peek t] returns [Some (key, value)] for the earliest entry without
    removing it, or [None] when the wheel is empty.  (Advances internal
    cursors; the logical contents are unchanged.) *)
val peek : 'a t -> (float * 'a) option

(** [pop_due t ~strict ~stop] is the simulator's fused peek-and-pop: it
    removes and returns the earliest entry when its key is <= [stop]
    (< [stop] with [~strict:true] — the sharded simulator's conservative
    windows are half-open intervals).  The entry is the record {!push}
    allocated, so a pop allocates nothing.  Same-tick drains stay inside
    the [near] heap — no wheel advance, no global re-peek per event.
    @raise Not_found when no entry is due ({!is_empty} tells an empty
    wheel from one whose earliest entry is past [stop]). *)
val pop_due : 'a t -> strict:bool -> stop:float -> 'a entry

(** Test-only. *)
val clear : 'a t -> unit
