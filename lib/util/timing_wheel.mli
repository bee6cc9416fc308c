(** Hierarchical timing wheel: the priority queue behind the
    discrete-event simulator's hot path (the hashed wheel of Varghese
    and Lauck, "Hashed and Hierarchical Timing Wheels", SOSP 1987).

    A binary heap pays O(log n) float-compare sifts on every push and
    pop; a simulator scheduling one closure per packet hop does both per
    event.  Most of those events are {e near-future} — link serialization
    and propagation, queue drains, control-channel latency — so this
    structure buckets them into fixed-width time slots ([tick] seconds,
    [slots] of them) and only pays heap costs within one slot.

    Each entry lives in a {e cell}: an index into parallel arrays of
    keys (a [Float.Array], so unboxed), insertion sequence numbers,
    values and links.  The link array threads both the slot lists and
    the list of free cells, so a push reuses a popped entry's cell and
    allocates nothing once the arrays have grown.  The three stages hold
    cells:

    - entries landing in the {e current} tick go to a small [near] heap
      of cell indices (a few dozen on a busy fabric), which preserves
      the exact (key, insertion-order) execution order of the reference
      heap.  The heap keeps each position's key beside its cell, so a
      sift compares unboxed keys from one small array and writes no
      pointer;
    - entries within the wheel horizon ([slots * tick] seconds ahead)
      are linked onto their slot's list in O(1);
    - far timers (retransmission timeouts, expiry sweeps, periodic
      polls) wait in an [overflow] heap of cell indices, ordered like
      [near], and migrate into the wheel as its base advances.

    Execution order is {e identical} to {!Heap}'s: slot assignment is a
    monotone function of the key, a cell keeps its global insertion
    sequence through every migration, and each slot is drained through
    the [near] heap, which orders by (key, seq).  The [test/util.wheel]
    suite pins this equivalence property, including ties and cell reuse,
    and [test/dataplane.sim] pins it through {!Dataplane.Sim}.

    A key too large for its tick to fit in an [int] (including
    [infinity]) saturates to a maximum tick: it waits in the overflow until
    everything finite-ticked ahead of it has run, then the [near] heap
    orders it by key like any other.

    The tick trades the near heap's size against empty slots: every
    entry of one tick passes through the [near] heap, and every empty
    slot between two events costs a scan step.  The defaults (1 µs
    ticks, 1024 slots ≈ 1 ms horizon) fit a dense fabric: a fat-tree
    k=6 under 1000 flows drains about 7 entries per slot, against about
    80 at 16 µs.  A sparse schedule pays for it in empty-slot scans: the
    routed ring:4 of bench E3 runs about 6% fewer events per second than
    at 16 µs.  The 1 ms control-channel latency sits at the horizon, and
    timers beyond it wait in the overflow.  The tick is not a clock
    granularity: events run at their exact keys whatever it is.  The
    [create] arguments override the defaults in tests. *)

type 'a t

(** [create ?tick ?slots ()]: [tick] seconds per slot (default 1 µs),
    [slots] rounded up to a power of two (default 1024). *)
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

(** [pop_due t ~strict ~stop ~key] is the simulator's fused
    peek-and-pop: when the earliest entry's key is <= [stop] (< [stop]
    with [~strict:true] — the sharded simulator's conservative windows
    are half-open intervals), it removes the entry, writes its key into
    [key.(0)] and returns its value.  The key goes into the caller's
    unboxed cell rather than into a pair, so a pop allocates nothing;
    the freed cell drops its value.  Same-tick drains stay inside the
    [near] heap — no wheel advance, no global re-peek per event.
    @raise Not_found when no entry is due ({!is_empty} tells an empty
    wheel from one whose earliest entry is past [stop]). *)
val pop_due : 'a t -> strict:bool -> stop:float -> key:Float.Array.t -> 'a

(** Test-only. *)
val clear : 'a t -> unit
