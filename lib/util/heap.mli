(** Imperative binary min-heap: the overflow stage of {!Timing_wheel},
    Dijkstra's priority queue, and the reference order the wheel is
    tested against.

    Elements are ordered by a float key supplied at insertion; ties are
    broken by insertion order so that the simulator is deterministic.

    Slots above [size] are kept at [None]: {!pop} and {!clear} null out
    vacated entries, so the heap never retains popped payloads (a
    long-running simulator would otherwise pin every executed event
    closure until the backing array happened to be overwritten). *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push_seq h key ~seq value] inserts with an explicit tie-break
    sequence number.  {!Timing_wheel} uses this to preserve the global
    insertion order of entries that migrate between its stages; the
    internal counter advances past [seq] so later plain {!push}es still
    sort after it. *)
val push_seq : 'a t -> float -> seq:int -> 'a -> unit

val push : 'a t -> float -> 'a -> unit

(** [peek h] returns [Some (key, value)] for the minimum element without
    removing it, or [None] when the heap is empty. *)
val peek : 'a t -> (float * 'a) option

(** [pop_seq h] removes the minimum element, returning its tie-break
    sequence number as well (see {!push_seq}).
    @raise Not_found when the heap is empty. *)
val pop_seq : 'a t -> float * int * 'a

(** [pop h] removes and returns the minimum element.
    @raise Not_found when the heap is empty. *)
val pop : 'a t -> float * 'a

val clear : 'a t -> unit

(** [to_sorted_list h] drains a copy of the heap in key order (the heap
    itself is not modified).
    Test-only. *)
val to_sorted_list : 'a t -> (float * 'a) list
