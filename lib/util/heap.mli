(** Imperative binary min-heap: Dijkstra's priority queue, and the
    reference order {!Timing_wheel} is tested against.

    Elements are ordered by a float key supplied at insertion; ties are
    broken by insertion order so that the simulator is deterministic.

    Slots above [size] are kept at [None]: {!pop} and {!clear} null out
    vacated entries, so the heap never retains popped payloads until
    the backing array happens to be overwritten. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit

(** [peek h] returns [Some (key, value)] for the minimum element without
    removing it, or [None] when the heap is empty.
    Test-only. *)
val peek : 'a t -> (float * 'a) option

(** [pop h] removes and returns the minimum element.
    @raise Not_found when the heap is empty. *)
val pop : 'a t -> float * 'a

(** Test-only. *)
val clear : 'a t -> unit

(** [to_sorted_list h] drains a copy of the heap in key order (the heap
    itself is not modified).
    Test-only. *)
val to_sorted_list : 'a t -> (float * 'a) list
