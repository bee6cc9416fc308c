(** Bounded hash cache with CLOCK (second-chance) eviction.

    A fixed-capacity key/value cache: every entry occupies one slot with
    a reference bit that {!Make.find_opt} sets on a hit.  When an insert
    finds the cache full, a clock hand sweeps the slots, clearing set
    bits and evicting the first entry whose bit is already clear — so
    recently-probed entries survive one full lap and cold ones make room.
    One lap clears every bit, so an eviction inspects at most [2 * cap]
    slots; in steady state it is a short scan past the recently-hit
    prefix.

    Compared to dropping the whole table on overflow (the policy this
    replaced in {!Table}), a full cache keeps its hot entries instead of
    relearning the entire working set after every reset.

    Entries are never removed individually; consumers that need
    invalidation stamp values with a generation (as {!Table} does). *)

module Make (H : Hashtbl.HashedType) : sig
  type 'a t

  (** [create ~cap] holds at most [max 1 cap] entries. *)
  val create : cap:int -> 'a t

  val length : 'a t -> int

  (** Entries displaced one at a time by the clock hand. *)
  val evictions : 'a t -> int

  (** [find_opt t k] looks [k] up and, on a hit, sets its reference bit. *)
  val find_opt : 'a t -> H.t -> 'a option

  (** [replace t k v] binds [k] to [v], updating in place when [k] is
      resident and otherwise filling a free slot — evicting one via the
      clock hand when the cache is at capacity. *)
  val replace : 'a t -> H.t -> 'a -> unit
end
