(** Priority flow tables: the forwarding state of one switch.

    Lookup returns the action group of the highest-priority matching
    rule; among equal priorities the earliest-installed rule wins (as in
    OpenFlow, equal-priority overlaps are discouraged).  Rules carry
    packet/byte counters and an optional idle timeout evicted by
    {!expire}.  Re-adding a rule with the same priority and pattern
    replaces its actions, timeout and cookie but preserves its counters
    and last-hit time (OpenFlow modify semantics).

    {b Fast path.}  Lookup is staged.  In front sits a megaflow cache,
    as in Open vSwitch: on a miss, the classifier below also reports
    the union of the shapes it probed (flags OR'd, the longer CIDR
    length kept per address field), and the verdict — the winning rule
    or "no match" — is cached under [(mask, header masked by mask)].
    Every header that agrees on those fields would take the same probes
    to the same verdict, so one entry serves, say, every source port of
    a destination-routed flow.  A lookup tries the masks cached since
    the last mutation in turn; the probed shapes are always a prefix of
    the probe order, so there are at most {!shape_count} masks (one for
    an empty table).  The key holds no [switch] (a table belongs to one
    switch) and holds [in_port] only when a probed shape constrains it.
    A hit hashes and compares the masked fields in place, only the
    fields its mask keeps (recorded when the mask is filed), and
    allocates nothing.

    Mutations that actually change the rule list — {!add}, a deleting
    {!remove} / {!remove_strict} / {!clear}, and any eviction by
    {!expire} — invalidate the cache in O(1) by bumping a generation
    counter and clearing the mask list; stale entries are never
    returned, an entry whose key recurs is reused in place, and the
    rest age out under the CLOCK hand.  No-op deletes leave the cache
    warm.  The cache grows by doubling from 16 entries up to
    [cache_entries] (default 8192); at that bound it evicts one cold
    entry per insert with a CLOCK (second-chance) hand, so hot entries
    survive a stream of cold ones.

    {b Cold path.}  A cache miss does not scan the rule list; it runs a
    tuple-space-search classifier: rules are grouped by pattern
    {!Pattern.shape} (the set of constrained fields, CIDR prefixes
    bucketed per length), one hashtable per shape keyed on the masked
    header tuple.  Shapes are probed in descending max-priority order,
    and probing stops early once the best match so far strictly beats
    the next shape's ceiling, so a lookup costs at most one probe per
    distinct shape and often just one probe total.  The shape tables and
    their probe order are maintained incrementally on add/remove/expire,
    never rebuilt.  Cache hit/miss/invalidation and classifier
    probe/shape counters are exposed for monitoring. *)

open Packet

type rule = {
  priority : int;
  pattern : Pattern.t;
  actions : Action.group;
  mutable packets : int;
  mutable bytes : int;
  mutable last_hit : float;
  idle_timeout : float option;  (** seconds of inactivity before eviction *)
  cookie : int;                 (** opaque tag chosen by the controller *)
  mutable seq : int;
      (** installation order, the equal-priority tie-breaker; assigned by
          {!add} (a modify keeps the replaced rule's slot) *)
}

type t

val create : ?capacity:int -> ?cache_entries:int -> unit -> t

val size : t -> int

val rules : t -> rule list

val hits : t -> int

val misses : t -> int

val cache_hits : t -> int

val cache_misses : t -> int

val invalidations : t -> int

(** Test-only. *)
val generation : t -> int

(** Test-only. *)
val cache_size : t -> int

(** Entries displaced one at a time by the CLOCK hand. *)
val cache_evictions : t -> int

(** Distinct cache masks since the last mutation, at most
    [max 1 (shape_count t)].  Test-only. *)
val mask_count : t -> int

(** Number of distinct pattern shapes in the table — the probe count a
    single cold lookup pays. *)
val shape_count : t -> int

(** Cumulative shape-table probes performed by the classifier. *)
val classifier_probes : t -> int

(** [lookup_tuple t h] is the cold path: shapes are probed in descending
    max-priority (ceiling) order, and probing stops as soon as the best
    match so far strictly beats the next shape's ceiling — equal
    ceilings are still probed, because an equal-priority rule installed
    earlier wins the tie.  At most one probe per distinct pattern shape;
    agrees with {!lookup_linear} on every header; bypasses (and does not
    populate) the flow cache. *)
val lookup_tuple : t -> Headers.t -> rule option

exception Table_full

val make_rule :
  ?priority:int ->
  ?idle_timeout:float option ->
  ?cookie:int ->
  ?now:float ->
  pattern:Pattern.t -> actions:Action.group -> unit -> rule

(** [add t rule] inserts keeping the descending-priority order; a rule
    with the same priority and pattern as an existing one replaces it
    (OpenFlow modify semantics: new actions, timeout and cookie, but
    the old rule's counters and last-hit time are preserved).
    @raise Table_full when the table is at capacity. *)
val add : t -> rule -> unit

(** [add_copies t rules] adds a fresh copy of each of [rules] —
    priority, pattern, actions, timeout and cookie kept, counters and
    last-hit time reset — e.g. to seed a shadow table from another
    table's rule list. *)
val add_copies : t -> rule list -> unit

(** Removes every rule whose pattern is subsumed by [pattern] (OpenFlow
    delete semantics); [cookie] restricts deletion to matching cookies. *)
val remove : ?cookie:int -> t -> pattern:Pattern.t -> unit

(** [remove_strict t ~priority ~pattern] removes exactly the rule with
    this priority and pattern, if present (OpenFlow strict-delete). *)
val remove_strict :
  ?cookie:int -> t -> priority:int -> pattern:Pattern.t -> unit

val clear : t -> unit

(** [lookup_linear t h] is the reference path: a linear scan over the
    rule list, bypassing (and not populating) both fast paths. *)
val lookup_linear : t -> Headers.t -> rule option

(** [lookup t h] returns the winning rule for headers [h], if any,
    without touching hit/miss or per-rule counters.  Tries the megaflow
    cache under each current mask; on a miss, runs the tuple-space
    classifier and caches its verdict (including "no match") under the
    union of the shapes it probed.  A hit allocates nothing. *)
val lookup : t -> Headers.t -> rule option

(** The group {!apply} returns on a table miss.  Compare it physically
    ([==]): no rule's actions are this list, and the empty group a rule
    may hold (drop) is a different value. *)
val miss : Action.group

(** [apply_at t ~now ~size ~switch ~in_port h] performs a dataplane
    lookup of [h] located at [switch], arriving on [in_port] (whatever
    [h.switch] and [h.in_port] hold): updates hit/miss and per-rule
    counters and returns the winning rule's action group, or {!miss} on
    a table miss.  A hit reads the location from the arguments and
    allocates nothing; a miss builds the located header once, for the
    classifier and the cache entry.  The switch's forwarding hop calls
    it, so a packet in flight never carries its location. *)
val apply_at :
  t -> now:float -> size:int -> switch:int -> in_port:int -> Headers.t ->
  Action.group

(** [apply t ~now ~size h] is [apply_at] at [h]'s own location. *)
val apply : t -> now:float -> size:int -> Headers.t -> Action.group

(** [expire t ~now] evicts rules whose idle timeout has passed,
    returning the evicted rules. *)
val expire : t -> now:float -> rule list

val pp : Format.formatter -> t -> unit
