(** Forwarding decision diagrams (FDDs) — the compiler's intermediate
    representation, after Smolka et al.'s "A fast compiler for NetKAT".

    An FDD is a binary decision diagram whose internal nodes test
    [field = value] and whose leaves are {e action sets}: sets of partial
    header updates, each update producing one output packet (the empty
    set is drop, the singleton empty update is the identity).

    Diagrams are ordered — along any root-to-leaf path, tests appear in
    nondecreasing field order, a field is never tested again after a
    true-branch, and equal fields appear with increasing values along
    false-branches — reduced, and hash-consed.  Reduced means no test
    is redundant: a test's true side is never where its false side
    sends a packet that fails the false side's leading tests on the
    same field, so [f = 1 ? d : (f = 2 ? e : d)] is built as
    [f = 2 ? e : d].  Two diagrams that send every packet to the same
    action set are therefore one node: physical equality [==] coincides
    with diagram equality, and {!union} is associative and commutative
    on nodes.  (Two action sets that differ only in an update that
    rewrites a field to the value a test already fixed are different
    leaves.)  All construction goes through the hash-consing
    constructors.

    {b Fast path.}  Actions are {e interned}: structurally equal updates
    share one record carrying a unique id, so action equality and
    hashing are O(1) and leaf hash-consing never re-traverses action
    structure.  Every node carries a precomputed hash and the set of
    fields its actions write.  Branches are hash-consed in a unique
    table probed on integers: a lookup hashes the test and the
    children's uids, then matches candidates on their own fields and
    children ([==]), allocating nothing.  The operations ({!union},
    [gate], {!seq}, [act_seq], {!restrict}) memoize in one
    direct-mapped {e computed table} of 2{^16} slots, keyed on two ints
    (the operation with one operand's uid, and the other operand's uid,
    action id or tested field and value).  It survives across calls, so
    repeated compilation of overlapping policies (the common controller
    workload) hits warm entries, but it never grows: a colliding store
    overwrites the slot.  A lost entry costs a recomputation that
    rebuilds no node, since hash-consing is exact and complete, so
    every diagram and every uid are the ones a complete memo gives.

    An edit's cost follows the part of the diagram it touches, not the
    diagram's size.  {!union} and [gate] stop recursing as soon as one
    operand is [drop], [ident] (gate) or both operands are one node, so
    {!cond} on an untouched subtree costs the spine above the tested
    field.  {!seq} sequences the true side of a test [f = v] with
    [restrict (f, v) b] whenever that side writes no [f]: a guard in
    front of a large base reaches only the base's case for the guarded
    values.  {!of_policy} remembers the diagram of every distinct
    subterm of the previous top-level call, keyed by structure: a
    physically shared subterm costs one pointer test, an equal copy
    one structural comparison, and all copies of a subterm share one
    entry.  So [Seq (guard, base)] after [base] does not re-walk
    [base].

    {b Unions.}  {!of_policy} compiles a tree of [Union]s of any
    association ({!Syntax.big_union}'s right fold, a left fold, a
    balanced tree) as one n-ary union.  It collects the terms, keeping
    whole any union the memo answers, compiles each, and merges the
    term diagrams pairwise in a balanced tree.  A term's diagram is
    then merged in [ceil (log2 n)] rounds, not once for every term
    after it in the spine, and no intermediate suffix of the spine is
    built: the cold compile of fat-tree k=6's 2 475-term routing
    policy builds 15 195 branch nodes, against 58 578 when each term
    was merged into the diagram of the rest of the spine.  Only the
    union's root is remembered, not its inner spine nodes.

    The intern, unique and computed tables are global mutable state
    without locks, so FDD state must be used by one domain at a time:
    compiles run on the caller's domain, and nothing in the library
    spawns another. *)

open Packet

(** A single action: a partial header update, sorted by field, at most
    one binding per field.  Applying it to a packet yields one packet.

    Values are interned: [of_list] (and every operation producing an
    action) returns the unique record for the update, so [equal] is an
    id comparison and [hash] a field read.  The intern table is never
    reset — ids stay canonical for the lifetime of the process. *)
module Act : sig
  type t

  (** The identity update. *)
  val id : t

  (** The update as an association list, sorted by field. *)
  val bindings : t -> (Fields.t * int) list

  (** The interned update binding each listed field.
      @raise Invalid_argument when a field is bound twice.
      Test-only. *)
  val of_list : (Fields.t * int) list -> t

  (** [single f v] is the one-binding update [f := v]. *)
  val single : Fields.t -> int -> t

  val get : t -> Fields.t -> int option

  (** [compose a b] is the update "do [a], then [b]" ([b] wins). *)
  val compose : t -> t -> t

  val apply : t -> Headers.t -> Headers.t
end

module ActSet : Set.S with type elt = Act.t

type test = Fields.t * int

(** A diagram node.  Construction goes through the hash-consing
    constructors, so the record is read-only outside this module. *)
type t = private {
  uid : int;
  hash : int;
  mask : int;
  node : node;
  fall : t;
      (** where a packet that fails every test of the root's leading
          run of tests on one field goes; a leaf's is itself *)
}

and node =
  | Leaf of ActSet.t
  | Branch of test * t * t  (** test, true-branch, false-branch *)

val uid : t -> int

(** Test-only. *)
val drop : t

(** Test-only. *)
val ident : t

(** Branch nodes in the unique table: every distinct branch built since
    the last {!clear_cache}.
    Test-only. *)
val branch_count : unit -> int

(** Distinct subterms the last top-level {!of_policy} call
    remembers: a call that reuses a remembered subterm visits that
    subterm's root only, and a union tree counts its root and its
    terms, not its inner spine nodes.
    Test-only. *)
val last_policy_size : unit -> int

(** Empties the unique tables and the computed table (used between
    benchmark runs to measure cold construction), so no node built
    before the clear is returned after it.  Existing diagrams remain
    usable but will no longer share with new ones; [drop] and [ident]
    stay canonical.  Interned actions are kept — their ids are
    canonical for the whole process.

    Between two clears, structurally equal diagrams are physically
    equal, so equal uids certify equal diagrams {e and} unequal uids
    certify the diagrams were not built from shared construction — the
    property the incremental recompiler ({!Delta}) uses for change
    detection.  Across a clear, sharing is lost: re-deriving the same
    policy yields fresh uids, so uid comparison stays {e sound} (uids
    are never reused) but loses its completeness — equal tables may
    carry different uids. *)
val clear_cache : unit -> unit

(** Diagram equality: physical, thanks to hash-consing. *)
val equal : t -> t -> bool

(** [pos test d] specializes [d] under the assumption [test] holds.
    Precondition: [d]'s root test is >= [test] in diagram order. *)
val pos : test -> t -> t

(** [neg test d] specializes [d] under the assumption [test] fails. *)
val neg : test -> t -> t

(** The smaller root test of two diagrams, at least one a branch. *)
val min_root : t -> t -> test

(** Pointwise union of the two diagrams' action sets.  Test-only. *)
val union : t -> t -> t

(** [cond test t e]: if [test] then [t] else [e], restoring diagram order
    regardless of the orders of [t] and [e].
    Test-only. *)
val cond : test -> t -> t -> t

(** [restrict (f, v) d] specializes the diagram to packets known to
    satisfy [f = v], removing every test on [f]. *)
val restrict : test -> t -> t

(** Test-only. *)
val act_seq : Act.t -> t -> t

(** Kleisli sequencing: run [a], feed every output packet to [b].

    Packets leaving the true side of a test [f = v] in [a] still carry
    [f = v] unless an action there writes [f], so that side is sequenced
    with [restrict (f, v) b]: a guard in front of a large base builds
    only the base's case for the guarded value.
    Test-only. *)
val seq : t -> t -> t

(** The diagram of a policy.  A subterm equal to one the previous
    top-level call remembered (with no {!clear_cache} since) is
    answered from that call without re-walking it; the answer is the
    node recomputation would build.  A union tree is compiled as one
    n-ary union (see {b Unions} above). *)
val of_policy : Syntax.pol -> t

(** [eval d h] runs the diagram on headers [h], returning the output
    packets (one per action in the reached leaf).
    Test-only. *)
val eval : t -> Headers.t -> Headers.t list

(** Distinct nodes reachable from [d] — the diagram's size. *)
val node_count : t -> int

(** [switch_cases d] — the diagram's top-level [Switch] spine unzipped
    in one walk: [(cases, default)], where [cases] maps each
    spine-tested switch value to the subtree packets carrying that value
    reach, and [default] is the fall-through subtree for every value the
    spine never tests.  Because [Switch] is the first field in the
    diagram order, [restrict (Switch, sw) d] is a pure function of the
    reached subtree — so that subtree's uid is a per-switch change
    certificate costing O(spine) for {e all} switches, where a
    per-switch [restrict] walk would cost O(spine) {e each} (the
    incremental recompiler's fast path). *)
val switch_cases : t -> (int, t) Hashtbl.t * t

(** [fold_paths d ~init ~f] visits every root-to-leaf path, true-branches
    first (the order in which rules must be listed for the earlier ones
    to encode the false-branch constraints).  [f] receives the positive
    tests along the path, the leaf's action set, and the accumulator. *)
val fold_paths : t -> init:'a -> f:(test list -> ActSet.t -> 'a -> 'a) -> 'a

(** Values appearing in tests of field [f] anywhere in the diagram. *)
val values_of_field : t -> Fields.t -> int list
