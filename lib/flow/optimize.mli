(** Flow-table minimization: semantics-preserving shrinking of a rule
    list, applied after compilation and before installation (switch TCAM
    is the scarce resource).

    Two passes, both conservative (they only remove a rule when a purely
    syntactic argument shows lookups cannot change):

    - {b shadow elimination}: a rule is dead when an earlier
      (higher-precedence) rule's pattern subsumes its own;
    - {b redundancy elimination}: a rule is redundant when some later rule
      with {e identical actions} subsumes its pattern and no rule between
      them overlaps it with different actions — every packet the rule
      would catch falls through to the same treatment.

    Passes iterate to a fixpoint (removing one rule can expose another). *)

type rule = {
  priority : int;
  pattern : Pattern.t;
  actions : Action.group;
}

(** [minimize rules] returns an equivalent, usually smaller rule list
    (same relative order among survivors; priorities unchanged). *)
val minimize : rule list -> rule list

(** Lookup semantics of a rule list (the reference the optimizer must
    preserve): action group of the first matching rule in precedence
    order, [None] on miss.
    Test-only. *)
val lookup : rule list -> Packet.Headers.t -> Action.group option

(** Convenience: minimize the contents of a {!Table.t} in place,
    returning (before, after) sizes.
    Test-only. *)
val minimize_table : Table.t -> int * int
