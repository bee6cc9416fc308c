(** Dead-rule analysis and minimization of an ordered rule list — the
    compiler's output, a [(pattern, actions)] list whose first matching
    rule decides a packet (list order is precedence, as in
    [Netkat.Local.rule]).  Minimizing before installation saves switch
    TCAM, the scarce resource.

    Two passes, both conservative (they only remove a rule when a purely
    syntactic argument shows lookups cannot change):

    - {b shadow elimination}: a rule is dead when an earlier rule's
      pattern subsumes its own;
    - {b redundancy elimination}: a rule is redundant when some later rule
      with {e identical actions} subsumes its pattern and no rule between
      them overlaps it with different actions — every packet the rule
      would catch falls through to the same treatment.

    Passes iterate to a fixpoint (removing one rule can expose another). *)

(** [shadowed rules] — the dead rules: those an earlier rule's pattern
    subsumes, so they can never match.  In list order. *)
val shadowed :
  (Pattern.t * Action.group) list -> (Pattern.t * Action.group) list

(** [minimize rules] returns an equivalent, usually smaller rule list
    (same relative order among survivors). *)
val minimize :
  (Pattern.t * Action.group) list -> (Pattern.t * Action.group) list

(** Lookup semantics of a rule list (the reference the optimizer must
    preserve): action group of the first matching rule, [None] on miss.
    Test-only. *)
val lookup :
  (Pattern.t * Action.group) list -> Packet.Headers.t -> Action.group option
