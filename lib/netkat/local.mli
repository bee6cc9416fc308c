(** Local compilation: policy → FDD → per-switch flow table.

    A policy is {e local} when it never moves packets between switches
    (no [link]s, no writes to the [Switch] meta-field); such a policy
    describes the behavior of every switch at once, and compiling it for
    switch [sw] means specializing to [Switch = sw] and reading rules off
    the diagram.

    Rules are emitted along the diagram's root-to-leaf paths in
    true-branch-first order with descending priorities; a path
    contributes the conjunction of its positive tests as the match
    pattern, and the shadowing of higher-priority rules encodes the
    false-branch (negative) constraints exactly. *)

exception Not_local of string

type rule = {
  priority : int;
  pattern : Flow.Pattern.t;
  actions : Flow.Action.group;
}

val seq_of_act : Fdd.Act.t -> Flow.Action.seq

(** [rules_of_restricted d] extracts the rule table from a diagram
    already specialized to one switch (no [Switch] tests left), highest
    priority first.  Priorities count paths from the bottom ([n - i]);
    they give only the order.  {!Delta} keeps its own numbering: it
    lays a first install over its priority span and, on an edit, keeps
    the priority of every rule it matches in the old table, so an
    inserted path costs one flow-mod, not a renumbering of every rule
    above it.
    @raise Not_local if the diagram moves packets between switches. *)
val rules_of_restricted : Fdd.t -> rule array

(** [rules_of_fdd ~switch d] specializes [d] to the switch and extracts
    the rule list, highest priority first.
    @raise Not_local if the diagram moves packets between switches. *)
val rules_of_fdd : switch:int -> Fdd.t -> rule list

(** [compile ~switch pol] compiles a local policy to the flow table of
    one switch.
    @raise Not_local on link policies (switch tests are fine). *)
val compile : switch:int -> Syntax.pol -> rule list

val table_of_rules : ?capacity:int -> rule list -> Flow.Table.t

(** As {!compile}, but loaded into a {!Flow.Table.t}.  Test-only. *)
val compile_table :
  ?capacity:int -> switch:int -> Syntax.pol -> Flow.Table.t

(** [rules_of_fdd_all ~switches d] pairs each switch of [switches], in
    order, with [rules_of_fdd ~switch d].
    Test-only. *)
val rules_of_fdd_all :
  switches:int list -> Fdd.t -> (int * rule list) list

(** [compile_all ~switches pol] compiles a local policy for every switch
    at once, building its FDD once.
    @raise Not_local on link policies.
    Test-only. *)
val compile_all :
  switches:int list -> Syntax.pol -> (int * rule list) list

val pp_rule : Format.formatter -> rule -> unit
