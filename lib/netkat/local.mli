(** Local compilation: policy → FDD → per-switch ordered rule list.

    A policy is {e local} when it never moves packets between switches
    (no [link]s, no writes to the [Switch] meta-field); such a policy
    describes the behavior of every switch at once, and compiling it for
    switch [sw] means specializing to [Switch = sw] and reading rules off
    the diagram.

    The compiler's output is an {e ordered} list: the first rule whose
    pattern matches a packet decides its actions.  Rules are emitted
    along the diagram's root-to-leaf paths in true-branch-first order; a
    path contributes the conjunction of its positive tests as the match
    pattern, and the rules before it encode the false-branch (negative)
    constraints exactly.  Order is the semantics; priorities are an
    encoding, and {!Delta} alone assigns them when a list becomes a
    switch's table. *)

exception Not_local of string

(** One compiled rule: a match pattern and the action group of the
    packets it catches.  Its precedence is its position in the list. *)
type rule = Flow.Pattern.t * Flow.Action.group

val seq_of_act : Fdd.Act.t -> Flow.Action.seq

(** [rules_of_restricted d] extracts the ordered rule list from a
    diagram already specialized to one switch (no [Switch] tests left),
    first match first.
    @raise Not_local if the diagram moves packets between switches. *)
val rules_of_restricted : Fdd.t -> rule array

(** [rules_of_fdd ~switch d] specializes [d] to the switch and extracts
    the ordered rule list.
    @raise Not_local if the diagram moves packets between switches. *)
val rules_of_fdd : switch:int -> Fdd.t -> rule list

(** [compile ~switch pol] compiles a local policy to the ordered rule
    list of one switch.
    @raise Not_local on link policies (switch tests are fine). *)
val compile : switch:int -> Syntax.pol -> rule list
