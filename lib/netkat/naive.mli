(** The baseline compiler: straightforward cross-product translation of
    policies to rules, with none of the FDD's sharing, factoring or
    shadow elimination.  It exists to quantify what the FDD buys (E1).

    Supported fragment: [Filter]/[Mod]/[Union]/[Seq] where predicates are
    built from tests with [And]/[Or] (no negation) — the fragment that
    hand-written rule generators typically cover.  [Union] branches are
    assumed pairwise disjoint (true of routing and ACL policies, where
    branches test distinct header values); overlapping branches would
    need multicast groups that a naive rule list cannot express.

    @raise Unsupported on negation, star, or switch modification. *)

exception Unsupported of string

(** [compile ~switch pol] produces the ordered rule list for one
    switch: rules testing another switch are dropped, the switch test is
    erased, and the rest become flow rules in declaration order (first
    match first, as {!Local.compile}).  The result may
    contain redundant and duplicated entries — that is the point of the
    baseline. *)
val compile : switch:int -> Syntax.pol -> Local.rule list
