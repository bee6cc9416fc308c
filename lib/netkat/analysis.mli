(** Policy analysis built on the FDD representation.

    Physical equality of hash-consed diagrams is a {e sound} equivalence
    check (equal pointers ⇒ equal policies) but not complete: a write
    that re-stores a value guaranteed by an enclosing positive test (as
    in [filter tpDst = 80; tpDst := 80]) leaves a structural difference
    with no semantic one.  {!counterexample} therefore walks the two
    diagrams in lockstep and, at structurally different leaves, decides
    {e semantic} difference on the path's packet cube by evaluating both
    action sets on a carefully chosen witness (fresh field values that no
    action writes, so distinct updates give distinct outputs, and updates
    that differ only by writes of path-forced values coincide — exactly
    the semantic quotient).  This makes {!equivalent} sound {e and}
    complete. *)

(** [counterexample p q] — [None] iff the policies are equivalent;
    otherwise a packet on which their output sets differ. *)
val counterexample :
  Syntax.pol -> Syntax.pol -> Packet.Headers.t option

(** [equivalent p q] — do [p] and [q] denote the same packet function?
    Sound and complete.
    Test-only. *)
val equivalent : Syntax.pol -> Syntax.pol -> bool

(** [is_drop p] — does [p] drop every packet?  Test-only. *)
val is_drop : Syntax.pol -> bool

(** [is_id p] — does [p] pass every packet through unchanged (and only
    that)?
    Test-only. *)
val is_id : Syntax.pol -> bool

(** [deciding_fields p] — the header fields the policy's behavior
    actually depends on (tested somewhere in its diagram).
    Test-only. *)
val deciding_fields : Syntax.pol -> Packet.Fields.t list

(** [table_size ~switch p] — rules the policy compiles to at a switch,
    without materializing the table.
    Test-only. *)
val table_size : switch:int -> Syntax.pol -> int
