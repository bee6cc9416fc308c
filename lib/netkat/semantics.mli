(** Denotational semantics of the policy language: a policy maps one
    header record to a set of header records.  This interpreter is the
    specification against which the flow-table compiler is tested — it is
    deliberately simple rather than fast. *)

module HSet : Set.S with type elt = Packet.Headers.t

(** [eval pol h] is the set of packets [pol] produces from [h].  [Star]
    iterates to a fixpoint, which exists because every reachable header
    assigns each field either its original value or one written by some
    [Mod] in the policy — a finite space. *)
val eval : Syntax.pol -> Packet.Headers.t -> HSet.t

(** Packet-level equivalence of two policies on a given input.  Test-only. *)
val equiv_on :
  Syntax.pol -> Syntax.pol -> Packet.Headers.t -> bool
