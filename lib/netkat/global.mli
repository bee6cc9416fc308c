(** The global compiler: network-wide programs with explicit link hops,
    compiled to ordinary (single-switch) local policies by threading a
    {e program counter} through the VLAN field.

    A {!gpol} alternates {e processing stages} (ordinary local policies,
    each denoting one match-action step at whatever switch the packet
    occupies) with {e link hops} (the packet physically crossing a named
    topology link).  This is the NetKAT "in; (p·t)*; out" world made
    finite: unions and sequences freely, iteration only over link-free
    fragments — which covers source routing, waypoint chaining and
    service-function chains, the global programs one actually writes.

    Compilation normalizes the program into {e traces} (stage, link,
    stage, ..., stage), gives every position in every trace a VLAN tag,
    and emits one local policy in which: stage 0 runs on untagged packets
    and must end at its trace's first link source, where the next tag is
    pushed; stage [j] runs only on packets carrying tag [j] arriving at
    link [j]'s destination; the final stage pops the tag.  Installing the
    result with the ordinary local compiler realizes the global program
    exactly (the correspondence is property-tested against the
    teleporting denotational semantics).

    Restrictions (checked, {!Unsupported} otherwise): no [Star] over
    links, no [Switch]/[Vlan] modification inside stages (the VLAN is the
    program counter), at most 15 stages per trace. *)

exception Unsupported of string

(** A location: switch id and port. *)
type loc = int * int

type gpol =
  | Local of Syntax.pol            (** one processing stage *)
  | GLink of loc * loc             (** cross the link [src -> dst] *)
  | GSeq of gpol * gpol
  | GUnion of gpol * gpol
  | GStar of gpol                  (** link-free bodies only *)

(** Test-only. *)
val big_gseq : gpol list -> gpol

(** The teleporting denotational reading: links move packets without a
    physical network.  The specification compiled code must meet.
    Test-only. *)
val desugar : gpol -> Syntax.pol

(** stage 0, then (link crossed, following stage) pairs in order *)
type trace = {
  first : Syntax.pol;
  rest : ((loc * loc) * Syntax.pol) list;
}

(** Test-only. *)
val normalize : gpol -> trace list

(** [compile ?base_tag g] — the local policy realizing [g] over the
    physical network (install it with {!Local} / {!Zen.install_policy}).
    Tags are drawn from [base_tag] upward, 16 per trace.
    @raise Unsupported on programs outside the compilable fragment. *)
val compile : ?base_tag:int -> gpol -> Syntax.pol

(** [links_of g] — every link hop the program names (for validation
    against a topology).
    Test-only. *)
val links_of : gpol -> (loc * loc) list

(** [validate topo g] — check every named link exists (and is up) in the
    topology; returns the offending links. *)
val validate : Topo.Topology.t -> gpol -> (loc * loc) list

(** [path_program topo ~vias ~stage ~final] — a source route: at each
    switch of [vias] in order, apply [stage] and forward toward the next
    via over the direct link (which must exist); at the last via apply
    [stage] then [final] (typically delivery to a host port).  The
    canonical way to express waypoint/service chains. *)
val path_program :
  Topo.Topology.t ->
  vias:int list -> stage:Syntax.pol -> final:Syntax.pol -> gpol
