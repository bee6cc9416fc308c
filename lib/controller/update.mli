(** Programming the network with a policy, two ways.

    - {!install_plain} is a {e delta push}: it compiles the policy
      through {!Netkat.Delta} against the previous plain install and
      writes only the changed rules of the changed switches, under cookie
      0.  It is fast, but it is {e not} per-packet consistent: the
      switches apply an edit one by one, so a packet in flight can be
      forwarded by a mix of the old and the new policy (transient loops,
      black holes or security violations that neither policy alone would
      produce).
    - {!transition} is {e per-packet consistent} (Reitblatt et al.'s
      two-phase update with version stamping, the mechanism behind
      congestion-free/loss-free update systems like zUpdate).  The VLAN
      id carries a configuration version: packets are stamped at their
      ingress switch, internal rules match only their own version, and
      the stamp is popped at the egress (host-facing) port.
      {b phase 1} installs the new version's {e internal} rules
      everywhere (they match only the new tag, so live traffic is
      untouched); {b phase 2}, after those have landed, flips the
      {e ingress} rules to stamp the new version, so each packet is
      handled entirely by one version; {b phase 3}, after a drain
      interval, deletes the old version's rules.  The price is a full
      copy of the policy in a new version band on every transition, and
      the transient double table occupancy that {!peak_rules} reports.

    One updater drives one path.  Plain rules (cookie 0, priority band
    [(0, span)], [span] being {!Netkat.Delta.span}) sit below every
    version band, so a later transition shadows them but does not delete
    them.

    A version's rules are two {!Netkat.Delta} compiles from scratch,
    internal and ingress, pushed under cookie [v].

    {b Limitation: versions are per-process.}  The version counter lives
    in [t] and nothing replicates it.  {!transition} runs on one
    {!Runtime} (bench E9, [examples/service_chain.ml]); under a
    {!Controller.Replica}, an updater created afresh by a new leader
    would restart versions at 0 and reuse the cookies and VLAN tags the
    old leader's rules still carry.  {!install_plain} uses no version. *)

exception Policy_uses_vlan

(** The policy a {!transition} moves to.
    - [Local pol]: a per-switch policy that must not itself use the
      [Vlan] field (it carries the version); {!transition} raises
      {!Policy_uses_vlan} otherwise.
    - [Global pol]: a {!Netkat.Global.compile}d program, or any policy
      obeying its vlan discipline: every forwarding rule matches either
      untagged traffic or one of the program's own tags.  Successive
      programs must use disjoint tag spaces (e.g. [Global.compile
      ~base_tag:3000] then [4000]). *)
type program = Local of Netkat.Syntax.pol | Global of Netkat.Syntax.pol

type t

(** [create ?drain ()] — an updater whose transitions remove the old
    version [drain] seconds (default 0.5) after flipping ingress. *)
val create : ?drain:float -> unit -> t

(** The current configuration version (0 before the first transition).
    Test-only. *)
val version : t -> int

(** Add/modify flow-mods issued over the lifetime (a plain push's
    in-place edits count in {!delta_mods} instead). *)
val installs : t -> int

(** Max total rules observed installed: the transient double occupancy
    of a transition. *)
val peak_rules : t -> int

(** [set_version t v] makes [v] the current version, so the next
    {!transition} installs version [v + 1].
    Test-only. *)
val set_version : t -> int -> unit

(** Transitions that replaced a version and drained it.  Test-only. *)
val updates_done : t -> int

(** Switches proven unchanged and never touched, over the lifetime. *)
val skipped_switches : t -> int

(** Flow-mods (adds + strict deletes) issued on {!install_plain}'s
    delta pushes.  Test-only. *)
val delta_mods : t -> int

(** [transition t ctx program] — per-packet-consistent move to
    [program] in a fresh version.  The first transition (from version
    0) is the initial install: it installs version 1 and deletes
    nothing.  Phases are driven by simulated time; a later transition
    completes (old version gone, switches that never received its rules
    left untouched) after roughly [2 * control latency + drain] seconds.
    Version [v]'s internal rules take the priority band
    [2 v span + (0, span)] and its ingress rules the band one span
    higher, so the new version's ingress rules shadow every rule of the
    old one.  Every transition compiles and installs the whole program
    anew, even when it differs from the installed one by one rule.
    @raise Policy_uses_vlan for a [Local] policy that uses [Vlan]
    @raise Invalid_argument if the new version's bands would pass the
    u32 wire priority (version 8192 and up), leaving the version as it
    was. *)
val transition : t -> Api.ctx -> program -> unit

(** [install_plain t ctx pol] — a delta push of [pol] under cookie 0.
    The first call full-replaces each switch's cookie-0 rules; later
    calls push only the changed switches/rules (unchanged switches get
    no message at all, so their flow caches stay warm).  Not per-packet
    consistent; see {!transition}. *)
val install_plain : t -> Api.ctx -> Netkat.Syntax.pol -> unit
