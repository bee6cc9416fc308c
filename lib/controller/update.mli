(** Consistent network updates (Reitblatt et al.'s per-packet consistency,
    the mechanism behind congestion-free/loss-free update systems like
    zUpdate).

    The problem: replacing the rules of many switches is not atomic, so a
    packet in flight can be forwarded by a {e mix} of the old and new
    policy — transient loops, black holes or security violations that
    neither policy alone would produce.

    The classic fix implemented here is {e two-phase update with version
    stamping}: the VLAN id carries a configuration version.  Packets are
    stamped with the current version at their ingress switch, internal
    rules match only their own version, and the stamp is popped at the
    egress (host-facing) port.

    - {b phase 1}: install the new version's {e internal} rules everywhere
      (they match only the new tag, so live traffic is untouched);
    - {b phase 2}: after the installs have landed, flip the {e ingress}
      rules to stamp the new version — each packet is handled entirely by
      one version;
    - {b phase 3}: after a drain interval, delete the old version's rules.

    The cost is transient double table occupancy; {!peak_rules} reports it.
    {!naive} performs the inconsistent switch-by-switch replacement for
    comparison (experiment E9).

    Every installer here is a {!Delta} stream: it compiles against the
    stream's previous snapshot and writes only what
    {!Api.change_flow_mods} maps the result to.  A version owns two
    streams, [internal:v] and [ingress:v], under cookie [v] — for
    {!install}/{!two_phase} and for the globally-compiled
    {!global_install}/{!global_two_phase} alike; {!install_plain} and
    {!naive} write cookie 0.

    Restriction: the managed policy must not itself use the [Vlan] field
    (it carries the version); {!Policy_uses_vlan} is raised otherwise. *)

exception Policy_uses_vlan

type t

(** [create ?drain ()] — an updater.  Every install path compiles
    through {!Delta} against the previous snapshot of its stream, so
    repeated {!install}, {!global_install} and {!install_plain} calls
    push only the changed switches/rules, and an in-place install after
    a transition edits the transition's rules; see each function for
    the consistency caveat. *)
val create : ?drain:float -> unit -> t

(** The current configuration version (0 before the first install).
    Test-only. *)
val version : t -> int

(** Add/modify flow-mods issued over the lifetime (a plain push's
    in-place edits count in {!delta_mods} instead). *)
val installs : t -> int

(** Max total rules observed installed: the transient double occupancy
    of a two-phase update. *)
val peak_rules : t -> int

(** Replication of the updater's durable state (see {!Api.app}'s
    [export_state]/[import_state] and {!Controller.Replica}).  Only the
    version counter is carried: version numbers become VLAN tags on
    in-flight packets and cookies on installed rules, so a new leader
    restarting from 0 could collide with tags the old leader's rules
    still match on.  Everything else in [t] (snapshots, pushed sets,
    lifetime counters) is per-process bookkeeping a successor safely
    rebuilds.
    Test-only. *)
val export_state : t -> string

(** Adopts a replicated version counter, never moving backwards (a late
    or duplicated blob must not rewind the sequence).
    Test-only. *)
val import_state : t -> string -> unit

(** Completed two-phase transitions.  Test-only. *)
val updates_done : t -> int

(** Switches proven unchanged and never touched, over the lifetime. *)
val skipped_switches : t -> int

(** Flow-mods (adds + strict deletes) issued on delta pushes.
    Test-only. *)
val delta_mods : t -> int

(** Cookie-scoped deletes issued by {!delete_version}.  Test-only. *)
val delete_msgs : t -> int

(** Test-only. *)
val delete_version : t -> Api.ctx -> cookie:int -> unit

(** [install t ctx pol] — installation of a versioned policy.  The first
    call installs version 1.  Later calls keep the version (and its
    vlan tag, priority base and cookie) {e stable} and delta-push only
    the changed switches/rules — the fast path for small edits.  This
    in-place edit is {e not} per-packet consistent (a packet in flight
    can mix pre- and post-edit rules); use {!two_phase} when the edit
    needs the consistency guarantee.
    @raise Policy_uses_vlan *)
val install : t -> Api.ctx -> Netkat.Syntax.pol -> unit

(** [two_phase t ctx pol] — per-packet-consistent transition to [pol].
    Phases are driven by simulated time; the transition completes (old
    rules gone) after roughly [2 * control latency + drain] seconds.
    Version [v]'s internal rules take the priority band
    [2 v span + (0, span)] and its ingress rules the band one span
    higher ([span] is {!Netkat.Delta.span}), so the new version's
    ingress rules shadow every rule of the old one.
    @raise Policy_uses_vlan
    @raise Invalid_argument if the new version's bands would pass the
    u32 wire priority (version 8192 and up), leaving the version as it
    was. *)
val two_phase : t -> Api.ctx -> Netkat.Syntax.pol -> unit

(** [naive t ctx ~prng ~max_jitter pol] — the inconsistent baseline:
    every switch's cookie-0 table is replaced independently (unversioned
    rules), each after a random delay in [0, max_jitter], emulating the
    asynchronous rollout of real deployments.  In-flight packets can see
    mixed old/new forwarding. *)
val naive :
  t ->
  Api.ctx ->
  prng:Util.Prng.t -> max_jitter:float -> Netkat.Syntax.pol -> unit

(** [global_install t ctx pol] — installation of a
    {!Netkat.Global.compile}d program (or any policy obeying the vlan
    discipline above).  Later calls with the same tag space keep the
    version stable and delta-push (not per-packet consistent; see
    {!global_two_phase} for the consistency path). *)
val global_install : t -> Api.ctx -> Netkat.Syntax.pol -> unit

(** [global_two_phase t ctx pol] — per-packet-consistent transition to a
    new globally-compiled program whose tag space is disjoint from the
    currently installed one, in the version bands of {!two_phase}.
    @raise Invalid_argument as {!two_phase}. *)
val global_two_phase : t -> Api.ctx -> Netkat.Syntax.pol -> unit

(** Plain (unversioned) install, for the naive baseline runs.  The
    first call full-replaces each switch's cookie-0 rules; later calls
    delta-push only the changed switches/rules (unchanged switches get
    no message at all). *)
val install_plain : t -> Api.ctx -> Netkat.Syntax.pol -> unit
