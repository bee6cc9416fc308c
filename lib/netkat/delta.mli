(** Incremental delta recompilation: policy/topology churn without full
    recompiles, and the one place a compiled rule gets its priority.

    A full compile ({!Local.rules_of_fdd} for every switch) re-derives
    every switch's table and the installer re-pushes every rule, even
    when an edit touched one clause of a million-rule deployment.  At
    scale, churn is continuous — the headline cost is update latency,
    not one-shot compile time.

    This layer exploits the hash-consed {!Fdd}: within one hash-cons
    generation, structurally equal diagrams are physically equal, so the
    {e uid} of the subtree switch [sw] reaches through the diagram's
    top-level [Switch] spine ({!Fdd.switch_cases}) — which fully
    determines [restrict (Switch, sw) fdd] — is a certificate for switch
    [sw]'s entire table.  A {!snapshot} records, per switch, that uid
    and the numbered table.  {!compile} then:

    {ol
    {- compares the whole-policy diagram against the snapshot's — a
       physically-equal diagram means {e no} switch changed (no per-
       switch work at all);}
    {- otherwise unzips the [Switch] spine once (O(spine) for all
       switches) and skips every switch whose case-subtree uid is
       unchanged — no path extraction, no alignment, no flow-mods,
       warm flow caches stay warm;}
    {- re-derives only the changed switches, extracting each one's
       rules from its case subtree (which {e is} its restriction, since
       [Switch] is the first field in the diagram order), and aligns
       each new ordered rule list with the old table: matched rules
       keep their priority (a matched pattern with new actions becomes
       one modify), inserted runs take priorities inside their
       neighbours' gap, and only when a gap runs out is a local window
       renumbered.}}

    {b Stable, gapped priorities.}  {!Local} emits ordered lists; this
    module numbers them.  A switch's first table spreads its rules over
    the fixed span [(0, span)]; later edits keep the priorities of the
    rules they do not touch, so one inserted path ships one flow-mod.
    So a delta-maintained table need not be byte-equal to a fresh
    install: it is the {e compiler's ordered [(pattern, actions)] list
    with strictly decreasing priorities}, which answers every lookup as
    the list's first match does.  Rules are numbered before
    [transform], so a transform's priority base (the version bands of
    {!Controller.Update}) is kept on every edit.

    {b Invalidation rules.}  Uids are drawn from a never-reset counter,
    so uid {e equality} is sound forever — across {!Fdd.clear_cache}
    and across generations.  What a cache clear
    destroys is {e completeness}: re-deriving an unchanged policy after
    [clear_cache] yields fresh uids, so step 2's fast path misses and
    the switch falls through to step 3 — where the alignment matches
    every rule, so the switch is reported {!Unchanged}.  Incremental
    results therefore stay the same ordered table as a from-scratch
    compile no matter where a [clear_cache] lands (pinned by the
    [netkat.delta] property tests). *)

type snapshot

(** A numbered rule: a {!Local.rule} given its priority. *)
type rule = {
  priority : int;
  pattern : Flow.Pattern.t;
  actions : Flow.Action.group;
}

(** What happened to one switch's table. *)
type change =
  | Unchanged
      (** table proven identical (by uid, or, after a cache clear, by
          an alignment that matched every rule in place) — nothing to
          push *)
  | Changed of {
      rules : rule list;  (** the full new table *)
      adds : rule list;
          (** rules to add or modify, in table order: inserted rules,
              rules a renumbered window moved, and kept slots whose
              actions changed (an add with the same priority and
              pattern replaces the installed rule) *)
      deletes : rule list;
          (** old rules that vanished or were moved, for strict
              deletes *)
    }

type result = {
  snapshot : snapshot;  (** certificate set for the next compile *)
  changes : (int * change) list;  (** per switch, in input order *)
  skipped : int;  (** switches certified unchanged by uid, not re-derived *)
  rederived : int;
      (** switches whose re-derived table changed; a switch re-derived to
          an identical table (a fresh uid after a cache clear) counts in
          neither *)
  n_adds : int;
  n_deletes : int;
}

(** [find snapshot switch] is the table recorded for [switch], if any
    (e.g. for re-pushing a crashed switch from the shadow). *)
val find : snapshot -> int -> rule list option

(** Rules across all recorded switches — the deployment's size. *)
val total_rules : snapshot -> int

(** The per-table priority span: every numbered rule lies strictly
    inside [(0, span)] before [transform]. *)
val span : int

(** [compile ?transform ?keep ~switches previous fdd] — one incremental
    recompilation step: certify every switch of [switches] against
    [previous] (if any), re-derive and align only the changed ones, and
    return the new snapshot.

    [transform] rewrites each numbered rule before recording and
    pushing (e.g. stamping a version tag or adding a priority base); it
    must be pure, stable across calls and keep priorities in order, or
    the uid fast path would certify stale transforms.  [keep] filters
    the derived ordered list before numbering (e.g. dropping
    fall-through drop rules for global programs).  Switches absent from
    [switches] are dropped from the snapshot — the caller no longer owns
    them.
    @raise Invalid_argument if a table has [span] rules or more.
    @raise Local.Not_local if the diagram moves packets between
    switches. *)
val compile :
  ?transform:(rule -> rule) ->
  ?keep:(Local.rule -> bool) ->
  switches:int list -> snapshot option -> Fdd.t -> result

(** [compile_policy ~switches previous pol] — {!compile} from syntax
    ({!Fdd.of_policy}, which reuses the diagrams of subterms shared with
    the previous policy). *)
val compile_policy :
  ?transform:(rule -> rule) ->
  ?keep:(Local.rule -> bool) ->
  switches:int list -> snapshot option -> Syntax.pol -> result
