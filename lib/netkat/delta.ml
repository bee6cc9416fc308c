(** Incremental delta recompilation: policy/topology churn without full
    recompiles.

    A full compile ({!Local.compile_all}) re-derives every switch's
    table and the installer re-pushes every rule, even when an edit
    touched one clause of a million-rule deployment.  At scale, churn is
    continuous — the headline cost is update latency, not one-shot
    compile time.

    This layer exploits the hash-consed {!Fdd}: within one hash-cons
    generation, structurally equal diagrams are physically equal, so the
    {e uid} of the subtree switch [sw] reaches through the diagram's
    top-level [Switch] spine ({!Fdd.switch_cases}) — which fully
    determines [restrict (Switch, sw) fdd] — is a certificate for switch
    [sw]'s entire table.  A {!snapshot} records, per switch, that uid
    and the derived rule list.  {!compile} then:

    {ol
    {- compares the whole-policy diagram against the snapshot's — a
       physically-equal diagram means {e no} switch changed (no per-
       switch work at all);}
    {- otherwise unzips the [Switch] spine once (O(spine) for all
       switches) and skips every switch whose case-subtree uid is
       unchanged — no restriction, no path extraction, no diffing, no
       flow-mods, warm flow caches stay warm;}
    {- re-derives only the changed switches (restrict + extract) and
       diffs old-vs-new rule lists into
       minimal adds (new or modified [(priority, pattern)] keys) and
       strict deletes.}}

    {b Invalidation rules.}  Uids are drawn from a never-reset counter,
    so uid {e equality} is sound forever — across {!Fdd.clear_cache}
    and across generations.  What a cache clear
    destroys is {e completeness}: re-deriving an unchanged policy after
    [clear_cache] yields fresh uids, so step 2's fast path misses and
    the switch falls through to step 3 — where a structural rule-list
    comparison still recognizes the no-op and reports {!Unchanged}.
    Incremental results therefore stay exactly equal to a from-scratch
    compile no matter where a [clear_cache] lands (pinned by the
    [netkat.delta] property tests). *)

open Packet

type entry = {
  uid : int;  (** uid of the switch's spine-case subtree (its certificate) *)
  rules : Local.rule list;  (** the derived table, highest priority first *)
}

type snapshot = {
  gen : int;  (** {!Fdd.generation} at compile time *)
  fdd : Fdd.t;  (** whole-policy diagram (pre-restriction) *)
  entries : (int, entry) Hashtbl.t;  (** per-switch certificates *)
}

(** What happened to one switch's table. *)
type change =
  | Unchanged
      (** table proven identical (by uid, or by structural rule
          comparison after a cache clear) — nothing to push *)
  | Changed of {
      rules : Local.rule list;  (** the full new table *)
      adds : Local.rule list;
          (** rules to add or modify: new [(priority, pattern)] keys and
              keys whose actions changed *)
      deletes : Local.rule list;  (** keys that vanished *)
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
let find snapshot switch =
  Option.map (fun e -> e.rules) (Hashtbl.find_opt snapshot.entries switch)

(** Rules across all recorded switches — the deployment's size. *)
let total_rules snapshot =
  Hashtbl.fold (fun _ e acc -> acc + List.length e.rules) snapshot.entries 0

(** [diff_rules old_rules new_rules] — the flow-mods needed to turn
    [old_rules] into [new_rules]: adds/modifies for new or changed
    [(priority, pattern)] keys, strict deletes for vanished ones.
    Order-insensitive and purely structural, so it is correct even when
    uid-based detection is unavailable (after a cache clear). *)
let diff_rules old_rules new_rules =
  let key (r : Local.rule) = (r.priority, r.pattern) in
  let old_tbl = Hashtbl.create 32 in
  List.iter (fun r -> Hashtbl.replace old_tbl (key r) r) old_rules;
  let adds =
    List.filter
      (fun (r : Local.rule) ->
        match Hashtbl.find_opt old_tbl (key r) with
        | Some old -> old.actions <> r.actions
        | None -> true)
      new_rules
  in
  let new_keys = Hashtbl.create 32 in
  List.iter (fun r -> Hashtbl.replace new_keys (key r) ()) new_rules;
  let deletes =
    List.filter (fun r -> not (Hashtbl.mem new_keys (key r))) old_rules
  in
  (adds, deletes)

(* Per-switch work: certify by the spine-case subtree's uid, re-derive
   (restrict + extract) and diff only on a changed certificate.  [case]
   is the subtree packets with [Switch = sw] reach through the root
   spine (from {!Fdd.switch_cases}); it fully determines the
   restriction, so its uid is as sound a certificate as the restricted
   diagram's own — and free, where a restrict walk costs O(spine) per
   switch. *)
let per_switch ~previous ~transform ~keep fdd ~case sw =
  let uid = Fdd.uid case in
  let prev =
    match previous with
    | Some p -> Hashtbl.find_opt p.entries sw
    | None -> None
  in
  match prev with
  | Some e when e.uid = uid -> (sw, e, Unchanged)
  | prev ->
    let rules =
      Local.rules_of_restricted (Fdd.restrict (Fields.Switch, sw) fdd)
      |> List.filter keep |> List.map transform
    in
    let entry = { uid; rules } in
    (match prev with
     | Some e when e.rules = rules ->
       (* same table under a fresh uid (a cache clear intervened, or an
          equivalent policy written differently): record the new
          certificate, push nothing *)
       (sw, entry, Unchanged)
     | Some e ->
       let adds, deletes = diff_rules e.rules rules in
       (sw, entry, Changed { rules; adds; deletes })
     | None -> (sw, entry, Changed { rules; adds = rules; deletes = [] }))

(** [compile ?transform ?keep ~switches previous fdd] — one incremental
    recompilation step: certify every switch of [switches] against
    [previous] (if any), re-derive and diff only the changed ones, and
    return the new snapshot.

    [transform] rewrites each derived rule before diffing and recording
    (e.g. stamping a version tag or a priority base); it must be pure
    and stable across calls or the uid fast path would certify stale
    transforms.  [keep] filters derived rules first (e.g. dropping
    fall-through drop rules for global programs).  Switches absent from
    [switches] are dropped from the snapshot — the caller no longer owns
    them.
    @raise Local.Not_local if the diagram moves packets between
    switches. *)
let compile ?(transform = fun (r : Local.rule) -> r)
    ?(keep = fun (_ : Local.rule) -> true) ~switches previous fdd =
  let gen = Fdd.generation () in
  (* whole-policy fast path: a physically equal diagram certifies every
     previously-recorded switch at once *)
  let unchanged_fdd =
    match previous with Some p -> Fdd.equal p.fdd fdd | None -> false
  in
  (* one spine walk certifies every switch *)
  let cases, default = Fdd.switch_cases fdd in
  let work sw =
    let case =
      match Hashtbl.find_opt cases sw with Some t -> t | None -> default
    in
    match previous with
    | Some p when unchanged_fdd ->
      (match Hashtbl.find_opt p.entries sw with
       | Some e -> (sw, e, Unchanged)
       | None -> per_switch ~previous ~transform ~keep fdd ~case sw)
    | _ -> per_switch ~previous ~transform ~keep fdd ~case sw
  in
  let results = List.map work switches in
  let entries = Hashtbl.create (List.length results) in
  List.iter (fun (sw, e, _) -> Hashtbl.replace entries sw e) results;
  let changes = List.map (fun (sw, _, c) -> (sw, c)) results in
  (* an unchanged switch kept its certificate iff its uid was reused *)
  let certified sw (e : entry) =
    match previous with
    | Some p ->
      (match Hashtbl.find_opt p.entries sw with
       | Some old -> old.uid = e.uid
       | None -> false)
    | None -> false
  in
  let skipped, rederived, n_adds, n_deletes =
    List.fold_left
      (fun (s, r, a, d) (sw, e, c) ->
        match c with
        | Unchanged -> ((if certified sw e then s + 1 else s), r, a, d)
        | Changed { adds; deletes; _ } ->
          (s, r + 1, a + List.length adds, d + List.length deletes))
      (0, 0, 0, 0) results
  in
  { snapshot = { gen; fdd; entries }; changes; skipped; rederived; n_adds;
    n_deletes }

(** [compile_policy ~switches previous pol] — {!compile} from syntax
    ({!Fdd.of_policy}, which reuses the diagrams of subterms shared with
    the previous policy). *)
let compile_policy ?transform ?keep ~switches previous pol =
  compile ?transform ?keep ~switches previous (Fdd.of_policy pol)
