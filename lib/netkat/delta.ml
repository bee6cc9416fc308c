open Packet

type entry = {
  uid : int;  (** uid of the switch's spine-case subtree (its certificate) *)
  rules : Local.rule list;  (** the derived table, highest priority first *)
}

type snapshot = {
  fdd : Fdd.t;  (** whole-policy diagram (pre-restriction) *)
  entries : (int, entry) Hashtbl.t;  (** per-switch certificates *)
}

type change =
  | Unchanged
  | Changed of {
      rules : Local.rule list;
      adds : Local.rule list;
      deletes : Local.rule list;
    }

type result = {
  snapshot : snapshot;
  changes : (int * change) list;
  skipped : int;
  rederived : int;
  n_adds : int;
  n_deletes : int;
}

let find snapshot switch =
  Option.map (fun e -> e.rules) (Hashtbl.find_opt snapshot.entries switch)

let total_rules snapshot =
  Hashtbl.fold (fun _ e acc -> acc + List.length e.rules) snapshot.entries 0

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

let compile ?(transform = fun (r : Local.rule) -> r)
    ?(keep = fun (_ : Local.rule) -> true) ~switches previous fdd =
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
  { snapshot = { fdd; entries }; changes; skipped; rederived; n_adds;
    n_deletes }

let compile_policy ?transform ?keep ~switches previous pol =
  compile ?transform ?keep ~switches previous (Fdd.of_policy pol)
