(** Proactive ACL firewall: compiles an access-control list composed
    with shortest-path routing ({!Netkat.Builder.firewall}) and installs
    the result.  Separated from {!Routing} so experiments can measure the
    cost of policy composition.

    ACLs churn (entries added/removed at runtime via {!set_entries});
    every push runs through {!Netkat.Delta}: the first full-replaces
    each table, later ones skip the switches whose table is unaffected
    by the edit and send the rest minimal add/strict-delete batches. *)

type t = {
  app : Api.app;
  cookie : int;
  default_allow : bool;
  mutable entries : Netkat.Builder.acl_entry list;
  mutable rules_installed : int;
  mutable delta_mods : int;     (* flow-mods issued as in-place deltas *)
  mutable skipped : int;        (* switches skipped as unchanged *)
  mutable snap : Netkat.Delta.snapshot option;
}

let push t ctx =
  let topo = Api.topology ctx in
  let pol =
    Netkat.Builder.firewall ~default_allow:t.default_allow topo t.entries
  in
  let fdd = Netkat.Fdd.of_policy pol in
  let result =
    Netkat.Delta.compile ~switches:(Topo.Topology.switch_ids topo) t.snap fdd
  in
  let full, delta =
    Api.push_delta ctx ~cookie:t.cookie ~previous:t.snap result
  in
  t.snap <- Some result.snapshot;
  t.skipped <- t.skipped + result.skipped;
  t.rules_installed <- t.rules_installed + full;
  t.delta_mods <- t.delta_mods + delta

(** [set_entries t ctx entries] replaces the ACL and re-pushes; only
    the switches whose compiled table actually changed are touched. *)
let set_entries t ctx entries =
  t.entries <- entries;
  push t ctx

let create ?(default_allow = true) ?(cookie = 0x0f) entries =
  let t_ref = ref None in
  let installed = ref false in
  let switch_up ctx ~switch_id:_ ~ports:_ =
    if not !installed then begin
      installed := true;
      push (Option.get !t_ref) ctx
    end
  in
  let app = { (Api.default_app "firewall") with switch_up } in
  let t =
    { app; cookie; default_allow; entries; rules_installed = 0;
      delta_mods = 0; skipped = 0; snap = None }
  in
  t_ref := Some t;
  t

let app t = t.app
let rules_installed t = t.rules_installed
let delta_mods t = t.delta_mods
let skipped_switches t = t.skipped
