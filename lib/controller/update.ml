open Netkat

exception Policy_uses_vlan

let rec pred_uses_vlan : Syntax.pred -> bool = function
  | True | False -> false
  | Test (f, _) -> Packet.Fields.equal f Packet.Fields.Vlan
  | And (a, b) | Or (a, b) -> pred_uses_vlan a || pred_uses_vlan b
  | Not a -> pred_uses_vlan a

let rec pol_uses_vlan : Syntax.pol -> bool = function
  | Filter p -> pred_uses_vlan p
  | Mod (f, _) -> Packet.Fields.equal f Packet.Fields.Vlan
  | Union (a, b) | Seq (a, b) -> pol_uses_vlan a || pol_uses_vlan b
  | Star a -> pol_uses_vlan a

(* predicate: the packet sits at a host-facing port (used both for
   ingress detection and for egress popping, since after forwarding the
   port field holds the output port) *)
let edge_pred topo =
  Topo.Topology.switches topo
  |> List.concat_map (fun sw ->
    let sw_id = Topo.Topology.Node.id sw in
    Topo.Topology.hosts_of_switch topo sw_id
    |> List.map (fun (_, port) ->
      Syntax.conj
        (Syntax.test Packet.Fields.Switch sw_id)
        (Syntax.test Packet.Fields.In_port port)))
  |> List.fold_left Syntax.disj Syntax.False

(** The version-[u] {e ingress} policy: packets entering from hosts are
    stamped [u], forwarded by [pol], and popped if they exit to a host on
    the same switch. *)
let ingress_part topo pol ~version =
  let edge = edge_pred topo in
  Syntax.big_seq
    [ Syntax.filter edge;
      Syntax.modify Packet.Fields.Vlan version;
      pol;
      Syntax.ite edge (Syntax.modify Packet.Fields.Vlan Packet.Fields.vlan_none)
        Syntax.id ]

(** The version-[u] {e internal} policy: packets already stamped [u]
    arriving from other switches.  No explicit edge exclusion is needed
    (or wanted): packets entering from hosts are untagged, so the version
    test alone excludes them — and an explicit [not edge] filter would
    compile to version-blind drop rules that shadow the other live
    version's ingress rules during a two-phase transition. *)
let internal_part topo pol ~version =
  let edge = edge_pred topo in
  Syntax.big_seq
    [ Syntax.filter (Syntax.test Packet.Fields.Vlan version);
      pol;
      Syntax.ite edge (Syntax.modify Packet.Fields.Vlan Packet.Fields.vlan_none)
        Syntax.id ]

type t = {
  drain : float;  (* seconds before old rules are removed *)
  streams : (string, Delta.snapshot) Hashtbl.t;
      (* per install-path snapshots, keyed ["<path>:<version>"] so a
         version bump (whose base/tag transform differs) never reuses a
         stale certificate *)
  pushed : (int, (int, unit) Hashtbl.t) Hashtbl.t;
      (* cookie → switches that actually received rules under it;
         [delete_version] consults this to leave the rest alone *)
  mutable version : int;
  mutable installs : int;
  mutable peak_rules : int;
  mutable updates_done : int;
  mutable skipped_switches : int;
  mutable delta_mods : int;
  mutable delete_msgs : int;
}

let create ?(drain = 0.5) () =
  { drain; streams = Hashtbl.create 8; pushed = Hashtbl.create 8;
    version = 0; installs = 0; peak_rules = 0; updates_done = 0;
    skipped_switches = 0; delta_mods = 0; delete_msgs = 0 }

let version t = t.version
let installs t = t.installs
let peak_rules t = t.peak_rules

let export_state t = string_of_int t.version

let import_state t blob =
  match int_of_string_opt (String.trim blob) with
  | Some v when v > t.version -> t.version <- v
  | Some _ | None -> ()
let updates_done t = t.updates_done
let skipped_switches t = t.skipped_switches
let delta_mods t = t.delta_mods
let delete_msgs t = t.delete_msgs

let observe_occupancy t ctx =
  let total =
    List.fold_left
      (fun acc (sw : Dataplane.Network.switch) ->
        acc + Flow.Table.size sw.table)
      0
      (Dataplane.Network.switch_list ctx.Api.net)
  in
  if total > t.peak_rules then t.peak_rules <- total

let note_pushed t ~cookie ~switch_id =
  let set =
    match Hashtbl.find_opt t.pushed cookie with
    | Some s -> s
    | None ->
      let s = Hashtbl.create 16 in
      Hashtbl.replace t.pushed cookie s;
      s
  in
  Hashtbl.replace set switch_id ()

(* Push one switch's change under [cookie] as adds and strict deletes
   only ({!Api.change_flow_mods} with [~known:true]), even to a switch
   the stream has never programmed.  Both streams of one version share
   the version's cookie, so {!Api.push_delta}'s cookie-scoped
   replacement would make the ingress push delete the internal rules
   pushed just before it; a version's first push is under a fresh
   cookie, so its adds alone are a full install.  An unchanged switch
   gets no message at all — its flow cache stays warm. *)
let push_change t ctx ~cookie switch_id = function
  | Delta.Unchanged -> ()
  | Delta.Changed { adds; deletes; _ } as change ->
    if adds <> [] || deletes <> [] then begin
      t.installs <- t.installs + List.length adds;
      t.delta_mods <- t.delta_mods + List.length adds + List.length deletes;
      note_pushed t ~cookie ~switch_id;
      Api.send_flow_mods ctx ~switch_id
        (Api.change_flow_mods ~cookie ~known:true change)
    end

(* The one stream installer: compile [fdd] through {!Delta.compile}
   (with its own [keep]/[transform]) against the [stream]'s previous
   snapshot and push every switch's change under [cookie].  Switches
   whose diagram is uid-unchanged are skipped entirely; changed ones get
   minimal add/strict-delete batches.  The transform depends on the
   version (priority base, tag), so the stream key pins the version:
   ["<path>:<version>"]. *)
let install_stream t ctx ~stream ~cookie ?keep ~transform fdd =
  let previous = Hashtbl.find_opt t.streams stream in
  let result =
    Delta.compile ?keep ~transform
      ~switches:(Topo.Topology.switch_ids (Api.topology ctx)) previous fdd
  in
  Hashtbl.replace t.streams stream result.snapshot;
  t.skipped_switches <- t.skipped_switches + result.skipped;
  List.iter
    (fun (switch_id, change) -> push_change t ctx ~cookie switch_id change)
    result.changes

let stream_key path version = Printf.sprintf "%s:%d" path version

(* Garbage-collect one version: cookie-scoped delete to exactly the
   switches that received rules under that cookie (a switch that never
   did must not be touched — the delete would be a no-op on the wire but
   historically invalidated nothing anyway; skipping it keeps the
   control channel quiet and the accounting honest). *)
let delete_version t ctx ~cookie =
  (match Hashtbl.find_opt t.pushed cookie with
   | None -> ()
   | Some set ->
     List.iter
       (fun sw ->
         let switch_id = Topo.Topology.Node.id sw in
         if Hashtbl.mem set switch_id then begin
           t.delete_msgs <- t.delete_msgs + 1;
           Api.uninstall ctx ~switch_id ~cookie Flow.Pattern.any
         end)
       (Topo.Topology.switches (Api.topology ctx));
     Hashtbl.remove t.pushed cookie);
  List.iter
    (fun path -> Hashtbl.remove t.streams (stream_key path cookie))
    [ "internal"; "ingress" ]

(* Version [v]'s priority bands.  {!Delta} numbers every stream's rules
   inside [(0, Delta.span)]; internal rules sit at [base v + p], ingress
   rules one span higher, at [base v + Delta.span + p], with
   [base v = 2 * Delta.span * v].  The bands of distinct versions and
   streams are therefore disjoint, and a new version's ingress rules sit
   above every rule of the old one.  The wire priority is a u32. *)
let band_base version =
  let base = 2 * Delta.span * version in
  if base + (2 * Delta.span) - 1 > 0xFFFF_FFFF then
    invalid_arg
      (Printf.sprintf "Update: version %d overflows the u32 priority bands"
         version);
  base

(* One version's two streams, [(internal, ingress)], each a thunk that
   compiles and pushes its part when called, in the version's bands.

   Correctness requirement: while two versions coexist, no rule of one
   version may catch the other version's packets.  The FDD encodes its
   negative constraints (e.g. "vlan <> u" fall-through drops) through
   intra-table shadowing, which breaks when two compiled tables are
   interleaved at different priority bases.  We therefore specialize
   each part's diagram to the vlan value its packets are known to carry
   (the version tag for the internal part, untagged for the ingress
   part) and stamp that value into every emitted pattern — making every
   single rule, including drops, version-specific. *)
let versioned_streams t ctx pol ~version =
  let topo = Api.topology ctx in
  let base = band_base version in
  let part path mk_part ~vlan ~base () =
    install_stream t ctx ~stream:(stream_key path version) ~cookie:version
      ~transform:(fun (r : Delta.rule) ->
        { r with priority = base + r.priority;
          pattern = { r.pattern with vlan = Some vlan } })
      (Fdd.restrict (Packet.Fields.Vlan, vlan)
         (Fdd.of_policy (mk_part topo pol ~version)))
  in
  ( part "internal" internal_part ~vlan:version ~base,
    part "ingress" ingress_part ~vlan:Packet.Fields.vlan_none
      ~base:(base + Delta.span) )

(* Edit the current version's streams in place.  Not per-packet
   consistent: a packet in flight can mix pre- and post-edit rules. *)
let in_place t ctx (internal, ingress) =
  internal ();
  ingress ();
  Api.schedule ctx ~delay:0.05 (fun () -> observe_occupancy t ctx)

(* Per-packet-consistent transition to a fresh version's streams.  The
   fresh version in the stream keys makes the compiles start from a
   clean snapshot (cross-version rules are never byte-identical — the
   tag differs — so there is nothing to reuse).
   - phase 1: the internal rules, invisible to live traffic;
   - phase 2: once phase 1 has certainly landed (one control latency
     plus slack), flip ingress stamping — the new ingress rules shadow
     the old ones by their higher priority base;
   - phase 3: after [drain], garbage-collect [old_version]. *)
let transition t ctx ~old_version (internal, ingress) =
  internal ();
  Api.schedule ctx ~delay:0.01 (fun () ->
    ingress ();
    (* sample occupancy at its peak: both versions fully installed *)
    Api.schedule ctx ~delay:0.01 (fun () -> observe_occupancy t ctx);
    Api.schedule ctx ~delay:t.drain (fun () ->
      delete_version t ctx ~cookie:old_version;
      t.updates_done <- t.updates_done + 1))

let install t ctx pol =
  if pol_uses_vlan pol then raise Policy_uses_vlan;
  if t.version = 0 then t.version <- 1;
  in_place t ctx (versioned_streams t ctx pol ~version:t.version)

let two_phase t ctx pol =
  if pol_uses_vlan pol then raise Policy_uses_vlan;
  let old_version = t.version in
  let streams = versioned_streams t ctx pol ~version:(old_version + 1) in
  t.version <- old_version + 1;
  transition t ctx ~old_version streams

let naive t ctx ~prng ~max_jitter pol =
  let result =
    Delta.compile ~switches:(Topo.Topology.switch_ids (Api.topology ctx))
      None (Fdd.of_policy pol)
  in
  t.updates_done <- t.updates_done + 1;
  List.iter
    (fun (switch_id, change) ->
      let delay = Util.Prng.float prng max_jitter in
      Api.schedule ctx ~delay (fun () ->
        (match change with
         | Delta.Changed { rules; _ } ->
           t.installs <- t.installs + List.length rules
         | Delta.Unchanged -> ());
        Api.send_flow_mods ctx ~switch_id
          (Api.change_flow_mods ~known:false change)))
    result.changes

(* ------------------------------------------------------------------ *)
(* Consistent updates of globally-compiled programs.

   Policies produced by {!Netkat.Global.compile} already discipline the
   VLAN field: every forwarding rule matches either the untagged ingress
   traffic or one of the program's own tags, and distinct compilations
   with distinct [base_tag]s occupy disjoint tag spaces.  Such programs
   are therefore self-versioning: installing the new program's tagged
   (internal) rules first cannot affect live traffic, flipping the
   untagged (ingress) rules by priority switches packets atomically to
   the new program, and the old rules can be drained afterwards.  They
   run on the same two per-version streams as {!install}/{!two_phase},
   split by [keep] on the untagged-vlan test instead of by restriction.

   Contract: the caller passes pre-compiled local policies whose tag
   spaces are disjoint (e.g. [Global.compile ~base_tag:3000] vs [4000]).
   Fall-through drop rules are not installed (the switch default already
   drops), which is what makes interleaving the two programs' rule sets
   safe. *)

let global_streams t ctx pol ~version =
  let base = band_base version in
  let fdd = Fdd.of_policy pol in
  let untagged (pattern : Flow.Pattern.t) =
    pattern.vlan = Some Packet.Fields.vlan_none
  in
  let part path ~ingress ~base () =
    install_stream t ctx ~stream:(stream_key path version) ~cookie:version
      ~keep:(fun (pattern, actions) ->
        actions <> [] && untagged pattern = ingress)
      ~transform:(fun (r : Delta.rule) ->
        { r with priority = base + r.priority })
      fdd
  in
  ( part "internal" ~ingress:false ~base,
    part "ingress" ~ingress:true ~base:(base + Delta.span) )

let global_install t ctx pol =
  if t.version = 0 then t.version <- 1;
  in_place t ctx (global_streams t ctx pol ~version:t.version)

let global_two_phase t ctx pol =
  let old_version = t.version in
  let streams = global_streams t ctx pol ~version:(old_version + 1) in
  t.version <- old_version + 1;
  transition t ctx ~old_version streams

let install_plain t ctx pol =
  let previous = Hashtbl.find_opt t.streams "plain" in
  let result =
    Delta.compile ~switches:(Topo.Topology.switch_ids (Api.topology ctx))
      previous (Fdd.of_policy pol)
  in
  Hashtbl.replace t.streams "plain" result.snapshot;
  t.skipped_switches <- t.skipped_switches + result.skipped;
  let full, delta = Api.push_delta ctx ~previous result in
  t.installs <- t.installs + full;
  t.delta_mods <- t.delta_mods + delta;
  Api.schedule ctx ~delay:0.05 (fun () -> observe_occupancy t ctx)
