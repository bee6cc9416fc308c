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

type program = Local of Syntax.pol | Global of Syntax.pol

type t = {
  drain : float;  (* seconds before old rules are removed *)
  streams : (string, Delta.snapshot) Hashtbl.t;
      (* {!install_plain}'s snapshot, under ["plain"]; a version's
         streams compile from scratch and keep none *)
  pushed : (int, (int, unit) Hashtbl.t) Hashtbl.t;
      (* cookie → switches that actually received rules under it;
         [delete_version] consults this to leave the rest alone *)
  mutable version : int;
  mutable installs : int;
  mutable peak_rules : int;
  mutable updates_done : int;
  mutable skipped_switches : int;
  mutable delta_mods : int;
}

let create ?(drain = 0.5) () =
  { drain; streams = Hashtbl.create 8; pushed = Hashtbl.create 8;
    version = 0; installs = 0; peak_rules = 0; updates_done = 0;
    skipped_switches = 0; delta_mods = 0 }

let version t = t.version
let installs t = t.installs
let peak_rules t = t.peak_rules

let set_version t v = t.version <- v
let updates_done t = t.updates_done
let skipped_switches t = t.skipped_switches
let delta_mods t = t.delta_mods

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

(* Compile one stream of a version from scratch through {!Delta.compile}
   (with its own [keep]/[transform]) and push every switch's rules under
   [cookie] as adds only ({!Api.change_flow_mods} with [~known:true]).
   Both streams of one version share the version's cookie, so
   {!Api.push_delta}'s cookie-scoped replacement would make the ingress
   push delete the internal rules pushed just before it; the cookie is
   fresh, so its adds alone are a full install.  A switch with no rule
   in the stream gets no message at all. *)
let install_stream t ctx ~cookie ?keep ~transform fdd =
  let result =
    Delta.compile ?keep ~transform
      ~switches:(Topo.Topology.switch_ids (Api.topology ctx)) None fdd
  in
  List.iter
    (fun (switch_id, change) ->
      match change with
      | Delta.Changed { rules = _ :: _ as rules; _ } ->
        t.installs <- t.installs + List.length rules;
        note_pushed t ~cookie ~switch_id;
        Api.send_flow_mods ctx ~switch_id
          (Api.change_flow_mods ~cookie ~known:true change)
      | Delta.Changed { rules = []; _ } | Delta.Unchanged -> ())
    result.changes

(* Garbage-collect one version: cookie-scoped delete to exactly the
   switches that received rules under that cookie (a switch that never
   did is not touched — the delete would invalidate nothing there, and
   skipping it keeps the control channel quiet). *)
let delete_version t ctx ~cookie =
  match Hashtbl.find_opt t.pushed cookie with
  | None -> ()
  | Some set ->
    List.iter
      (fun sw ->
        let switch_id = Topo.Topology.Node.id sw in
        if Hashtbl.mem set switch_id then
          Api.uninstall ctx ~switch_id ~cookie Flow.Pattern.any)
      (Topo.Topology.switches (Api.topology ctx));
    Hashtbl.remove t.pushed cookie

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
   version may catch the other version's packets.

   - [Local]: the FDD encodes its negative constraints (e.g. "vlan <> u"
     fall-through drops) through intra-table shadowing, which breaks
     when two compiled tables are interleaved at different priority
     bases.  We therefore specialize each part's diagram to the vlan
     value its packets are known to carry (the version tag for the
     internal part, untagged for the ingress part) and stamp that value
     into every emitted pattern — making every single rule, including
     drops, version-specific.
   - [Global]: a {!Netkat.Global.compile}d program already disciplines
     the VLAN field: every forwarding rule matches either the untagged
     ingress traffic or one of the program's own tags, and compilations
     with distinct [base_tag]s occupy disjoint tag spaces, so the
     program is self-versioning.  One diagram is split between the two
     streams by [keep] on the untagged-vlan test.  Fall-through drop
     rules are not installed (the switch default already drops), which
     is what makes interleaving two programs' rule sets safe. *)
let version_streams t ctx program ~version =
  let stream ~base ?keep ~stamp fdd () =
    install_stream t ctx ~cookie:version ?keep
      ~transform:(fun (r : Delta.rule) ->
        { r with priority = base + r.priority; pattern = stamp r.pattern })
      (Lazy.force fdd)
  in
  match program with
  | Local pol ->
    if pol_uses_vlan pol then raise Policy_uses_vlan;
    let base = band_base version and topo = Api.topology ctx in
    let part mk_part ~vlan ~base =
      stream ~base
        ~stamp:(fun (p : Flow.Pattern.t) -> { p with vlan = Some vlan })
        (lazy
          (Fdd.restrict (Packet.Fields.Vlan, vlan)
             (Fdd.of_policy (mk_part topo pol ~version))))
    in
    ( part internal_part ~vlan:version ~base,
      part ingress_part ~vlan:Packet.Fields.vlan_none
        ~base:(base + Delta.span) )
  | Global pol ->
    let base = band_base version and fdd = lazy (Fdd.of_policy pol) in
    let part ~ingress ~base =
      stream ~base ~stamp:Fun.id
        ~keep:(fun ((pattern : Flow.Pattern.t), actions) ->
          actions <> []
          && (pattern.vlan = Some Packet.Fields.vlan_none) = ingress)
        fdd
    in
    ( part ~ingress:false ~base,
      part ~ingress:true ~base:(base + Delta.span) )

(* Per-packet-consistent transition to a fresh version's streams, each
   compiled from scratch (cross-version rules are never byte-identical —
   the band and the tag differ — so a snapshot would have nothing to
   reuse).
   - phase 1: the internal rules, invisible to live traffic;
   - phase 2: once phase 1 has certainly landed (one control latency
     plus slack), flip ingress stamping — the new ingress rules shadow
     the old ones by their higher priority base;
   - phase 3: after [drain], garbage-collect the old version.  Version 0
     is no version: the first transition is the initial install, and
     cookie 0 belongs to {!install_plain}, whose rules are left alone. *)
let transition t ctx program =
  let old_version = t.version in
  let internal, ingress =
    version_streams t ctx program ~version:(old_version + 1)
  in
  t.version <- old_version + 1;
  internal ();
  Api.schedule ctx ~delay:0.01 (fun () ->
    ingress ();
    (* sample occupancy at its peak: both versions fully installed *)
    Api.schedule ctx ~delay:0.01 (fun () -> observe_occupancy t ctx);
    if old_version > 0 then
      Api.schedule ctx ~delay:t.drain (fun () ->
        delete_version t ctx ~cookie:old_version;
        t.updates_done <- t.updates_done + 1))

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
