type config = {
  seed : int;
  (** seeds the control-verdict stream and keys the per-link verdict
      streams: each link's stream is keyed on [(seed, egress node,
      port)] and consumed only by the network that owns that egress, so
      a sharded run replays the single-domain verdicts byte-identically
      at any shard count. *)
  drop : float;    (** per-transmission drop probability, [0, 1] *)
  dup : float;     (** per-transmission duplicate probability, [0, 1] *)
  jitter : float;  (** max extra one-way latency, uniform in [0, jitter) s *)
  link_drop : float;     (** per-packet data-link drop probability, [0, 1] *)
  link_corrupt : float;  (** per-packet corruption (CRC-fail) probability *)
  link_reorder : float;  (** per-packet reorder probability, [0, 1] *)
}

type incident =
  | Link_flap of {
      node : Topo.Topology.Node.t;
      port : int;
      at : float;
      duration : float;
    }
  | Switch_outage of {
      switch_id : int;
      at : float;
      duration : float;
    }
  | Ctl_outage of {
      switch_id : int;
      at : float;
      duration : float;
    }
  | Controller_outage of {
      controller_id : int;
      at : float;
      duration : float;
    }

type t = {
  config : config;
  prng : Util.Prng.t;
  mutable drops : int;
  mutable dups : int;
  mutable jitters : int;   (* transmissions that drew a non-zero delay *)
  mutable decisions : int; (* transmissions consulted *)
  mutable link_drops : int;
  mutable link_corrupts : int;
  mutable link_reorders : int;
  mutable link_decisions : int; (* data-packet transmissions consulted *)
}

let default_seed = 0xC4A05

let make_config ?(seed = default_seed) ?(drop = 0.0) ?(dup = 0.0)
    ?(jitter = 0.0) ?(link_drop = 0.0) ?(link_corrupt = 0.0)
    ?(link_reorder = 0.0) () =
  let check name p =
    if not (p >= 0.0 && p <= 1.0) then
      invalid_arg (Printf.sprintf "Fault.create: %s out of [0,1]" name)
  in
  check "drop" drop;
  check "dup" dup;
  check "link_drop" link_drop;
  check "link_corrupt" link_corrupt;
  check "link_reorder" link_reorder;
  if not (Float.is_finite jitter && jitter >= 0.0) then
    invalid_arg "Fault.create: jitter not a finite value >= 0";
  { seed; drop; dup; jitter; link_drop; link_corrupt; link_reorder }

let of_config config =
  { config; prng = Util.Prng.create config.seed;
    drops = 0; dups = 0; jitters = 0; decisions = 0;
    link_drops = 0; link_corrupts = 0; link_reorders = 0; link_decisions = 0 }

let create ?seed ?drop ?dup ?jitter ?link_drop ?link_corrupt ?link_reorder
    () =
  of_config
    (make_config ?seed ?drop ?dup ?jitter ?link_drop ?link_corrupt
       ?link_reorder ())

let derive_prng t = Util.Prng.split t.prng

(* ------------------------------------------------------------------ *)
(* Per-transmission verdicts *)

type verdict = {
  v_drop : bool;
  v_dup : bool;
  v_delay : float;
  v_dup_delay : float;
}

let decide t =
  t.decisions <- t.decisions + 1;
  let c = t.config in
  let drop = c.drop > 0.0 && Util.Prng.float t.prng 1.0 < c.drop in
  let dup = c.dup > 0.0 && Util.Prng.float t.prng 1.0 < c.dup in
  let jit () = if c.jitter > 0.0 then Util.Prng.float t.prng c.jitter else 0.0 in
  let d1 = jit () in
  let d2 = jit () in
  if drop then begin
    t.drops <- t.drops + 1;
    { v_drop = true; v_dup = false; v_delay = 0.0; v_dup_delay = 0.0 }
  end
  else begin
    if dup then t.dups <- t.dups + 1;
    if d1 > 0.0 then t.jitters <- t.jitters + 1;
    { v_drop = false; v_dup = dup; v_delay = d1; v_dup_delay = d2 }
  end

(* ------------------------------------------------------------------ *)
(* Per-link data-packet verdicts *)

let has_link_chaos t =
  let c = t.config in
  c.link_drop > 0.0 || c.link_corrupt > 0.0 || c.link_reorder > 0.0

type link_verdict = {
  lv_drop : bool;
  lv_corrupt : bool;
  lv_extra : float;
}

let clean_verdict = { lv_drop = false; lv_corrupt = false; lv_extra = 0.0 }

(* Per-link stream key: the egress (node, port) pair.  Hosts and
   switches share an id space, so spread them onto distinct odd-mixed
   residues before folding in the seed. *)
let link_stream_seed t ~(node : Topo.Topology.Node.t) ~port =
  let node_key =
    match node with
    | Topo.Topology.Node.Switch i -> (2 * i) + 1
    | Topo.Topology.Node.Host i -> 2 * i
  in
  (t.config.seed * 0x9E3779B9)
  lxor (node_key * 0x85EBCA6B)
  lxor (port * 0xC2B2AE3D)

let link_prng t ~node ~port =
  Util.Prng.create (link_stream_seed t ~node ~port)

let decide_link t prng ~delay =
  t.link_decisions <- t.link_decisions + 1;
  let c = t.config in
  let drop = c.link_drop > 0.0 && Util.Prng.float prng 1.0 < c.link_drop in
  let corrupt =
    c.link_corrupt > 0.0 && Util.Prng.float prng 1.0 < c.link_corrupt
  in
  let reorder =
    c.link_reorder > 0.0 && Util.Prng.float prng 1.0 < c.link_reorder
  in
  let extra =
    if c.link_reorder > 0.0 then Util.Prng.float prng (4.0 *. delay) else 0.0
  in
  if drop then begin
    t.link_drops <- t.link_drops + 1;
    { clean_verdict with lv_drop = true }
  end
  else if corrupt then begin
    t.link_corrupts <- t.link_corrupts + 1;
    { clean_verdict with lv_corrupt = true }
  end
  else if reorder then begin
    t.link_reorders <- t.link_reorders + 1;
    { clean_verdict with lv_extra = extra }
  end
  else clean_verdict

(* ------------------------------------------------------------------ *)
(* Counters *)

let drops t = t.drops
let dups t = t.dups
let link_decisions t = t.link_decisions

let pp_stats fmt t =
  Format.fprintf fmt "chaos(seed=%#x drop=%d dup=%d jitter=%d of %d sends)"
    t.config.seed t.drops t.dups t.jitters t.decisions;
  if has_link_chaos t || t.link_decisions > 0 then
    Format.fprintf fmt
      " link(drop=%d corrupt=%d reorder=%d of %d packets)"
      t.link_drops t.link_corrupts t.link_reorders t.link_decisions
