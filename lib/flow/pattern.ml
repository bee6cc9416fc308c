open Packet

type t = {
  in_port : int option;
  eth_src : Mac.t option;
  eth_dst : Mac.t option;
  eth_type : int option;
  vlan : int option;
  ip_proto : int option;
  ip4_src : Ipv4.Prefix.t option;
  ip4_dst : Ipv4.Prefix.t option;
  tp_src : int option;
  tp_dst : int option;
}

let any =
  { in_port = None; eth_src = None; eth_dst = None; eth_type = None;
    vlan = None; ip_proto = None; ip4_src = None; ip4_dst = None;
    tp_src = None; tp_dst = None }

let is_any t = t = any

let of_field (f : Fields.t) v =
  match f with
  | Switch -> invalid_arg "Pattern.of_field: Switch is not matchable"
  | In_port -> { any with in_port = Some v }
  | Eth_src -> { any with eth_src = Some v }
  | Eth_dst -> { any with eth_dst = Some v }
  | Eth_type -> { any with eth_type = Some v }
  | Vlan -> { any with vlan = Some v }
  | Ip_proto -> { any with ip_proto = Some v }
  | Ip4_src -> { any with ip4_src = Some (Ipv4.Prefix.host v) }
  | Ip4_dst -> { any with ip4_dst = Some (Ipv4.Prefix.host v) }
  | Tp_src -> { any with tp_src = Some v }
  | Tp_dst -> { any with tp_dst = Some v }

let matches t (h : Headers.t) =
  let exact field value =
    match field with None -> true | Some v -> v = value
  in
  let prefix field value =
    match field with None -> true | Some p -> Ipv4.Prefix.matches p value
  in
  exact t.in_port h.in_port
  && exact t.eth_src h.eth_src
  && exact t.eth_dst h.eth_dst
  && exact t.eth_type h.eth_type
  && exact t.vlan h.vlan
  && exact t.ip_proto h.ip_proto
  && prefix t.ip4_src h.ip4_src
  && prefix t.ip4_dst h.ip4_dst
  && exact t.tp_src h.tp_src
  && exact t.tp_dst h.tp_dst

exception Contradiction

(* Meet of two per-field constraints; raises if unsatisfiable. *)
let meet_exact a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some x, Some y -> if x = y then Some x else raise Contradiction

let meet_prefix a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some p, Some q ->
    if Ipv4.Prefix.subset ~of_:p q then Some q
    else if Ipv4.Prefix.subset ~of_:q p then Some p
    else raise Contradiction

let conj a b =
  match
    { in_port = meet_exact a.in_port b.in_port;
      eth_src = meet_exact a.eth_src b.eth_src;
      eth_dst = meet_exact a.eth_dst b.eth_dst;
      eth_type = meet_exact a.eth_type b.eth_type;
      vlan = meet_exact a.vlan b.vlan;
      ip_proto = meet_exact a.ip_proto b.ip_proto;
      ip4_src = meet_prefix a.ip4_src b.ip4_src;
      ip4_dst = meet_prefix a.ip4_dst b.ip4_dst;
      tp_src = meet_exact a.tp_src b.tp_src;
      tp_dst = meet_exact a.tp_dst b.tp_dst }
  with
  | p -> Some p
  | exception Contradiction -> None

let subsumes ~general t =
  let exact g s =
    match (g, s) with
    | None, _ -> true
    | Some _, None -> false
    | Some a, Some b -> a = b
  in
  let prefix g s =
    match (g, s) with
    | None, _ -> true
    | Some _, None -> false
    | Some gp, Some sp -> Ipv4.Prefix.subset ~of_:gp sp
  in
  exact general.in_port t.in_port
  && exact general.eth_src t.eth_src
  && exact general.eth_dst t.eth_dst
  && exact general.eth_type t.eth_type
  && exact general.vlan t.vlan
  && exact general.ip_proto t.ip_proto
  && prefix general.ip4_src t.ip4_src
  && prefix general.ip4_dst t.ip4_dst
  && exact general.tp_src t.tp_src
  && exact general.tp_dst t.tp_dst

let overlap a b = conj a b <> None

(* ------------------------------------------------------------------ *)
(* Pattern shapes: the basis of tuple-space search.

   The {i shape} of a pattern is the set of fields it constrains, with
   CIDR prefixes bucketed by length.  Every pattern of a given shape
   matches headers by comparing the same masked field tuple, so a flow
   table can keep one hashtable per shape, keyed on that tuple, and
   answer a lookup with one probe per distinct shape instead of one
   comparison per rule (tuple-space search, as in Open vSwitch).  A
   shape doubles as a mask: the flow table's megaflow cache keys each
   verdict on the union of the shapes a lookup probed. *)

type shape = int

let shape_src_shift = 8
let shape_dst_shift = 14

let shape_of t : shape =
  let flag b o = match o with None -> 0 | Some _ -> 1 lsl b in
  let plen shift o =
    match o with
    | None -> 0
    | Some p -> (Ipv4.Prefix.length p + 1) lsl shift
  in
  flag 0 t.in_port lor flag 1 t.eth_src lor flag 2 t.eth_dst
  lor flag 3 t.eth_type lor flag 4 t.vlan lor flag 5 t.ip_proto
  lor flag 6 t.tp_src lor flag 7 t.tp_dst
  lor plen shape_src_shift t.ip4_src
  lor plen shape_dst_shift t.ip4_dst

(* The per-shape prefix masks (0 when the field is unconstrained, so
   unconstrained addresses project to 0 like every other field). *)
let shape_prefix_mask shape shift =
  match (shape lsr shift) land 0x3f with
  | 0 -> 0
  | n -> Ipv4.Prefix.mask_of_length (n - 1)

(* the longer of two shapes' prefix-length fields at [shift] *)
let longer_prefix (a : shape) (b : shape) shift =
  let x = (a lsr shift) land 0x3f and y = (b lsr shift) land 0x3f in
  (if x > y then x else y) lsl shift

let shape_union (a : shape) (b : shape) : shape =
  (a lor b) land 0xff
  lor longer_prefix a b shape_src_shift
  lor longer_prefix a b shape_dst_shift

let shape_project (shape : shape) (h : Headers.t) : Headers.t =
  let f b v = if shape land (1 lsl b) <> 0 then v else 0 in
  { switch = 0;
    in_port = f 0 h.in_port;
    eth_src = f 1 h.eth_src;
    eth_dst = f 2 h.eth_dst;
    eth_type = f 3 h.eth_type;
    vlan = f 4 h.vlan;
    ip_proto = f 5 h.ip_proto;
    ip4_src = h.ip4_src land shape_prefix_mask shape shape_src_shift;
    ip4_dst = h.ip4_dst land shape_prefix_mask shape shape_dst_shift;
    tp_src = f 6 h.tp_src;
    tp_dst = f 7 h.tp_dst }

let shape_key t : Headers.t =
  let v o = Option.value o ~default:0 in
  let net o = match o with None -> 0 | Some p -> Ipv4.Prefix.network p in
  { switch = 0;
    in_port = v t.in_port;
    eth_src = v t.eth_src;
    eth_dst = v t.eth_dst;
    eth_type = v t.eth_type;
    vlan = v t.vlan;
    ip_proto = v t.ip_proto;
    ip4_src = net t.ip4_src;
    ip4_dst = net t.ip4_dst;
    tp_src = v t.tp_src;
    tp_dst = v t.tp_dst }

let weight t =
  let count o = match o with None -> 0 | Some _ -> 1 in
  count t.in_port + count t.eth_src + count t.eth_dst + count t.eth_type
  + count t.vlan + count t.ip_proto + count t.ip4_src + count t.ip4_dst
  + count t.tp_src + count t.tp_dst

let pp fmt t =
  if is_any t then Format.pp_print_string fmt "*"
  else begin
    let parts = ref [] in
    let add name s = parts := Printf.sprintf "%s=%s" name s :: !parts in
    let addi name o = Option.iter (fun v -> add name (string_of_int v)) o in
    addi "tpDst" t.tp_dst;
    addi "tpSrc" t.tp_src;
    Option.iter (fun p -> add "ip4Dst" (Ipv4.Prefix.to_string p)) t.ip4_dst;
    Option.iter (fun p -> add "ip4Src" (Ipv4.Prefix.to_string p)) t.ip4_src;
    addi "ipProto" t.ip_proto;
    addi "vlan" t.vlan;
    Option.iter (fun v -> add "ethType" (Printf.sprintf "0x%04x" v)) t.eth_type;
    Option.iter (fun m -> add "ethDst" (Mac.to_string m)) t.eth_dst;
    Option.iter (fun m -> add "ethSrc" (Mac.to_string m)) t.eth_src;
    addi "port" t.in_port;
    Format.pp_print_string fmt (String.concat "," !parts)
  end

let to_string t = Format.asprintf "%a" pp t
