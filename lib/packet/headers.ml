type t = {
  switch : int;
  in_port : int;
  eth_src : Mac.t;
  eth_dst : Mac.t;
  eth_type : int;
  vlan : int;
  ip_proto : int;
  ip4_src : Ipv4.t;
  ip4_dst : Ipv4.t;
  tp_src : int;
  tp_dst : int;
}

let default =
  { switch = 0; in_port = 0; eth_src = 0; eth_dst = 0; eth_type = 0;
    vlan = Fields.vlan_none; ip_proto = 0; ip4_src = 0; ip4_dst = 0;
    tp_src = 0; tp_dst = 0 }

let get t (f : Fields.t) =
  match f with
  | Switch -> t.switch | In_port -> t.in_port | Eth_src -> t.eth_src
  | Eth_dst -> t.eth_dst | Eth_type -> t.eth_type | Vlan -> t.vlan
  | Ip_proto -> t.ip_proto | Ip4_src -> t.ip4_src | Ip4_dst -> t.ip4_dst
  | Tp_src -> t.tp_src | Tp_dst -> t.tp_dst

let set t (f : Fields.t) v =
  match f with
  | Switch -> { t with switch = v }
  | In_port -> { t with in_port = v }
  | Eth_src -> { t with eth_src = v }
  | Eth_dst -> { t with eth_dst = v }
  | Eth_type -> { t with eth_type = v }
  | Vlan -> { t with vlan = v }
  | Ip_proto -> { t with ip_proto = v }
  | Ip4_src -> { t with ip4_src = v }
  | Ip4_dst -> { t with ip4_dst = v }
  | Tp_src -> { t with tp_src = v }
  | Tp_dst -> { t with tp_dst = v }

(* Field by field: this is the key equality of the flow cache and the
   classifier buckets, where the polymorphic [=] would cost a C call
   walking the record. *)
let equal (a : t) (b : t) =
  a == b
  || a.switch = b.switch && a.in_port = b.in_port && a.eth_src = b.eth_src
     && a.eth_dst = b.eth_dst && a.eth_type = b.eth_type && a.vlan = b.vlan
     && a.ip_proto = b.ip_proto && a.ip4_src = b.ip4_src
     && a.ip4_dst = b.ip4_dst && a.tp_src = b.tp_src && a.tp_dst = b.tp_dst

let compare (a : t) (b : t) = compare a b

let hash (t : t) =
  let mix h v = (h * 31) + v in
  mix
    (mix
       (mix
          (mix
             (mix
                (mix
                   (mix
                      (mix (mix (mix t.switch t.in_port) t.eth_src) t.eth_dst)
                      t.eth_type)
                   t.vlan)
                t.ip_proto)
             t.ip4_src)
          t.ip4_dst)
       t.tp_src)
    t.tp_dst
  land max_int

let pp fmt t =
  Format.fprintf fmt
    "{sw=%d port=%d %a->%a type=0x%04x vlan=%s proto=%d %a:%d->%a:%d}"
    t.switch t.in_port Mac.pp t.eth_src Mac.pp t.eth_dst t.eth_type
    (if t.vlan = Fields.vlan_none then "-" else string_of_int t.vlan)
    t.ip_proto Ipv4.pp t.ip4_src t.tp_src Ipv4.pp t.ip4_dst t.tp_dst

let tcp ~switch ~in_port ~src_host ~dst_host ~tp_src ~tp_dst =
  { switch; in_port;
    eth_src = Mac.of_host_id src_host; eth_dst = Mac.of_host_id dst_host;
    eth_type = 0x0800; vlan = Fields.vlan_none; ip_proto = 6;
    ip4_src = Ipv4.of_host_id src_host; ip4_dst = Ipv4.of_host_id dst_host;
    tp_src; tp_dst }
