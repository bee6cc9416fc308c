type t =
  | Switch
  | In_port
  | Eth_src
  | Eth_dst
  | Eth_type
  | Vlan
  | Ip_proto
  | Ip4_src
  | Ip4_dst
  | Tp_src
  | Tp_dst

let vlan_none = 0xffff

let all =
  [ Switch; In_port; Eth_src; Eth_dst; Eth_type; Vlan; Ip_proto;
    Ip4_src; Ip4_dst; Tp_src; Tp_dst ]

let index = function
  | Switch -> 0 | In_port -> 1 | Eth_src -> 2 | Eth_dst -> 3 | Eth_type -> 4
  | Vlan -> 5 | Ip_proto -> 6 | Ip4_src -> 7 | Ip4_dst -> 8 | Tp_src -> 9
  | Tp_dst -> 10

let compare a b = compare (index a) (index b)

let equal a b = index a = index b

let to_string = function
  | Switch -> "switch" | In_port -> "port" | Eth_src -> "ethSrc"
  | Eth_dst -> "ethDst" | Eth_type -> "ethType" | Vlan -> "vlan"
  | Ip_proto -> "ipProto" | Ip4_src -> "ip4Src" | Ip4_dst -> "ip4Dst"
  | Tp_src -> "tpSrc" | Tp_dst -> "tpDst"

let of_string = function
  | "switch" -> Switch | "port" -> In_port | "ethSrc" -> Eth_src
  | "ethDst" -> Eth_dst | "ethType" -> Eth_type | "vlan" -> Vlan
  | "ipProto" -> Ip_proto | "ip4Src" -> Ip4_src | "ip4Dst" -> Ip4_dst
  | "tpSrc" -> Tp_src | "tpDst" -> Tp_dst
  | s -> invalid_arg ("Fields.of_string: " ^ s)

let pp fmt t = Format.pp_print_string fmt (to_string t)

let pp_value fmt (f, v) =
  match f with
  | Eth_src | Eth_dst -> Mac.pp fmt v
  | Ip4_src | Ip4_dst -> Ipv4.pp fmt v
  | Switch | In_port | Eth_type | Vlan | Ip_proto | Tp_src | Tp_dst ->
    Format.pp_print_int fmt v
