type tcp = {
  tcp_src : int;
  tcp_dst : int;
  seq : int;
  ack : int;
  flags : int;
  window : int;
  tcp_payload : bytes;
}

type udp = { udp_src : int; udp_dst : int; udp_payload : bytes }

type icmp = { icmp_type : int; icmp_code : int; icmp_payload : bytes }

type ip_payload =
  | Tcp of tcp
  | Udp of udp
  | Icmp of icmp
  | Ip_raw of int * bytes

type ipv4 = {
  ip_src : Ipv4.t;
  ip_dst : Ipv4.t;
  ttl : int;
  ident : int;
  dscp : int;
  ip_payload : ip_payload;
}

type arp_op = Arp_request | Arp_reply

type arp = {
  op : arp_op;
  sha : Mac.t;
  spa : Ipv4.t;
  tha : Mac.t;
  tpa : Ipv4.t;
}

type eth_payload =
  | Ip of ipv4
  | Arp of arp
  | Eth_raw of int * bytes

type t = {
  eth_src : Mac.t;
  eth_dst : Mac.t;
  vlan : int option;
  eth_payload : eth_payload;
}

let ethertype_ip = 0x0800
let ethertype_arp = 0x0806
let ethertype_vlan = 0x8100
let proto_icmp = 1
let proto_tcp = 6
let proto_udp = 17

let ip_proto_of_payload = function
  | Tcp _ -> proto_tcp
  | Udp _ -> proto_udp
  | Icmp _ -> proto_icmp
  | Ip_raw (p, _) -> p

let ethertype_of_payload = function
  | Ip _ -> ethertype_ip
  | Arp _ -> ethertype_arp
  | Eth_raw (ty, _) -> ty

let to_headers ~switch ~in_port t =
  let base =
    { Headers.default with
      switch; in_port;
      eth_src = t.eth_src; eth_dst = t.eth_dst;
      eth_type = ethertype_of_payload t.eth_payload;
      vlan = (match t.vlan with None -> Fields.vlan_none | Some v -> v) }
  in
  match t.eth_payload with
  | Arp a ->
    { base with
      ip4_src = a.spa; ip4_dst = a.tpa;
      ip_proto = (match a.op with Arp_request -> 1 | Arp_reply -> 2) }
  | Eth_raw _ -> base
  | Ip ip ->
    let base =
      { base with
        ip4_src = ip.ip_src; ip4_dst = ip.ip_dst;
        ip_proto = ip_proto_of_payload ip.ip_payload }
    in
    (match ip.ip_payload with
     | Tcp tcp -> { base with tp_src = tcp.tcp_src; tp_dst = tcp.tcp_dst }
     | Udp udp -> { base with tp_src = udp.udp_src; tp_dst = udp.udp_dst }
     | Icmp ic -> { base with tp_src = ic.icmp_type; tp_dst = ic.icmp_code }
     | Ip_raw _ -> base)

let size t =
  let ip_payload_size = function
    | Tcp tcp -> 20 + Bytes.length tcp.tcp_payload
    | Udp udp -> 8 + Bytes.length udp.udp_payload
    | Icmp ic -> 4 + Bytes.length ic.icmp_payload
    | Ip_raw (_, b) -> Bytes.length b
  in
  let payload_size =
    match t.eth_payload with
    | Ip ip -> 20 + ip_payload_size ip.ip_payload
    | Arp _ -> 28
    | Eth_raw (_, b) -> Bytes.length b
  in
  14 + (match t.vlan with None -> 0 | Some _ -> 4) + payload_size

let tcp_packet ?(vlan = None) ?(ttl = 64) ?(payload = Bytes.empty) ~eth_src
    ~eth_dst ~ip_src ~ip_dst ~tp_src ~tp_dst () =
  { eth_src; eth_dst; vlan;
    eth_payload =
      Ip { ip_src; ip_dst; ttl; ident = 0; dscp = 0;
           ip_payload =
             Tcp { tcp_src = tp_src; tcp_dst = tp_dst; seq = 0; ack = 0;
                   flags = 0x02 (* SYN *); window = 65535;
                   tcp_payload = payload } } }

let udp_packet ?(vlan = None) ?(ttl = 64) ?(payload = Bytes.empty)
    ~eth_src ~eth_dst ~ip_src ~ip_dst ~tp_src ~tp_dst () =
  { eth_src; eth_dst; vlan;
    eth_payload =
      Ip { ip_src; ip_dst; ttl; ident = 0; dscp = 0;
           ip_payload =
             Udp { udp_src = tp_src; udp_dst = tp_dst; udp_payload = payload } } }

let icmp_echo ?(reply = false) ?(payload = Bytes.empty)
    ~eth_src ~eth_dst ~ip_src ~ip_dst () =
  { eth_src; eth_dst; vlan = None;
    eth_payload =
      Ip { ip_src; ip_dst; ttl = 64; ident = 0; dscp = 0;
           ip_payload =
             Icmp { icmp_type = (if reply then 0 else 8); icmp_code = 0;
                    icmp_payload = payload } } }

let arp_query ~sha ~spa ~tpa =
  { eth_src = sha; eth_dst = Mac.broadcast; vlan = None;
    eth_payload = Arp { op = Arp_request; sha; spa; tha = 0; tpa } }

let arp_answer ~sha ~spa ~tha ~tpa =
  { eth_src = sha; eth_dst = tha; vlan = None;
    eth_payload = Arp { op = Arp_reply; sha; spa; tha; tpa } }
