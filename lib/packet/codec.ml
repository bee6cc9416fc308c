open Util

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Encoding: each writer fills [b] starting at [off] and returns the
   number of bytes written *)

let write_tcp b off (t : Frame.tcp) =
  let plen = Bytes.length t.tcp_payload in
  (* no length field of its own, but the segment must fit an IPv4
     datagram's 16-bit total *)
  if 20 + plen > 0xffff then fail "tcp: payload too large";
  Bits.set_u16 b off t.tcp_src;
  Bits.set_u16 b (off + 2) t.tcp_dst;
  Bits.set_u32 b (off + 4) t.seq;
  Bits.set_u32 b (off + 8) t.ack;
  (* data offset 5 words, then flags *)
  Bits.set_u16 b (off + 12) ((5 lsl 12) lor (t.flags land 0x1ff));
  Bits.set_u16 b (off + 14) t.window;
  Bits.set_u16 b (off + 16) 0 (* checksum *);
  Bits.set_u16 b (off + 18) 0 (* urgent pointer *);
  Bytes.blit t.tcp_payload 0 b (off + 20) plen;
  20 + plen

let write_udp b off (u : Frame.udp) =
  let len = 8 + Bytes.length u.udp_payload in
  if len > 0xffff then fail "udp: payload too large";
  Bits.set_u16 b off u.udp_src;
  Bits.set_u16 b (off + 2) u.udp_dst;
  Bits.set_u16 b (off + 4) len;
  Bits.set_u16 b (off + 6) 0 (* checksum *);
  Bytes.blit u.udp_payload 0 b (off + 8) (len - 8);
  len

let write_icmp b off (i : Frame.icmp) =
  let plen = Bytes.length i.icmp_payload in
  Bits.set_u8 b off i.icmp_type;
  Bits.set_u8 b (off + 1) i.icmp_code;
  Bits.set_u16 b (off + 2) 0 (* checksum *);
  Bytes.blit i.icmp_payload 0 b (off + 4) plen;
  4 + plen

let ip_payload_size : Frame.ip_payload -> int = function
  | Tcp t -> 20 + Bytes.length t.tcp_payload
  | Udp u -> 8 + Bytes.length u.udp_payload
  | Icmp i -> 4 + Bytes.length i.icmp_payload
  | Ip_raw (_, raw) -> Bytes.length raw

let write_ipv4 b off (ip : Frame.ipv4) =
  let total = 20 + ip_payload_size ip.ip_payload in
  if total > 0xffff then fail "ipv4: payload too large";
  Bits.set_u8 b off 0x45 (* version 4, IHL 5 *);
  Bits.set_u8 b (off + 1) (ip.dscp lsl 2);
  Bits.set_u16 b (off + 2) total;
  Bits.set_u16 b (off + 4) ip.ident;
  Bits.set_u16 b (off + 6) 0 (* flags/fragment *);
  Bits.set_u8 b (off + 8) ip.ttl;
  Bits.set_u8 b (off + 9) (Frame.ip_proto_of_payload ip.ip_payload);
  Bits.set_u16 b (off + 10) 0 (* checksum, patched below *);
  Bits.set_u32 b (off + 12) (Ipv4.to_int ip.ip_src);
  Bits.set_u32 b (off + 16) (Ipv4.to_int ip.ip_dst);
  Bits.set_u16 b (off + 10) (Bits.ones_complement_sum b off 20);
  let body = off + 20 in
  (match ip.ip_payload with
   | Tcp t -> ignore (write_tcp b body t)
   | Udp u -> ignore (write_udp b body u)
   | Icmp i -> ignore (write_icmp b body i)
   | Ip_raw (_, raw) -> Bytes.blit raw 0 b body (Bytes.length raw));
  total

let write_arp b off (a : Frame.arp) =
  Bits.set_u16 b off 1 (* htype ethernet *);
  Bits.set_u16 b (off + 2) Frame.ethertype_ip;
  Bits.set_u8 b (off + 4) 6 (* hlen *);
  Bits.set_u8 b (off + 5) 4 (* plen *);
  Bits.set_u16 b (off + 6) (match a.op with Arp_request -> 1 | Arp_reply -> 2);
  Bits.set_u48 b (off + 8) (Mac.to_int a.sha);
  Bits.set_u32 b (off + 14) (Ipv4.to_int a.spa);
  Bits.set_u48 b (off + 18) (Mac.to_int a.tha);
  Bits.set_u32 b (off + 24) (Ipv4.to_int a.tpa);
  28

let encode_into (t : Frame.t) b off =
  let size = Frame.size t in
  if off < 0 || off + size > Bytes.length b then
    invalid_arg "Codec.encode_into: buffer too small";
  Bits.set_u48 b off (Mac.to_int t.eth_dst);
  Bits.set_u48 b (off + 6) (Mac.to_int t.eth_src);
  let ethertype = Frame.ethertype_of_payload t.eth_payload in
  let body =
    match t.vlan with
    | None ->
      Bits.set_u16 b (off + 12) ethertype;
      off + 14
    | Some vid ->
      Bits.set_u16 b (off + 12) Frame.ethertype_vlan;
      Bits.set_u16 b (off + 14) (vid land 0xfff);
      Bits.set_u16 b (off + 16) ethertype;
      off + 18
  in
  (match t.eth_payload with
   | Ip ip -> ignore (write_ipv4 b body ip)
   | Arp a -> ignore (write_arp b body a)
   | Eth_raw (_, raw) -> Bytes.blit raw 0 b body (Bytes.length raw));
  size

let encode (t : Frame.t) =
  let b = Bytes.create (Frame.size t) in
  ignore (encode_into t b 0);
  b

(* ------------------------------------------------------------------ *)
(* Decoding *)

let sub b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    fail "truncated packet (want %d bytes at %d, have %d)" len off
      (Bytes.length b)
  else Bytes.sub b off len

let decode_tcp b : Frame.tcp =
  if Bytes.length b < 20 then fail "tcp: truncated header";
  let data_off = (Bits.get_u16 b 12 lsr 12) * 4 in
  if data_off < 20 || data_off > Bytes.length b then fail "tcp: bad offset";
  { tcp_src = Bits.get_u16 b 0; tcp_dst = Bits.get_u16 b 2;
    seq = Bits.get_u32 b 4; ack = Bits.get_u32 b 8;
    flags = Bits.get_u16 b 12 land 0x1ff; window = Bits.get_u16 b 14;
    tcp_payload = sub b data_off (Bytes.length b - data_off) }

let decode_udp b : Frame.udp =
  if Bytes.length b < 8 then fail "udp: truncated header";
  let len = Bits.get_u16 b 4 in
  if len < 8 || len > Bytes.length b then fail "udp: bad length %d" len;
  { udp_src = Bits.get_u16 b 0; udp_dst = Bits.get_u16 b 2;
    udp_payload = sub b 8 (len - 8) }

let decode_icmp b : Frame.icmp =
  if Bytes.length b < 4 then fail "icmp: truncated header";
  { icmp_type = Bits.get_u8 b 0; icmp_code = Bits.get_u8 b 1;
    icmp_payload = sub b 4 (Bytes.length b - 4) }

let decode_ipv4 b : Frame.ipv4 =
  if Bytes.length b < 20 then fail "ipv4: truncated header";
  let vi = Bits.get_u8 b 0 in
  if vi lsr 4 <> 4 then fail "ipv4: version %d" (vi lsr 4);
  let ihl = (vi land 0xf) * 4 in
  if ihl < 20 || ihl > Bytes.length b then fail "ipv4: bad IHL";
  if Bits.ones_complement_sum b 0 ihl <> 0 then fail "ipv4: bad checksum";
  let total = Bits.get_u16 b 2 in
  if total < ihl || total > Bytes.length b then fail "ipv4: bad total length";
  let proto = Bits.get_u8 b 9 in
  let body = sub b ihl (total - ihl) in
  let payload : Frame.ip_payload =
    if proto = Frame.proto_tcp then Tcp (decode_tcp body)
    else if proto = Frame.proto_udp then Udp (decode_udp body)
    else if proto = Frame.proto_icmp then Icmp (decode_icmp body)
    else Ip_raw (proto, body)
  in
  { ip_src = Bits.get_u32 b 12; ip_dst = Bits.get_u32 b 16;
    ttl = Bits.get_u8 b 8; ident = Bits.get_u16 b 4;
    dscp = Bits.get_u8 b 1 lsr 2; ip_payload = payload }

let decode_arp b : Frame.arp =
  if Bytes.length b < 28 then fail "arp: truncated";
  if Bits.get_u16 b 0 <> 1 || Bits.get_u16 b 2 <> Frame.ethertype_ip then
    fail "arp: not ethernet/ipv4";
  let op =
    match Bits.get_u16 b 6 with
    | 1 -> Frame.Arp_request
    | 2 -> Frame.Arp_reply
    | n -> fail "arp: op %d" n
  in
  { op; sha = Bits.get_u48 b 8; spa = Bits.get_u32 b 14;
    tha = Bits.get_u48 b 18; tpa = Bits.get_u32 b 24 }

let decode b : Frame.t =
  if Bytes.length b < 14 then fail "ethernet: truncated header";
  let eth_dst = Bits.get_u48 b 0 and eth_src = Bits.get_u48 b 6 in
  let ty = Bits.get_u16 b 12 in
  let vlan, ty, off =
    if ty = Frame.ethertype_vlan then begin
      if Bytes.length b < 18 then fail "vlan: truncated tag";
      (Some (Bits.get_u16 b 14 land 0xfff), Bits.get_u16 b 16, 18)
    end
    else (None, ty, 14)
  in
  let body = sub b off (Bytes.length b - off) in
  let payload : Frame.eth_payload =
    if ty = Frame.ethertype_ip then Ip (decode_ipv4 body)
    else if ty = Frame.ethertype_arp then Arp (decode_arp body)
    else Eth_raw (ty, body)
  in
  { eth_src; eth_dst; vlan; eth_payload = payload }
