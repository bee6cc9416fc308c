(* Tests for addresses, header records, frames and the binary codec. *)

open Packet

(* ------------------------------------------------------------------ *)
(* Mac *)

let test_mac_string_roundtrip () =
  let s = "0a:1b:2c:3d:4e:5f" in
  Alcotest.(check string) "roundtrip" s (Mac.to_string (Mac.of_string s))

let test_mac_octets () =
  Alcotest.(check int) "value" 0x0102030405ff
    (Mac.of_octets 1 2 3 4 5 0xff)

let test_mac_classes () =
  Alcotest.(check bool) "broadcast" true (Mac.is_broadcast Mac.broadcast);
  Alcotest.(check bool) "multicast bit" true
    (Mac.is_multicast (Mac.of_string "01:00:5e:00:00:01"));
  Alcotest.(check bool) "unicast" false
    (Mac.is_multicast (Mac.of_string "02:00:00:00:00:01"))

let test_mac_invalid () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "reject %S" s)
        true
        (match Mac.of_string s with
         | exception Invalid_argument _ -> true
         | _ -> false))
    [ "a:b"; "gg:00:00:00:00:00"; "1:2:3:4:5"; "01:02:03:04:05:06:07"; "" ]

let test_mac_host_id () =
  Alcotest.(check string) "derived" "02:00:00:00:01:00"
    (Mac.to_string (Mac.of_host_id 256));
  Alcotest.(check bool) "locally administered, unicast" false
    (Mac.is_multicast (Mac.of_host_id 77))

(* ------------------------------------------------------------------ *)
(* Ipv4 *)

let test_ip_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Ipv4.to_string (Ipv4.of_string s)))
    [ "0.0.0.0"; "255.255.255.255"; "10.1.2.3"; "192.168.0.1" ]

let test_ip_invalid () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "reject %S" s)
        true
        (match Ipv4.of_string s with
         | exception Invalid_argument _ -> true
         | _ -> false))
    [ "1.2.3"; "256.0.0.1"; "a.b.c.d"; "1.2.3.4.5"; "" ]

let test_prefix_matching () =
  let p = Ipv4.Prefix.of_string "10.0.0.0/8" in
  Alcotest.(check bool) "inside" true
    (Ipv4.Prefix.matches p (Ipv4.of_string "10.255.1.2"));
  Alcotest.(check bool) "outside" false
    (Ipv4.Prefix.matches p (Ipv4.of_string "11.0.0.1"));
  let host = Ipv4.Prefix.of_string "10.0.0.1" in
  Alcotest.(check int) "bare address is /32" 32 (Ipv4.Prefix.length host)

let test_prefix_normalization () =
  let p = Ipv4.Prefix.make (Ipv4.of_string "10.1.2.3") 8 in
  Alcotest.(check string) "host bits cleared" "10.0.0.0/8"
    (Ipv4.Prefix.to_string p)

let test_prefix_subset_overlap () =
  let p8 = Ipv4.Prefix.of_string "10.0.0.0/8" in
  let p16 = Ipv4.Prefix.of_string "10.1.0.0/16" in
  let other = Ipv4.Prefix.of_string "192.168.0.0/16" in
  Alcotest.(check bool) "subset" true (Ipv4.Prefix.subset ~of_:p8 p16);
  Alcotest.(check bool) "not subset" false (Ipv4.Prefix.subset ~of_:p16 p8);
  Alcotest.(check bool) "overlap nested" true (Ipv4.Prefix.overlap p8 p16);
  Alcotest.(check bool) "no overlap" false (Ipv4.Prefix.overlap p8 other)

let test_prefix_zero_length () =
  Alcotest.(check bool) "matches everything" true
    (Ipv4.Prefix.matches Ipv4.Prefix.any (Ipv4.of_string "1.2.3.4"))

(* ------------------------------------------------------------------ *)
(* Headers and fields *)

let test_fields_get_set () =
  let h = Headers.default in
  List.iter
    (fun f ->
      let h' = Headers.set h f 42 in
      Alcotest.(check int) (Fields.to_string f) 42 (Headers.get h' f))
    Fields.all

let test_fields_order_stable () =
  (* the FDD variable order depends on this order: lock it down *)
  Alcotest.(check (list int)) "indices" (List.init 11 (fun i -> i))
    (List.map Fields.index Fields.all)

let test_fields_string_roundtrip () =
  List.iter
    (fun f ->
      Alcotest.(check bool) (Fields.to_string f) true
        (Fields.equal f (Fields.of_string (Fields.to_string f))))
    Fields.all

let test_headers_set_does_not_leak () =
  let h = Headers.tcp ~switch:1 ~in_port:2 ~src_host:3 ~dst_host:4
            ~tp_src:5 ~tp_dst:6 in
  let h' = Headers.set h Fields.Tp_dst 99 in
  Alcotest.(check int) "other fields intact" h.tp_src h'.tp_src;
  Alcotest.(check int) "original unchanged" 6 h.tp_dst

(* [Headers.equal] compares field by field; it must agree with the
   structural [=] it replaced (it keys the flow cache and the classifier
   buckets), including on equal headers that are distinct records, and
   equal headers must hash alike.  Field values come from a tiny range
   and [b] is [a] with at most two fields rewritten, so equal pairs are
   common. *)
let prop_headers_equal =
  let gen_headers =
    QCheck.Gen.(
      map
        (fun vs ->
          List.fold_left2 (fun h f v -> Headers.set h f v) Headers.default
            Fields.all vs)
        (list_repeat (List.length Fields.all) (int_bound 2)))
  in
  let gen_edit = QCheck.Gen.(pair (oneofl Fields.all) (int_bound 2)) in
  QCheck.Test.make
    ~name:"Headers.equal = structural equality; equal headers hash alike"
    ~count:500
    (QCheck.make QCheck.Gen.(pair gen_headers (list_size (0 -- 2) gen_edit)))
    (fun (a, edits) ->
      let b =
        List.fold_left (fun h (f, v) -> Headers.set h f v)
          { a with switch = a.switch } edits
      in
      let same = a = b in
      a != b
      && Headers.equal a b = same
      && Headers.equal b a = same
      && Headers.equal a a
      && ((not same) || Headers.hash a = Headers.hash b))

(* ------------------------------------------------------------------ *)
(* Frames and codec *)

let mac1 = Mac.of_string "02:00:00:00:00:01"
let mac2 = Mac.of_string "02:00:00:00:00:02"
let ip1 = Ipv4.of_string "10.0.0.1"
let ip2 = Ipv4.of_string "10.0.0.2"

let frame_eq = Alcotest.testable (fun fmt (_ : Frame.t) ->
  Format.pp_print_string fmt "<frame>") ( = )

let roundtrip name frame =
  Alcotest.check frame_eq name frame (Codec.decode (Codec.encode frame))

let test_codec_tcp () =
  roundtrip "tcp"
    (Frame.tcp_packet ~eth_src:mac1 ~eth_dst:mac2 ~ip_src:ip1 ~ip_dst:ip2
       ~tp_src:1234 ~tp_dst:80 ~payload:(Bytes.of_string "hello") ())

let test_codec_udp () =
  roundtrip "udp"
    (Frame.udp_packet ~eth_src:mac1 ~eth_dst:mac2 ~ip_src:ip1 ~ip_dst:ip2
       ~tp_src:53 ~tp_dst:5353 ~payload:(Bytes.of_string "dns?") ())

let test_codec_icmp () =
  roundtrip "icmp echo"
    (Frame.icmp_echo ~eth_src:mac1 ~eth_dst:mac2 ~ip_src:ip1 ~ip_dst:ip2 ());
  roundtrip "icmp reply"
    (Frame.icmp_echo ~reply:true ~eth_src:mac1 ~eth_dst:mac2 ~ip_src:ip1
       ~ip_dst:ip2 ())

let test_codec_arp () =
  roundtrip "arp request" (Frame.arp_query ~sha:mac1 ~spa:ip1 ~tpa:ip2);
  roundtrip "arp reply"
    (Frame.arp_answer ~sha:mac2 ~spa:ip2 ~tha:mac1 ~tpa:ip1)

let test_codec_vlan () =
  roundtrip "vlan tagged"
    (Frame.tcp_packet ~vlan:(Some 42) ~eth_src:mac1 ~eth_dst:mac2 ~ip_src:ip1
       ~ip_dst:ip2 ~tp_src:1 ~tp_dst:2 ())

let test_codec_raw () =
  roundtrip "unknown ethertype"
    { Frame.eth_src = mac1; eth_dst = mac2; vlan = None;
      eth_payload = Frame.Eth_raw (0x88cc, Bytes.of_string "lldp-ish") };
  roundtrip "unknown ip proto"
    { Frame.eth_src = mac1; eth_dst = mac2; vlan = None;
      eth_payload =
        Frame.Ip
          { ip_src = ip1; ip_dst = ip2; ttl = 3; ident = 9; dscp = 1;
            ip_payload = Frame.Ip_raw (89, Bytes.of_string "ospf") } }

let test_codec_size_agrees () =
  let f =
    Frame.tcp_packet ~eth_src:mac1 ~eth_dst:mac2 ~ip_src:ip1 ~ip_dst:ip2
      ~tp_src:1 ~tp_dst:2 ~payload:(Bytes.make 37 'x') ()
  in
  Alcotest.(check int) "size" (Bytes.length (Codec.encode f)) (Frame.size f);
  let v =
    Frame.tcp_packet ~vlan:(Some 7) ~eth_src:mac1 ~eth_dst:mac2 ~ip_src:ip1
      ~ip_dst:ip2 ~tp_src:1 ~tp_dst:2 ()
  in
  Alcotest.(check int) "vlan size" (Bytes.length (Codec.encode v)) (Frame.size v)

let test_codec_rejects_corrupt () =
  let f =
    Frame.tcp_packet ~eth_src:mac1 ~eth_dst:mac2 ~ip_src:ip1 ~ip_dst:ip2
      ~tp_src:1 ~tp_dst:2 ()
  in
  let b = Codec.encode f in
  (* corrupt the IP checksum *)
  Bytes.set b 24 (Char.chr (Char.code (Bytes.get b 24) lxor 0xff));
  Alcotest.(check bool) "bad checksum rejected" true
    (match Codec.decode b with
     | exception Codec.Parse_error _ -> true
     | _ -> false);
  Alcotest.(check bool) "truncated rejected" true
    (match Codec.decode (Bytes.sub (Codec.encode f) 0 20) with
     | exception Codec.Parse_error _ -> true
     | _ -> false)

let test_to_headers () =
  let f =
    Frame.tcp_packet ~eth_src:mac1 ~eth_dst:mac2 ~ip_src:ip1 ~ip_dst:ip2
      ~tp_src:1234 ~tp_dst:80 ()
  in
  let h = Frame.to_headers ~switch:7 ~in_port:3 f in
  Alcotest.(check int) "switch" 7 h.switch;
  Alcotest.(check int) "port" 3 h.in_port;
  Alcotest.(check int) "ethtype" 0x0800 h.eth_type;
  Alcotest.(check int) "proto" 6 h.ip_proto;
  Alcotest.(check int) "tp_dst" 80 h.tp_dst;
  Alcotest.(check int) "vlan none" Fields.vlan_none h.vlan

let test_to_headers_arp () =
  let f = Frame.arp_query ~sha:mac1 ~spa:ip1 ~tpa:ip2 in
  let h = Frame.to_headers ~switch:1 ~in_port:1 f in
  Alcotest.(check int) "ethtype arp" 0x0806 h.eth_type;
  Alcotest.(check int) "spa as ip4src" ip1 h.ip4_src;
  Alcotest.(check int) "tpa as ip4dst" ip2 h.ip4_dst

(* property: random frames roundtrip *)

let gen_frame =
  let open QCheck.Gen in
  let mac = map (fun i -> 0x020000000000 lor i) (int_bound 0xffffff) in
  let ip = int_bound 0xffffff in
  let small_payload = map Bytes.of_string (string_size (0 -- 32)) in
  let vlan = opt (int_range 1 4094) in
  let tcp =
    map2
      (fun (src, dst) ((a, b), payload) ->
        Frame.tcp_packet ~eth_src:src ~eth_dst:dst ~ip_src:a ~ip_dst:b
          ~tp_src:1 ~tp_dst:2 ~payload ())
      (pair mac mac)
      (pair (pair ip ip) small_payload)
  in
  let udp =
    map2
      (fun (src, dst) ((a, b), payload) ->
        Frame.udp_packet ~eth_src:src ~eth_dst:dst ~ip_src:a ~ip_dst:b
          ~tp_src:7 ~tp_dst:9 ~payload ())
      (pair mac mac)
      (pair (pair ip ip) small_payload)
  in
  let arp =
    map2
      (fun (src, dst) (a, b) ->
        if a mod 2 = 0 then Frame.arp_query ~sha:src ~spa:a ~tpa:b
        else Frame.arp_answer ~sha:src ~spa:a ~tha:dst ~tpa:b)
      (pair mac mac) (pair ip ip)
  in
  let with_vlan g = map2 (fun v (f : Frame.t) -> { f with vlan = v }) vlan g in
  oneof [ with_vlan tcp; with_vlan udp; arp ]

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec roundtrips random frames" ~count:500
    (QCheck.make gen_frame)
    (fun f -> Codec.decode (Codec.encode f) = f)

(* the same property through the single-pass path: encode_into a dirty
   buffer at an offset, decode the exact slice back *)
let prop_codec_roundtrip_pooled =
  QCheck.Test.make ~name:"pooled encode_into roundtrips random frames"
    ~count:500 (QCheck.make gen_frame)
    (fun f ->
      let buf = Bytes.create (Frame.size f + 7) in
      (* poison so any byte encode_into fails to write is caught *)
      Bytes.fill buf 0 (Bytes.length buf) '\xff';
      let n = Codec.encode_into f buf 7 in
      n = Frame.size f
      && Bytes.equal (Bytes.sub buf 7 n) (Codec.encode f)
      && Codec.decode (Bytes.sub buf 7 n) = f)

(* regression: payloads that overflow a 16-bit wire length must raise
   instead of truncating silently (corrupt frames used to decode as a
   different packet) *)
let test_encode_rejects_oversize () =
  let rejects name f =
    Alcotest.(check bool) name true
      (match Codec.encode f with
       | exception Codec.Parse_error _ -> true
       | _ -> false)
  in
  let huge = Bytes.create 0x10000 in
  rejects "tcp payload over ipv4 total"
    (Frame.tcp_packet ~eth_src:mac1 ~eth_dst:mac2 ~ip_src:ip1 ~ip_dst:ip2
       ~tp_src:1 ~tp_dst:2 ~payload:(Bytes.create (0x10000 - 20)) ());
  rejects "udp length over u16"
    (Frame.udp_packet ~eth_src:mac1 ~eth_dst:mac2 ~ip_src:ip1 ~ip_dst:ip2
       ~tp_src:1 ~tp_dst:2 ~payload:(Bytes.create (0x10000 - 8)) ());
  rejects "raw ip payload over ipv4 total"
    { eth_src = mac1; eth_dst = mac2; vlan = None;
      eth_payload =
        Ip
          { ip_src = ip1; ip_dst = ip2; ttl = 64; ident = 0; dscp = 0;
            ip_payload = Ip_raw (99, huge) } };
  (* the largest encodable payloads still encode *)
  let fits =
    Frame.udp_packet ~eth_src:mac1 ~eth_dst:mac2 ~ip_src:ip1 ~ip_dst:ip2
      ~tp_src:1 ~tp_dst:2 ~payload:(Bytes.create (0xffff - 20 - 8)) ()
  in
  Alcotest.(check bool) "max udp payload encodes" true
    (Codec.decode (Codec.encode fits) = fits)

let test_encode_into_bounds () =
  let f =
    Frame.udp_packet ~eth_src:mac1 ~eth_dst:mac2 ~ip_src:ip1 ~ip_dst:ip2
      ~tp_src:1 ~tp_dst:2 ()
  in
  let small = Bytes.create (Frame.size f - 1) in
  Alcotest.(check bool) "short buffer rejected" true
    (match Codec.encode_into f small 0 with
     | exception Invalid_argument _ -> true
     | _ -> false);
  let exact = Bytes.create (Frame.size f) in
  Alcotest.(check bool) "negative offset rejected" true
    (match Codec.encode_into f exact (-1) with
     | exception Invalid_argument _ -> true
     | _ -> false);
  Alcotest.(check int) "exact fit writes size" (Frame.size f)
    (Codec.encode_into f exact 0)

let suites =
  [ ( "packet.mac",
      [ Alcotest.test_case "string roundtrip" `Quick test_mac_string_roundtrip;
        Alcotest.test_case "octets" `Quick test_mac_octets;
        Alcotest.test_case "broadcast/multicast" `Quick test_mac_classes;
        Alcotest.test_case "invalid strings" `Quick test_mac_invalid;
        Alcotest.test_case "host-id addresses" `Quick test_mac_host_id ] );
    ( "packet.ipv4",
      [ Alcotest.test_case "string roundtrip" `Quick test_ip_string_roundtrip;
        Alcotest.test_case "invalid strings" `Quick test_ip_invalid;
        Alcotest.test_case "prefix matching" `Quick test_prefix_matching;
        Alcotest.test_case "prefix normalization" `Quick
          test_prefix_normalization;
        Alcotest.test_case "prefix subset/overlap" `Quick
          test_prefix_subset_overlap;
        Alcotest.test_case "zero-length prefix" `Quick test_prefix_zero_length ] );
    ( "packet.headers",
      [ Alcotest.test_case "get/set all fields" `Quick test_fields_get_set;
        Alcotest.test_case "field order locked" `Quick test_fields_order_stable;
        Alcotest.test_case "field name roundtrip" `Quick
          test_fields_string_roundtrip;
        Alcotest.test_case "set is functional" `Quick
          test_headers_set_does_not_leak;
        QCheck_alcotest.to_alcotest prop_headers_equal ] );
    ( "packet.codec",
      [ Alcotest.test_case "tcp roundtrip" `Quick test_codec_tcp;
        Alcotest.test_case "udp roundtrip" `Quick test_codec_udp;
        Alcotest.test_case "icmp roundtrip" `Quick test_codec_icmp;
        Alcotest.test_case "arp roundtrip" `Quick test_codec_arp;
        Alcotest.test_case "vlan roundtrip" `Quick test_codec_vlan;
        Alcotest.test_case "raw payloads" `Quick test_codec_raw;
        Alcotest.test_case "size agrees with encode" `Quick
          test_codec_size_agrees;
        Alcotest.test_case "rejects corrupt input" `Quick
          test_codec_rejects_corrupt;
        Alcotest.test_case "to_headers projection" `Quick test_to_headers;
        Alcotest.test_case "to_headers for arp" `Quick test_to_headers_arp;
        Alcotest.test_case "rejects oversize payloads" `Quick
          test_encode_rejects_oversize;
        Alcotest.test_case "encode_into bounds" `Quick test_encode_into_bounds;
        QCheck_alcotest.to_alcotest prop_codec_roundtrip;
        QCheck_alcotest.to_alcotest prop_codec_roundtrip_pooled ] ) ]
