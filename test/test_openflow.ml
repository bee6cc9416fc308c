(* Tests for the control-protocol messages and their wire codec. *)

open Openflow

let payload : Message.payload =
  { headers =
      Packet.Headers.tcp ~switch:3 ~in_port:2 ~src_host:5 ~dst_host:9
        ~tp_src:1234 ~tp_dst:80;
    size = 1000; tag = 42 }

let pattern =
  { Flow.Pattern.any with
    eth_dst = Some (Packet.Mac.of_host_id 9);
    ip4_dst = Some (Packet.Ipv4.Prefix.of_string "10.0.0.0/8");
    tp_dst = Some 80 }

let group : Flow.Action.group =
  [ [ Set_field (Packet.Fields.Vlan, 100); Output (Physical 4) ];
    [ Output Flood ]; [ Output Controller ]; [ Output In_port_out ] ]

let msg_eq = Alcotest.testable
    (fun fmt (m : Message.t) -> Message.pp fmt m) ( = )

let roundtrip ?(xid = 77) name msg =
  let got_xid, got = Wire.decode (Wire.encode ~xid msg) in
  Alcotest.(check int) (name ^ " xid") xid got_xid;
  Alcotest.check msg_eq name msg got

let test_simple_messages () =
  List.iter
    (fun (name, m) -> roundtrip name m)
    [ ("hello", Message.Hello);
      ("features_request", Message.Features_request);
      ("barrier_request", Message.Barrier_request);
      ("barrier_reply", Message.Barrier_reply);
      ("echo_request", Message.Echo_request "ping!");
      ("echo_reply", Message.Echo_reply "") ]

let test_features_reply () =
  roundtrip "features_reply"
    (Message.Features_reply { datapath_id = 12; port_list = [ 1; 2; 5 ] })

let test_packet_in_out () =
  roundtrip "packet_in"
    (Message.Packet_in { in_port = 2; reason = No_match; packet = payload });
  roundtrip "packet_in explicit"
    (Message.Packet_in { in_port = 7; reason = Explicit_send; packet = payload });
  roundtrip "packet_out"
    (Message.Packet_out
       { out_in_port = 3;
         out_actions = [ Set_field (Packet.Fields.Tp_dst, 443); Output Flood ];
         out_packet = payload })

let test_flow_mod () =
  roundtrip "flow_mod add"
    (Message.Flow_mod
       (Message.add_flow ~priority:1000 ~idle_timeout:(Some 12.5)
          ~cookie:99 ~pattern ~actions:group ()));
  roundtrip "flow_mod delete"
    (Message.Flow_mod (Message.delete_flow ~pattern ()));
  roundtrip "flow_mod delete by cookie"
    (Message.Flow_mod (Message.delete_flow ~cookie:(Some 3) ~pattern ()))

let test_port_status () =
  roundtrip "port down"
    (Message.Port_status { ps_port = 4; ps_reason = Port_down });
  roundtrip "port up"
    (Message.Port_status { ps_port = 4; ps_reason = Port_up })

let test_stats () =
  roundtrip "port stats request all"
    (Message.Stats_request (Port_stats_request None));
  roundtrip "port stats request one"
    (Message.Stats_request (Port_stats_request (Some 3)));
  roundtrip "table stats request"
    (Message.Stats_request Table_stats_request);
  roundtrip "port stats reply"
    (Message.Stats_reply
       (Port_stats_reply
          [ { pstat_port = 1; rx_packets = 1; tx_packets = 2; rx_bytes = 3;
              tx_bytes = 4; drops = 5 } ]));
  roundtrip "table stats reply"
    (Message.Stats_reply
       (Table_stats_reply
          { active_rules = 7; table_hits = 8; table_misses = 9;
            cache_hits = 10; cache_misses = 11; cache_invalidations = 12;
            classifier_probes = 13; classifier_shapes = 14 }))

(* regression: values that do not fit their wire field must raise
   Wire_error instead of silently truncating the frame (a >64 KiB echo
   body used to encode a corrupt length prefix) *)
let test_encode_rejects_oversize () =
  let rejects name msg =
    Alcotest.(check bool) name true
      (match Wire.encode ~xid:1 msg with
       | exception Wire.Wire_error _ -> true
       | _ -> false)
  in
  rejects "echo body over 64 KiB"
    (Message.Echo_request (String.make 0x10000 'x'));
  rejects "payload size over u16"
    (Message.Packet_in
       { in_port = 1; reason = No_match;
         packet = { payload with size = 0x10000 } });
  rejects "negative u16" (Message.Port_status { ps_port = -1; ps_reason = Port_up });
  (* a 64 KiB - 1 body still exceeds the 16-bit *frame* length with the
     header; the largest encodable echo is 0xffff - 8 - 2 bytes *)
  let fits = Message.Echo_request (String.make (0xffff - 10) 'x') in
  Alcotest.(check bool) "largest frame still encodes" true
    (match Wire.encode ~xid:1 fits with _ -> true
     | exception Wire.Wire_error _ -> false)

let test_rejects_garbage () =
  let check name b =
    Alcotest.(check bool) name true
      (match Wire.decode b with
       | exception Wire.Wire_error _ -> true
       | _ -> false)
  in
  check "empty" Bytes.empty;
  check "short header" (Bytes.make 4 '\000');
  let good = Wire.encode ~xid:1 Message.Hello in
  let bad_version = Bytes.copy good in
  Bytes.set bad_version 0 '\002';
  check "bad version" bad_version;
  let bad_len = Bytes.copy good in
  Bytes.set bad_len 3 '\099';
  check "bad length" bad_len;
  let trailing = Bytes.cat good (Bytes.make 1 '\000') in
  check "trailing bytes" trailing

(* message type 11 (flow-removed) is retired: a frame in the layout the
   codec once wrote for it (pattern, priority, cookie, reason, packet and
   byte counts) must be rejected, not read as some other message *)
let test_rejects_retired_type () =
  (* a delete's body: command (1), priority (4), pattern, cookie (4),
     idle timeout (4), empty action group (2) *)
  let del =
    Wire.encode ~xid:9 (Message.Flow_mod (Message.delete_flow ~pattern ()))
  in
  let frame =
    Bytes.concat Bytes.empty
      [ Bytes.sub del 0 8; Bytes.sub del 13 (Bytes.length del - 23);
        Bytes.make 25 '\000' ]
  in
  Util.Bits.set_u8 frame 1 11;
  Util.Bits.set_u16 frame 2 (Bytes.length frame);
  Alcotest.check_raises "type 11"
    (Wire.Wire_error "unknown message type 11")
    (fun () -> ignore (Wire.decode frame))

(* flow-mod command 1 (modify) and stats subtype 0 (flow stats, request
   and reply) are retired: a frame carrying one is rejected, not read as
   another command or subtype *)
let test_rejects_retired_subtypes () =
  let retag name msg code expect =
    let b = Wire.encode ~xid:3 msg in
    Util.Bits.set_u8 b 8 code;
    Alcotest.check_raises name (Wire.Wire_error expect) (fun () ->
      ignore (Wire.decode b))
  in
  retag "flow-mod command 1"
    (Message.Flow_mod (Message.add_flow ~pattern ~actions:group ()))
    1 "unknown flow_mod command 1";
  retag "stats request subtype 0"
    (Message.Stats_request (Port_stats_request None))
    0 "unknown stats_request subtype 0";
  retag "stats reply subtype 0"
    (Message.Stats_reply (Port_stats_reply []))
    0 "unknown stats_reply subtype 0"

let test_length_field () =
  let b = Wire.encode ~xid:5 (Message.Echo_request "abc") in
  Alcotest.(check int) "length field equals buffer"
    (Bytes.length b) (Util.Bits.get_u16 b 2)

let test_timeout_encoding_precision () =
  (* timeouts are carried in integer milliseconds *)
  let fm =
    Message.add_flow ~idle_timeout:(Some 0.0305) ~pattern:Flow.Pattern.any
      ~actions:[] ()
  in
  match Wire.decode (Wire.encode ~xid:0 (Message.Flow_mod fm)) with
  | _, Message.Flow_mod fm' ->
    Alcotest.(check (option (float 1e-9))) "30ms survives" (Some 0.030)
      fm'.idle_timeout
  | _ -> Alcotest.fail "wrong message"

(* property: random flow_mods roundtrip *)
let gen_pattern =
  let open QCheck.Gen in
  let field =
    oneofl
      [ Packet.Fields.In_port; Packet.Fields.Eth_src; Packet.Fields.Eth_dst;
        Packet.Fields.Eth_type; Packet.Fields.Vlan; Packet.Fields.Ip_proto;
        Packet.Fields.Ip4_src; Packet.Fields.Ip4_dst; Packet.Fields.Tp_src;
        Packet.Fields.Tp_dst ]
  in
  list_size (0 -- 4) (pair field (int_bound 0xffff)) >|= fun tests ->
  List.fold_left
    (fun pat (f, v) ->
      match Flow.Pattern.conj pat (Flow.Pattern.of_field f v) with
      | Some p -> p
      | None -> pat)
    Flow.Pattern.any tests

let gen_group =
  let open QCheck.Gen in
  let atom =
    oneof
      [ map (fun p -> Flow.Action.Output (Physical p)) (int_bound 100);
        return (Flow.Action.Output Flood);
        return (Flow.Action.Output In_port_out);
        return (Flow.Action.Output Controller);
        map (fun v -> Flow.Action.Set_field (Packet.Fields.Vlan, v))
          (int_bound 4094) ]
  in
  list_size (0 -- 3) (list_size (0 -- 4) atom)

let prop_flow_mod_roundtrip =
  QCheck.Test.make ~name:"random flow_mods roundtrip" ~count:300
    (QCheck.make
       QCheck.Gen.(
         triple gen_pattern gen_group (pair (int_bound 0xffff) (int_bound 1000))))
    (fun (pattern, actions, (priority, cookie)) ->
      let m =
        Message.Flow_mod
          (Message.add_flow ~priority ~cookie ~pattern ~actions ())
      in
      snd (Wire.decode (Wire.encode ~xid:1 m)) = m)

(* ------------------------------------------------------------------ *)
(* batched framing *)

let test_batch_roundtrip () =
  let msgs =
    [ (1, Message.Hello);
      (2,
       Message.Flow_mod
         (Message.add_flow ~priority:7 ~cookie:3 ~pattern ~actions:group ()));
      (3, Message.Echo_request "ping");
      (4, Message.Barrier_request) ]
  in
  let b = Wire.encode_batch msgs in
  Alcotest.(check int) "frame_count" 4 (Wire.frame_count b);
  Alcotest.(check bool) "decode_all roundtrips" true (Wire.decode_all b = msgs);
  (* a batch is one transmission but not one frame: the single-frame
     decoder must reject it rather than drop the tail *)
  Alcotest.(check bool) "single decode rejects batch" true
    (match Wire.decode b with
     | exception Wire.Wire_error _ -> true
     | _ -> false)

let test_batch_singleton_equals_encode () =
  let m =
    Message.Flow_mod (Message.add_flow ~priority:1 ~pattern ~actions:group ())
  in
  Alcotest.(check bytes) "one-message batch == encode"
    (Wire.encode ~xid:9 m)
    (Wire.encode_batch [ (9, m) ]);
  Alcotest.(check bytes) "empty batch is empty" Bytes.empty
    (Wire.encode_batch []);
  Alcotest.(check int) "empty frame_count" 0 (Wire.frame_count Bytes.empty)

let test_batch_rejects_bad_length () =
  let b = Wire.encode_batch [ (1, Message.Hello); (2, Message.Hello) ] in
  (* corrupt the second frame's length so it claims bytes past the end *)
  Util.Bits.set_u16 b 10 64;
  Alcotest.(check bool) "bad inner length rejected" true
    (match Wire.decode_all b with
     | exception Wire.Wire_error _ -> true
     | _ -> false);
  let truncated = Bytes.sub b 0 12 in
  Alcotest.(check bool) "truncated tail rejected" true
    (match Wire.decode_all truncated with
     | exception Wire.Wire_error _ -> true
     | _ -> false)

let prop_batch_roundtrip =
  QCheck.Test.make ~name:"random message batches roundtrip" ~count:200
    (QCheck.make
       QCheck.Gen.(
         list_size (0 -- 12)
           (oneof
              [ return Message.Hello;
                return Message.Barrier_request;
                map (fun s -> Message.Echo_request s) (string_size (0 -- 64));
                map2
                  (fun pattern (actions, priority) ->
                    Message.Flow_mod
                      (Message.add_flow ~priority ~pattern ~actions ()))
                  gen_pattern (pair gen_group (int_bound 0xffff)) ])))
    (fun msgs ->
      let framed = List.mapi (fun i m -> (i + 1, m)) msgs in
      let b = Wire.encode_batch framed in
      Wire.frame_count b = List.length msgs && Wire.decode_all b = framed)

(* strict delete's wire form; registered with its table semantics in
   test_flow.ml's "flow.strict_delete" suite *)
let test_strict_delete_wire () =
  let pattern = Flow.Pattern.of_field Packet.Fields.Tp_dst 80 in
  let m =
    Openflow.Message.Flow_mod
      (Openflow.Message.delete_strict_flow ~priority:7 ~pattern ())
  in
  Alcotest.(check bool) "roundtrips" true
    (snd (Openflow.Wire.decode (Openflow.Wire.encode ~xid:3 m)) = m)

let suites =
  [ ( "openflow.wire",
      [ Alcotest.test_case "simple messages" `Quick test_simple_messages;
        Alcotest.test_case "features reply" `Quick test_features_reply;
        Alcotest.test_case "packet in/out" `Quick test_packet_in_out;
        Alcotest.test_case "flow mod" `Quick test_flow_mod;
        Alcotest.test_case "port status" `Quick test_port_status;
        Alcotest.test_case "stats" `Quick test_stats;
        Alcotest.test_case "rejects garbage" `Quick test_rejects_garbage;
        Alcotest.test_case "rejects retired type 11" `Quick
          test_rejects_retired_type;
        Alcotest.test_case "rejects oversize values" `Quick
          test_encode_rejects_oversize;
        Alcotest.test_case "rejects retired subtypes" `Quick
          test_rejects_retired_subtypes;
        Alcotest.test_case "length field" `Quick test_length_field;
        Alcotest.test_case "timeout precision" `Quick
          test_timeout_encoding_precision;
        Alcotest.test_case "batch roundtrip" `Quick test_batch_roundtrip;
        Alcotest.test_case "batch singleton/empty" `Quick
          test_batch_singleton_equals_encode;
        Alcotest.test_case "batch rejects bad lengths" `Quick
          test_batch_rejects_bad_length;
        QCheck_alcotest.to_alcotest prop_flow_mod_roundtrip;
        QCheck_alcotest.to_alcotest prop_batch_roundtrip ] ) ]
