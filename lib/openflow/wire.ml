open Util
open Message

exception Wire_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Wire_error s)) fmt

let version = 1

let type_code = function
  | Hello -> 0
  | Echo_request _ -> 2
  | Echo_reply _ -> 3
  | Features_request -> 5
  | Features_reply _ -> 6
  | Packet_in _ -> 10
  | Port_status _ -> 12
  | Packet_out _ -> 13
  | Flow_mod _ -> 14
  | Stats_request _ -> 16
  | Stats_reply _ -> 17
  | Barrier_request -> 18
  | Barrier_reply -> 19
  | Fence _ -> 20

(* ------------------------------------------------------------------ *)
(* Encoding: single-pass writes into a growable scratch buffer *)

type writer = {
  mutable buf : bytes;   (* scratch; dirty past [pos] *)
  mutable pos : int;
}

(* one writer per domain: encode is not reentrant, so the scratch can
   persist across calls and steady-state encoding never allocates
   beyond the final exact-size copy *)
let writer_key =
  Domain.DLS.new_key (fun () -> { buf = Bytes.create 256; pos = 0 })

(* grow to the next power of two that is at least double the old size
   and fits [pos + n], keeping the written prefix *)
let ensure w n =
  let need = w.pos + n in
  if need > Bytes.length w.buf then begin
    let rec size s = if s >= need then s else size (2 * s) in
    let nbuf = Bytes.create (size (2 * Bytes.length w.buf)) in
    Bytes.blit w.buf 0 nbuf 0 w.pos;
    w.buf <- nbuf
  end

let w_u8 w v =
  ensure w 1;
  Bytes.unsafe_set w.buf w.pos (Char.unsafe_chr (v land 0xff));
  w.pos <- w.pos + 1

let w_u16 w v =
  if v < 0 || v > 0xffff then fail "u16 out of range (%d)" v;
  ensure w 2;
  let b = w.buf and p = w.pos in
  Bytes.unsafe_set b p (Char.unsafe_chr (v lsr 8));
  Bytes.unsafe_set b (p + 1) (Char.unsafe_chr (v land 0xff));
  w.pos <- p + 2

let w_u32 w v =
  ensure w 4;
  let b = w.buf and p = w.pos in
  Bytes.unsafe_set b p (Char.unsafe_chr ((v lsr 24) land 0xff));
  Bytes.unsafe_set b (p + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set b (p + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set b (p + 3) (Char.unsafe_chr (v land 0xff));
  w.pos <- p + 4

let w_u48 w v =
  w_u16 w ((v lsr 32) land 0xffff);
  w_u32 w (v land 0xffffffff)

let w_u64 w (v : int64) =
  w_u32 w Int64.(to_int (logand (shift_right_logical v 32) 0xffffffffL));
  w_u32 w Int64.(to_int (logand v 0xffffffffL))

let w_string w s =
  if String.length s > 0xffff then
    fail "string too long for u16 length prefix (%d bytes)" (String.length s);
  w_u16 w (String.length s);
  let n = String.length s in
  ensure w n;
  Bytes.blit_string s 0 w.buf w.pos n;
  w.pos <- w.pos + n

let no_timeout = 0xffffffff

let w_timeout w = function
  | None -> w_u32 w no_timeout
  | Some secs ->
    let ms = int_of_float (secs *. 1000.0) in
    if ms < 0 || ms >= no_timeout then fail "timeout out of range";
    w_u32 w ms

let w_pattern w (p : Flow.Pattern.t) =
  let bit i o = match o with None -> 0 | Some _ -> 1 lsl i in
  let mask =
    bit 0 p.in_port lor bit 1 p.eth_src lor bit 2 p.eth_dst
    lor bit 3 p.eth_type lor bit 4 p.vlan lor bit 5 p.ip_proto
    lor bit 6 p.ip4_src lor bit 7 p.ip4_dst lor bit 8 p.tp_src
    lor bit 9 p.tp_dst
  in
  let dflt o = Option.value o ~default:0 in
  w_u16 w mask;
  w_u16 w (dflt p.in_port);
  w_u48 w (dflt p.eth_src);
  w_u48 w (dflt p.eth_dst);
  w_u16 w (dflt p.eth_type);
  w_u16 w (dflt p.vlan);
  w_u16 w (dflt p.ip_proto);
  let pfx o =
    match o with
    | None -> (0, 0)
    | Some p -> (Packet.Ipv4.Prefix.network p, Packet.Ipv4.Prefix.length p)
  in
  let src, src_len = pfx p.ip4_src and dst, dst_len = pfx p.ip4_dst in
  w_u32 w src;
  w_u8 w src_len;
  w_u32 w dst;
  w_u8 w dst_len;
  w_u16 w (dflt p.tp_src);
  w_u16 w (dflt p.tp_dst)

let w_atom w : Flow.Action.atom -> unit = function
  | Output (Physical p) -> w_u8 w 0; w_u32 w p
  | Output In_port_out -> w_u8 w 1
  | Output Flood -> w_u8 w 2
  | Output Controller -> w_u8 w 3
  | Set_field (f, v) ->
    w_u8 w 4;
    w_u8 w (Packet.Fields.index f);
    w_u64 w (Int64.of_int v)

let w_seq w (s : Flow.Action.seq) =
  w_u16 w (List.length s);
  List.iter (w_atom w) s

let w_group w (g : Flow.Action.group) =
  w_u16 w (List.length g);
  List.iter (w_seq w) g

let w_payload w (p : payload) =
  let h = p.headers in
  w_u32 w h.switch;
  w_u16 w h.in_port;
  w_u48 w h.eth_src;
  w_u48 w h.eth_dst;
  w_u16 w h.eth_type;
  w_u16 w h.vlan;
  w_u8 w h.ip_proto;
  w_u32 w h.ip4_src;
  w_u32 w h.ip4_dst;
  w_u16 w h.tp_src;
  w_u16 w h.tp_dst;
  w_u16 w p.size;
  w_u32 w p.tag

let w_i32 w v = w_u32 w (v land 0xffffffff)

let w_body w = function
  | Hello | Features_request | Barrier_request | Barrier_reply -> ()
  | Fence token ->
    if token < 0 || token > 0xffffffff then
      fail "fence token out of range (%d)" token;
    w_u32 w token
  | Echo_request s | Echo_reply s -> w_string w s
  | Features_reply f ->
    w_u32 w f.datapath_id;
    w_u16 w (List.length f.port_list);
    List.iter (w_u16 w) f.port_list
  | Packet_in pi ->
    w_u16 w pi.in_port;
    w_u8 w (match pi.reason with No_match -> 0 | Explicit_send -> 1);
    w_payload w pi.packet
  | Packet_out po ->
    w_u16 w po.out_in_port;
    w_seq w po.out_actions;
    w_payload w po.out_packet
  | Flow_mod fm ->
    w_u8 w
      (match fm.command with
       | Add_flow -> 0 | Delete_flow -> 2 | Delete_strict_flow -> 3);
    w_u32 w fm.fm_priority;
    w_pattern w fm.fm_pattern;
    w_i32 w fm.fm_cookie;
    w_timeout w fm.idle_timeout;
    w_group w fm.fm_actions
  | Port_status ps ->
    w_u16 w ps.ps_port;
    w_u8 w (match ps.ps_reason with Port_up -> 0 | Port_down -> 1)
  | Stats_request (Port_stats_request port) ->
    w_u8 w 1;
    (match port with
     | None -> w_u8 w 0
     | Some p -> w_u8 w 1; w_u16 w p)
  | Stats_request Table_stats_request -> w_u8 w 2
  | Stats_reply (Port_stats_reply stats) ->
    w_u8 w 1;
    w_u16 w (List.length stats);
    List.iter
      (fun ps ->
        w_u16 w ps.pstat_port;
        w_u64 w (Int64.of_int ps.rx_packets);
        w_u64 w (Int64.of_int ps.tx_packets);
        w_u64 w (Int64.of_int ps.rx_bytes);
        w_u64 w (Int64.of_int ps.tx_bytes);
        w_u64 w (Int64.of_int ps.drops))
      stats
  | Stats_reply (Table_stats_reply ts) ->
    w_u8 w 2;
    w_u64 w (Int64.of_int ts.active_rules);
    w_u64 w (Int64.of_int ts.table_hits);
    w_u64 w (Int64.of_int ts.table_misses);
    w_u64 w (Int64.of_int ts.cache_hits);
    w_u64 w (Int64.of_int ts.cache_misses);
    w_u64 w (Int64.of_int ts.cache_invalidations);
    w_u64 w (Int64.of_int ts.classifier_probes);
    w_u64 w (Int64.of_int ts.classifier_shapes)

(* reserve the 8-byte header, write the body, patch the header with the
   measured length *)
let write_frame w ~xid msg =
  let start = w.pos in
  ensure w 8;
  w.pos <- start + 8;
  w_body w msg;
  let len = w.pos - start in
  if len > 0xffff then fail "message too long (%d bytes)" len;
  let b = w.buf in
  Bytes.unsafe_set b start (Char.unsafe_chr version);
  Bytes.unsafe_set b (start + 1) (Char.unsafe_chr (type_code msg));
  Bytes.unsafe_set b (start + 2) (Char.unsafe_chr (len lsr 8));
  Bytes.unsafe_set b (start + 3) (Char.unsafe_chr (len land 0xff));
  Bytes.unsafe_set b (start + 4) (Char.unsafe_chr ((xid lsr 24) land 0xff));
  Bytes.unsafe_set b (start + 5) (Char.unsafe_chr ((xid lsr 16) land 0xff));
  Bytes.unsafe_set b (start + 6) (Char.unsafe_chr ((xid lsr 8) land 0xff));
  Bytes.unsafe_set b (start + 7) (Char.unsafe_chr (xid land 0xff))

let encode ~xid msg =
  let w = Domain.DLS.get writer_key in
  w.pos <- 0;
  write_frame w ~xid msg;
  Bytes.sub w.buf 0 w.pos

let encode_batch msgs =
  let w = Domain.DLS.get writer_key in
  w.pos <- 0;
  List.iter (fun (xid, msg) -> write_frame w ~xid msg) msgs;
  Bytes.sub w.buf 0 w.pos

let frame_count data =
  let n = Bytes.length data in
  let rec go pos count =
    if pos + 8 > n then if pos < n then count + 1 else count
    else
      let len = Bits.get_u16 data (pos + 2) in
      if len < 8 then count + 1
      else go (pos + len) (count + 1)
  in
  go 0 0

(* ------------------------------------------------------------------ *)
(* Decoding: cursor over bytes; [limit] bounds the current frame *)

type cursor = { data : bytes; mutable pos : int; mutable limit : int }

let need c n =
  if c.pos + n > c.limit then
    fail "truncated message at offset %d (want %d bytes)" c.pos n

let r8 c = need c 1; let v = Bits.get_u8 c.data c.pos in c.pos <- c.pos + 1; v
let r16 c = need c 2; let v = Bits.get_u16 c.data c.pos in c.pos <- c.pos + 2; v
let r32 c = need c 4; let v = Bits.get_u32 c.data c.pos in c.pos <- c.pos + 4; v
let r48 c = need c 6; let v = Bits.get_u48 c.data c.pos in c.pos <- c.pos + 6; v
let r64 c = need c 8; let v = Bits.get_u64 c.data c.pos in c.pos <- c.pos + 8; v

let r64i c =
  let v = r64 c in
  if Int64.compare v (Int64.of_int max_int) > 0 then fail "u64 overflows int";
  Int64.to_int v

let ri32 c =
  let v = r32 c in
  if v land 0x80000000 <> 0 then v - (1 lsl 32) else v

let rstring c =
  let n = r16 c in
  need c n;
  let s = Bytes.sub_string c.data c.pos n in
  c.pos <- c.pos + n;
  s

let rtimeout c =
  let v = r32 c in
  if v = no_timeout then None else Some (float_of_int v /. 1000.0)

let rpattern c : Flow.Pattern.t =
  let mask = r16 c in
  let has i = mask land (1 lsl i) <> 0 in
  let opt i v = if has i then Some v else None in
  let in_port = r16 c in
  let eth_src = r48 c in
  let eth_dst = r48 c in
  let eth_type = r16 c in
  let vlan = r16 c in
  let ip_proto = r16 c in
  let src = r32 c in
  let src_len = r8 c in
  let dst = r32 c in
  let dst_len = r8 c in
  let tp_src = r16 c in
  let tp_dst = r16 c in
  { in_port = opt 0 in_port;
    eth_src = opt 1 eth_src;
    eth_dst = opt 2 eth_dst;
    eth_type = opt 3 eth_type;
    vlan = opt 4 vlan;
    ip_proto = opt 5 ip_proto;
    (* a corrupted frame must surface as [Wire_error], not as
       [Prefix.make]'s own [Invalid_argument] *)
    ip4_src =
      (if has 6 then
         if src_len > 32 then fail "ip4_src prefix length %d" src_len
         else Some (Packet.Ipv4.Prefix.make src src_len)
       else None);
    ip4_dst =
      (if has 7 then
         if dst_len > 32 then fail "ip4_dst prefix length %d" dst_len
         else Some (Packet.Ipv4.Prefix.make dst dst_len)
       else None);
    tp_src = opt 8 tp_src;
    tp_dst = opt 9 tp_dst }

let field_of_index i =
  match List.find_opt (fun f -> Packet.Fields.index f = i) Packet.Fields.all with
  | Some f -> f
  | None -> fail "unknown field index %d" i

let ratom c : Flow.Action.atom =
  match r8 c with
  | 0 -> Output (Physical (r32 c))
  | 1 -> Output In_port_out
  | 2 -> Output Flood
  | 3 -> Output Controller
  | 4 ->
    let f = field_of_index (r8 c) in
    let v = r64i c in
    Set_field (f, v)
  | n -> fail "unknown action tag %d" n

let rseq c : Flow.Action.seq =
  let n = r16 c in
  List.init n (fun _ -> ratom c)

let rgroup c : Flow.Action.group =
  let n = r16 c in
  List.init n (fun _ -> rseq c)

let rpayload c : payload =
  let switch = r32 c in
  let in_port = r16 c in
  let eth_src = r48 c in
  let eth_dst = r48 c in
  let eth_type = r16 c in
  let vlan = r16 c in
  let ip_proto = r8 c in
  let ip4_src = r32 c in
  let ip4_dst = r32 c in
  let tp_src = r16 c in
  let tp_dst = r16 c in
  let size = r16 c in
  let tag = r32 c in
  { headers =
      { switch; in_port; eth_src; eth_dst; eth_type; vlan; ip_proto;
        ip4_src; ip4_dst; tp_src; tp_dst };
    size; tag }

let rbody code c =
  match code with
  | 0 -> Hello
  | 2 -> Echo_request (rstring c)
  | 3 -> Echo_reply (rstring c)
  | 5 -> Features_request
  | 6 ->
    let datapath_id = r32 c in
    let n = r16 c in
    Features_reply { datapath_id; port_list = List.init n (fun _ -> r16 c) }
  | 10 ->
    let in_port = r16 c in
    let reason = match r8 c with 0 -> No_match | _ -> Explicit_send in
    Packet_in { in_port; reason; packet = rpayload c }
  | 12 ->
    let ps_port = r16 c in
    let ps_reason = match r8 c with 0 -> Port_up | _ -> Port_down in
    Port_status { ps_port; ps_reason }
  | 13 ->
    let out_in_port = r16 c in
    let out_actions = rseq c in
    Packet_out { out_in_port; out_actions; out_packet = rpayload c }
  | 14 ->
    let command =
      match r8 c with
      | 0 -> Add_flow
      | 2 -> Delete_flow
      | 3 -> Delete_strict_flow
      | n -> fail "unknown flow_mod command %d" n
    in
    let fm_priority = r32 c in
    let fm_pattern = rpattern c in
    let fm_cookie = ri32 c in
    let idle_timeout = rtimeout c in
    let fm_actions = rgroup c in
    Flow_mod
      { command; fm_priority; fm_pattern; fm_actions; idle_timeout;
        fm_cookie }
  | 16 ->
    (match r8 c with
     | 1 ->
       let has = r8 c in
       Stats_request
         (Port_stats_request (if has = 1 then Some (r16 c) else None))
     | 2 -> Stats_request Table_stats_request
     | n -> fail "unknown stats_request subtype %d" n)
  | 17 ->
    (match r8 c with
     | 1 ->
       let n = r16 c in
       let stats =
         List.init n (fun _ ->
           let pstat_port = r16 c in
           let rx_packets = r64i c in
           let tx_packets = r64i c in
           let rx_bytes = r64i c in
           let tx_bytes = r64i c in
           let drops = r64i c in
           { pstat_port; rx_packets; tx_packets; rx_bytes; tx_bytes; drops })
       in
       Stats_reply (Port_stats_reply stats)
     | 2 ->
       let active_rules = r64i c in
       let table_hits = r64i c in
       let table_misses = r64i c in
       let cache_hits = r64i c in
       let cache_misses = r64i c in
       let cache_invalidations = r64i c in
       let classifier_probes = r64i c in
       let classifier_shapes = r64i c in
       Stats_reply
         (Table_stats_reply
            { active_rules; table_hits; table_misses; cache_hits;
              cache_misses; cache_invalidations; classifier_probes;
              classifier_shapes })
     | n -> fail "unknown stats_reply subtype %d" n)
  | 18 -> Barrier_request
  | 19 -> Barrier_reply
  | 20 -> Fence (r32 c)
  | n -> fail "unknown message type %d" n

let decode data =
  let c = { data; pos = 0; limit = Bytes.length data } in
  let v = r8 c in
  if v <> version then fail "bad version %d" v;
  let code = r8 c in
  let len = r16 c in
  if len <> Bytes.length data then
    fail "length field %d does not match buffer %d" len (Bytes.length data);
  let xid = r32 c in
  let msg = rbody code c in
  if c.pos <> Bytes.length data then fail "trailing bytes after message";
  (xid, msg)

let decode_all data =
  let total = Bytes.length data in
  let c = { data; pos = 0; limit = total } in
  let rec go acc =
    if c.pos = total then List.rev acc
    else begin
      let start = c.pos in
      c.limit <- total;
      let v = r8 c in
      if v <> version then fail "bad version %d" v;
      let code = r8 c in
      let len = r16 c in
      if len < 8 || start + len > total then
        fail "length field %d does not match buffer %d" len (total - start);
      c.limit <- start + len;
      let xid = r32 c in
      let msg = rbody code c in
      if c.pos <> c.limit then fail "trailing bytes after message";
      go ((xid, msg) :: acc)
    end
  in
  go []
