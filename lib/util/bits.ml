(* The accessors lower to the stdlib's fixed-width big-endian
   primitives (one bounds check + one load/store each) rather than
   per-byte [Bytes.get]/[Bytes.set] chains — these sit on the packet
   and control-message encode hot paths.  Values wider than the field
   are truncated to the field width; wire formats that must reject
   oversized values range-check before writing (see {!Packet.Codec}). *)

let get_u8 b off = Bytes.get_uint8 b off
let set_u8 b off v = Bytes.set_uint8 b off (v land 0xff)
let get_u16 b off = Bytes.get_uint16_be b off
let set_u16 b off v = Bytes.set_uint16_be b off (v land 0xffff)
let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xffffffff
let set_u32 b off v = Bytes.set_int32_be b off (Int32.of_int v)

let get_u48 b off = (get_u16 b off lsl 32) lor get_u32 b (off + 2)

let set_u48 b off v =
  set_u16 b off ((v lsr 32) land 0xffff);
  set_u32 b (off + 2) (v land 0xffffffff)

let get_u64 b off = Bytes.get_int64_be b off
let set_u64 b off v = Bytes.set_int64_be b off v

let hex_dump b =
  let n = Bytes.length b in
  let buf = Buffer.create (n * 4) in
  let rec line off =
    if off < n then begin
      Buffer.add_string buf (Printf.sprintf "%04x: " off);
      for i = off to min (off + 15) (n - 1) do
        Buffer.add_string buf (Printf.sprintf "%02x " (get_u8 b i))
      done;
      Buffer.add_char buf '\n';
      line (off + 16)
    end
  in
  line 0;
  Buffer.contents buf

let ones_complement_sum b off len =
  let rec go i acc =
    if i + 1 < len then go (i + 2) (acc + get_u16 b (off + i))
    else if i < len then acc + (get_u8 b (off + i) lsl 8)
    else acc
  in
  let s = go 0 0 in
  let s = (s land 0xffff) + (s lsr 16) in
  let s = (s land 0xffff) + (s lsr 16) in
  lnot s land 0xffff
