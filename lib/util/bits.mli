(** Big-endian byte-level codecs used by the packet and OpenFlow wire
    formats.  All offsets are in bytes; all multi-byte quantities are
    network (big-endian) order.  Functions raise [Invalid_argument] when
    the access falls outside the buffer, mirroring [Bytes] semantics. *)

val get_u8 : bytes -> int -> int

val set_u8 : bytes -> int -> int -> unit

val get_u16 : bytes -> int -> int

val set_u16 : bytes -> int -> int -> unit

val get_u32 : bytes -> int -> int

val set_u32 : bytes -> int -> int -> unit

(** 48-bit quantity (an Ethernet MAC address) as an OCaml [int]. *)
val get_u48 : bytes -> int -> int

val set_u48 : bytes -> int -> int -> unit

val get_u64 : bytes -> int -> int64

(** Test-only. *)
val set_u64 : bytes -> int -> int64 -> unit

(** [hex_dump b] renders [b] as the conventional 16-bytes-per-line hex dump,
    for diagnostics and golden tests.
    Test-only. *)
val hex_dump : bytes -> string

(** One's-complement 16-bit checksum over [len] bytes starting at [off],
    as used by the IPv4 header checksum. *)
val ones_complement_sum : bytes -> int -> int -> int
