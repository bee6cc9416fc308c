(** Binary wire codec for {!Frame.t}: big-endian serialization following
    the standard header layouts (Ethernet II, 802.1Q, ARP over Ethernet,
    IPv4 without options, TCP without options, UDP, ICMP).  The IPv4
    header checksum is computed on encode and validated on decode.

    Encoding is single-pass: the total size is computed up front
    ({!Frame.size}) and every layer writes directly into its slice of
    one output buffer — no per-layer allocation or blitting.
    {!encode_into} exposes the same path for callers that reuse a
    buffer; it writes every byte of the frame explicitly, checksum and
    reserved fields included, so dirty reused buffers are safe.  Lengths that must fit
    a wire field (IPv4 total length, TCP/UDP payload sizes) are
    range-checked and raise {!Parse_error} instead of truncating. *)


exception Parse_error of string

(** [encode_into frame buf off] serializes [frame] into [buf] at [off]
    in one pass, returning the number of bytes written
    (= [Frame.size frame]).  Every byte of the frame is written, so
    [buf] may hold arbitrary prior contents (e.g. a pooled buffer).
    @raise Invalid_argument when [buf] is too small.
    @raise Parse_error when a length exceeds its wire field. *)
val encode_into : Frame.t -> bytes -> int -> int

(** [encode frame] serializes to freshly-allocated bytes of exactly
    [Frame.size frame] bytes. *)
val encode : Frame.t -> bytes

(** [decode bytes] parses a frame.
    @raise Parse_error on malformed or truncated input. *)
val decode : bytes -> Frame.t
