(** Binary wire codec for {!Message.t}.

    Framing follows the OpenFlow convention: an 8-byte header
    [version(1) | type(1) | length(2) | xid(4)] followed by a
    type-specific body, all big-endian.  The controller runtime round-trips
    every control message through this codec so that the protocol layer is
    genuinely exercised, not just modeled.

    Encoding writes single-pass into one growable scratch buffer,
    shared by every call and so not reentrant: the 8-byte header is reserved, the body
    written, the header patched with the measured length, and
    the exact frame copied out — no intermediate [Buffer], no per-field
    allocation.  {!encode_batch} extends this to several messages in one
    transmission: frames are simply concatenated, and {!decode_all}
    walks them back out by their length fields.  Every length that must
    fit a wire field is range-checked — a frame that cannot be encoded
    faithfully raises {!Wire_error} rather than truncating. *)

exception Wire_error of string

(** [encode ~xid msg] frames [msg] into wire bytes. *)
val encode : xid:int -> Message.t -> bytes

(** [encode_batch msgs] frames each [(xid, msg)] and concatenates the
    frames into one transmission; {!decode_all} is the inverse.  A batch
    of one is byte-identical to {!encode}. *)
val encode_batch : (int * Message.t) list -> bytes

(** Number of framed messages in [data], by walking the length fields
    (malformed tails count as one frame; {!decode_all} reports them). *)
val frame_count : bytes -> int

(** [decode bytes] parses one framed message, returning [(xid, msg)].
    @raise Wire_error on malformed input or trailing garbage. *)
val decode : bytes -> int * Message.t

(** [decode_all bytes] parses a batch of concatenated frames (see
    {!encode_batch}) in order; a single frame decodes as a one-element
    list.  Each frame is bounded by its own length field, so a message
    body can never read into the next frame.
    @raise Wire_error on malformed input. *)
val decode_all : bytes -> (int * Message.t) list
