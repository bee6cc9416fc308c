(** Grow-on-demand byte-buffer pool for encode scratch space.

    Wire codecs need a working buffer whose final size is only known
    once the message is written; allocating one per encode puts the
    allocator on the hot path.  A pool keeps a small free list of
    previously-used buffers and hands back the first one large enough,
    so steady-state encoding reuses the same storage.

    Buffers come back {e dirty} — contents are whatever the previous
    user left — so writers must overwrite every byte they later read
    (the pooled codecs in {!Packet.Codec} and {!Openflow.Wire} write
    all fields explicitly, including checksum/reserved zeros).

    Pools are not thread-safe; share across domains via one pool per
    domain ([Domain.DLS]), as {!Openflow.Wire} does.  The free list
    keeps at most [retain] buffers (default 8); extra releases are
    dropped for the GC, bounding idle memory. *)

type t = {
  retain : int;             (* free-list capacity *)
  mutable free : bytes list;
  mutable free_count : int;
}

let create ?(retain = 8) () = { retain; free = []; free_count = 0 }

let retained t = t.free_count

(* sizes are rounded up so a slightly-growing workload converges on one
   buffer instead of a ladder of near-duplicates *)
let round_up n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 64

(** [acquire t n] returns a buffer of length at least [n] with arbitrary
    contents: the first free buffer that fits, else a fresh allocation. *)
let acquire t n =
  let rec take acc = function
    | [] -> None
    | b :: rest when Bytes.length b >= n ->
      t.free <- List.rev_append acc rest;
      t.free_count <- t.free_count - 1;
      Some b
    | b :: rest -> take (b :: acc) rest
  in
  match take [] t.free with
  | Some b -> b
  | None -> Bytes.create (round_up n)

(** Returns [buf] to the free list (dropped if the list is full). *)
let release t buf =
  if t.free_count < t.retain then begin
    t.free <- buf :: t.free;
    t.free_count <- t.free_count + 1
  end

(** [grow t buf n] returns a buffer of length at least [n] holding
    [buf]'s contents as a prefix; [buf] itself goes back to the pool.
    No-op when [buf] is already big enough. *)
let grow t buf n =
  if Bytes.length buf >= n then buf
  else begin
    let nbuf = acquire t (max n (2 * Bytes.length buf)) in
    Bytes.blit buf 0 nbuf 0 (Bytes.length buf);
    release t buf;
    nbuf
  end

(** [with_buf t n f] runs [f] on an acquired buffer of length at least
    [n], releasing it afterwards (also on exception).  [f] must not
    retain the buffer. *)
let with_buf t n f =
  let buf = acquire t n in
  match f buf with
  | v -> release t buf; v
  | exception e -> release t buf; raise e
