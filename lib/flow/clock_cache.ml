(** Bounded hash cache with CLOCK (second-chance) eviction.

    A fixed-capacity key/value cache: every entry occupies one slot with
    a reference bit that {!Make.find_opt} sets on a hit.  When an insert
    finds the cache full, a clock hand sweeps the slots, clearing set
    bits and evicting the first entry whose bit is already clear — so
    recently-probed entries survive one full lap and cold ones make room.
    One lap clears every bit, so an eviction inspects at most [2 * cap]
    slots; in steady state it is a short scan past the recently-hit
    prefix.

    Compared to dropping the whole table on overflow (the policy this
    replaced in {!Table}), a full cache keeps its hot entries instead of
    relearning the entire working set after every reset.

    Entries are never removed individually; consumers that need
    invalidation stamp values with a generation (as {!Table} does) or
    call {!Make.reset}. *)

module Make (H : Hashtbl.HashedType) = struct
  module Tbl = Hashtbl.Make (H)

  type 'a t = {
    cap : int;
    index : int Tbl.t;  (* key -> slot *)
    keys : H.t option array;
    vals : 'a option array;
    refs : Bytes.t;     (* second-chance bits, one per slot *)
    mutable hand : int;
    mutable len : int;
    mutable evictions : int;
  }

  let create ~cap =
    let cap = max 1 cap in
    { cap; index = Tbl.create (2 * cap); keys = Array.make cap None;
      vals = Array.make cap None; refs = Bytes.make cap '\000'; hand = 0;
      len = 0; evictions = 0 }

  let length t = t.len
  let capacity t = t.cap
  let evictions t = t.evictions

  let find_opt t k =
    match Tbl.find_opt t.index k with
    | None -> None
    | Some slot ->
      Bytes.unsafe_set t.refs slot '\001';
      t.vals.(slot)

  (* sweep to the first slot with a clear bit, clearing bits as we go,
     and vacate it *)
  let evict_slot t =
    let rec sweep () =
      let slot = t.hand in
      t.hand <- (if t.hand + 1 = t.cap then 0 else t.hand + 1);
      if Bytes.unsafe_get t.refs slot = '\000' then slot
      else begin
        Bytes.unsafe_set t.refs slot '\000';
        sweep ()
      end
    in
    let slot = sweep () in
    (match t.keys.(slot) with
     | Some k -> Tbl.remove t.index k
     | None -> ());
    t.evictions <- t.evictions + 1;
    t.len <- t.len - 1;
    slot

  (** [replace t k v] binds [k] to [v], updating in place when [k] is
      resident and otherwise filling a free slot — evicting one via the
      clock hand when the cache is at capacity. *)
  let replace t k v =
    match Tbl.find_opt t.index k with
    | Some slot ->
      t.vals.(slot) <- Some v;
      Bytes.unsafe_set t.refs slot '\001'
    | None ->
      (* slots fill densely and only eviction vacates one, so below
         capacity the next free slot is [t.len] *)
      let slot = if t.len < t.cap then t.len else evict_slot t in
      t.keys.(slot) <- Some k;
      t.vals.(slot) <- Some v;
      Bytes.unsafe_set t.refs slot '\001';
      Tbl.replace t.index k slot;
      t.len <- t.len + 1

  let reset t =
    Tbl.reset t.index;
    Array.fill t.keys 0 t.cap None;
    Array.fill t.vals 0 t.cap None;
    Bytes.fill t.refs 0 t.cap '\000';
    t.hand <- 0;
    t.len <- 0
end
