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
    (* one bucket per slot: a full cache averages one entry per chain,
       and the index is allocated whole in every switch, used or not *)
    { cap; index = Tbl.create cap; keys = Array.make cap None;
      vals = Array.make cap None; refs = Bytes.make cap '\000'; hand = 0;
      len = 0; evictions = 0 }

  let length t = t.len
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
end
