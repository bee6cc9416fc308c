type 'a entry = { key : float; seq : int; value : 'a }

type 'a t = {
  inv_tick : float;
  nslots : int;               (* power of two *)
  mask : int;
  slots : 'a entry list array;  (* unsorted; one pending tick per slot *)
  mutable wheel_count : int;  (* entries filed in [slots] *)
  mutable base : int;         (* tick number of the current slot *)
  mutable near : 'a entry array;
      (* binary min-heap on (key, seq) of the entries with tick <= base;
         slots at and above [near_size] hold [vacant] *)
  mutable near_size : int;
  overflow : 'a Heap.t;       (* entries beyond the wheel horizon *)
  mutable next_seq : int;     (* global tie-break counter *)
}

(* Filler for [near] slots above [near_size], so a popped entry (and the
   event closure it carries) is never retained by the array.  Its value
   is never read: every read of [near] is below [near_size]. *)
let vacant_unit = { key = infinity; seq = max_int; value = () }
let vacant () : 'a entry = Obj.magic vacant_unit

(* round up to a power of two for mask indexing *)
let pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 2

let default_tick = 16e-6

let create ?(tick = default_tick) ?(slots = 1024) () =
  if tick <= 0.0 then invalid_arg "Timing_wheel.create: tick must be positive";
  let nslots = pow2 slots in
  { inv_tick = 1.0 /. tick; nslots; mask = nslots - 1;
    slots = Array.make nslots []; wheel_count = 0; base = 0;
    near = [||]; near_size = 0; overflow = Heap.create (); next_seq = 0 }

let length t = t.near_size + t.wheel_count + Heap.length t.overflow
let is_empty t = length t = 0

(* ------------------------------------------------------------------ *)
(* The near heap *)

let entry_lt a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

(* sift [e] up from the hole at [i] *)
let rec sift_up a e i =
  if i = 0 then a.(0) <- e
  else
    let p = (i - 1) / 2 in
    let pe = a.(p) in
    if entry_lt e pe then begin
      a.(i) <- pe;
      sift_up a e p
    end
    else a.(i) <- e

(* sift [e] down from the hole at [i] in a heap of [n] entries *)
let rec sift_down a n e i =
  let l = (2 * i) + 1 in
  if l >= n then a.(i) <- e
  else
    let c = if l + 1 < n && entry_lt a.(l + 1) a.(l) then l + 1 else l in
    let ce = a.(c) in
    if entry_lt ce e then begin
      a.(i) <- ce;
      sift_down a n e c
    end
    else a.(i) <- e

(* append [e] at the end of [near] without restoring the heap order *)
let near_append t e =
  let cap = Array.length t.near in
  if t.near_size = cap then begin
    let ncap = max 16 (2 * cap) in
    let a = Array.make ncap (vacant ()) in
    Array.blit t.near 0 a 0 t.near_size;
    t.near <- a
  end;
  t.near.(t.near_size) <- e;
  t.near_size <- t.near_size + 1

let near_push t e =
  near_append t e;
  sift_up t.near e (t.near_size - 1)

(* remove and return the minimum; [near] must be nonempty *)
let near_pop t =
  let a = t.near in
  let top = a.(0) in
  let n = t.near_size - 1 in
  t.near_size <- n;
  let last = a.(n) in
  a.(n) <- vacant ();
  if n > 0 then sift_down a n last 0;
  top

(* ------------------------------------------------------------------ *)
(* Filing and migration *)

(** Ticks saturate here: large enough that no finite schedule of a
    simulated network reaches it, small enough that [max_tick + nslots]
    cannot overflow an [int]. *)
let max_tick = 1 lsl 52

let max_tick_f = float_of_int max_tick

(* floor(key / tick), saturating at [max_tick]: monotone in key, so
   inter-tick order is key order and quantization can never reorder
   events.  Without the saturation [int_of_float] of a huge or infinite
   key wraps to a tick in the past and jumps the whole schedule. *)
let tick_of t key =
  let x = key *. t.inv_tick in
  if x < max_tick_f then int_of_float x else max_tick

(* route an entry to the stage its tick calls for *)
let file t e =
  let tk = tick_of t e.key in
  if tk <= t.base then near_push t e
  else if tk - t.base < t.nslots then begin
    let i = tk land t.mask in
    t.slots.(i) <- e :: t.slots.(i);
    t.wheel_count <- t.wheel_count + 1
  end
  else Heap.push_seq t.overflow e.key ~seq:e.seq e.value

let push t key value =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  file t { key; seq; value }

(* Pull every overflow entry that now fits under the horizon.

   Boundary audit (PR 6): an entry whose tick is {e exactly} at the
   horizon ([tick - base = nslots]) must stay in the overflow heap —
   its slot index aliases the current base slot ([tick land mask =
   base land mask]), so filing it would let the next drain of that slot
   surface it a full revolution early, ahead of every entry in the
   intervening slots.  Both guards agree on strict [<]: [file]
   sends [tick - base >= nslots] to the overflow, and this migration
   only pulls [tick - base < nslots], so the boundary entry migrates on
   the next base advance, never before.  Same-instant FIFO order across
   the migration is preserved because entries carry their global [seq]
   through [pop_seq]/[push_seq] and the [near] heap orders by
   [(key, seq)].  Both properties are pinned by the [test/util.wheel]
   horizon-boundary regression tests. *)
let migrate_overflow t =
  let rec go () =
    match Heap.peek t.overflow with
    | Some (key, _) when tick_of t key - t.base < t.nslots ->
      let key, seq, value = Heap.pop_seq t.overflow in
      file t { key; seq; value };
      go ()
    | Some _ | None -> ()
  in
  go ()

(* move a slot's entries (all of one tick) into [near]; the heap orders
   them by (key, seq), so the slot list needs no sort *)
let rec append_all t n = function
  | [] -> n
  | e :: rest ->
    near_append t e;
    append_all t (n + 1) rest

let drain_slot t i =
  match t.slots.(i) with
  | [] -> false
  | l ->
    t.slots.(i) <- [];
    t.wheel_count <- t.wheel_count - append_all t 0 l;
    (* Floyd's heapify: O(n), against O(n log n) for one push each *)
    let a = t.near and n = t.near_size in
    for i = (n / 2) - 1 downto 0 do
      sift_down a n a.(i) i
    done;
    true

(* Advance [base] until [near] holds the next pending entries (or the
   wheel is truly empty).  With entries in the wheel the next nonempty
   slot is at most [nslots - 1] ticks ahead; with only far timers left
   we jump straight to the overflow's first tick. *)
let rec ensure_near t =
  if t.near_size = 0 then begin
    if t.wheel_count > 0 then begin
      let rec scan () =
        t.base <- t.base + 1;
        migrate_overflow t;
        if not (drain_slot t (t.base land t.mask)) && t.wheel_count > 0 then
          scan ()
      in
      scan ()
    end
    else
      match Heap.peek t.overflow with
      | None -> ()
      | Some (key, _) ->
        t.base <- max t.base (tick_of t key);
        migrate_overflow t;
        ensure_near t
  end

(* ------------------------------------------------------------------ *)
(* Popping *)

let peek t =
  ensure_near t;
  if t.near_size = 0 then None
  else
    let e = t.near.(0) in
    Some (e.key, e.value)

let pop_due t ~strict ~stop =
  ensure_near t;
  if t.near_size = 0 then raise_notrace Not_found;
  let key = t.near.(0).key in
  if (if strict then key >= stop else key > stop) then raise_notrace Not_found;
  near_pop t

let clear t =
  Array.fill t.near 0 t.near_size (vacant ());
  t.near_size <- 0;
  Heap.clear t.overflow;
  if t.wheel_count > 0 then Array.fill t.slots 0 t.nslots [];
  t.wheel_count <- 0
