(* An entry lives in a cell: an index into the parallel arrays [keys],
   [seqs], [values] and [links].  [links] threads the cells of one slot
   into a list, and the free cells into the free list; [near] and
   [overflow] are binary heaps of cell indices.  Heap sifts write only
   unboxed arrays (no write barrier), and a push allocates nothing once
   the arrays have grown. *)

(* A heap keeps each position's key beside its cell, so a sift compares
   keys read from one small array instead of through the cell, and
   reads a cell's [seq] only on a tie. *)
type heap = {
  mutable hkeys : Float.Array.t;
  mutable cells : int array;
  mutable size : int;
}

type 'a t = {
  inv_tick : float;
  nslots : int;               (* power of two *)
  mask : int;
  slots : int array;
      (* first cell of each slot's list, or [nil]; unsorted, one pending
         tick per slot *)
  mutable wheel_count : int;  (* cells filed in [slots] *)
  mutable base : int;         (* tick number of the current slot *)
  mutable keys : Float.Array.t;
  mutable seqs : int array;   (* global insertion order, the tie-break *)
  mutable values : 'a array;  (* a free cell holds [vacant] *)
  mutable links : int array;  (* next cell in a slot list or the free list *)
  mutable free : int;         (* first free cell, or [nil] *)
  near : heap;                (* min-heap on (key, seq), tick <= base *)
  overflow : heap;            (* min-heap on (key, seq), beyond the horizon *)
  mutable next_seq : int;     (* global tie-break counter *)
}

let nil = -1

(* Filler for the value of a free cell, so a popped or cleared value
   (the event closure) is never retained by the array.  It is never read
   as an ['a]: every read of [values] is of a live cell.  An immediate
   keeps [values] a plain array even when ['a] is [float]. *)
let vacant () : 'a = Obj.magic 0

(* round up to a power of two for mask indexing *)
let pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 2

(* 1 µs: a dense fabric's schedule keeps a few entries per slot, where
   16 µs kept about 80 (DESIGN "Event loop") *)
let default_tick = 1e-6

let new_heap () = { hkeys = Float.Array.create 0; cells = [||]; size = 0 }

let create ?(tick = default_tick) ?(slots = 1024) () =
  if tick <= 0.0 then invalid_arg "Timing_wheel.create: tick must be positive";
  let nslots = pow2 slots in
  { inv_tick = 1.0 /. tick; nslots; mask = nslots - 1;
    slots = Array.make nslots nil; wheel_count = 0; base = 0;
    keys = Float.Array.create 0; seqs = [||]; values = [||]; links = [||];
    free = nil; near = new_heap (); overflow = new_heap (); next_seq = 0 }

let length t = t.near.size + t.wheel_count + t.overflow.size
let is_empty t = length t = 0

(* ------------------------------------------------------------------ *)
(* Cells *)

(* put cells [lo, hi) on the free list, [lo] first *)
let free_range t lo hi =
  for c = hi - 1 downto lo do
    t.links.(c) <- t.free;
    t.free <- c
  done

(* double the cell arrays; only called with the free list empty *)
let grow_cells t =
  let cap = Array.length t.seqs in
  let ncap = max 64 (2 * cap) in
  let keys = Float.Array.make ncap 0.0 in
  Float.Array.blit t.keys 0 keys 0 cap;
  let seqs = Array.make ncap 0 in
  Array.blit t.seqs 0 seqs 0 cap;
  let values = Array.make ncap (vacant ()) in
  Array.blit t.values 0 values 0 cap;
  let links = Array.make ncap nil in
  Array.blit t.links 0 links 0 cap;
  t.keys <- keys;
  t.seqs <- seqs;
  t.values <- values;
  t.links <- links;
  free_range t cap ncap

let alloc t key value =
  if t.free = nil then grow_cells t;
  let c = t.free in
  t.free <- t.links.(c);
  Float.Array.unsafe_set t.keys c key;
  t.seqs.(c) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.values.(c) <- value;
  c

let release t c =
  t.values.(c) <- vacant ();
  t.links.(c) <- t.free;
  t.free <- c

(* ------------------------------------------------------------------ *)
(* Heaps of cells *)

(* Sifts are loops over local floats: a recursive sift would box the
   moving key at every call. *)

(* sift cell [c] up from the hole at [i] *)
let sift_up t h c i =
  let hkeys = h.hkeys and a = h.cells and seqs = t.seqs in
  let k = Float.Array.unsafe_get t.keys c in
  let i = ref i and sifting = ref true in
  while !sifting && !i > 0 do
    let p = (!i - 1) / 2 in
    let pk = Float.Array.unsafe_get hkeys p and pc = a.(p) in
    if k < pk || (k = pk && seqs.(c) < seqs.(pc)) then begin
      Float.Array.unsafe_set hkeys !i pk;
      a.(!i) <- pc;
      i := p
    end
    else sifting := false
  done;
  Float.Array.unsafe_set hkeys !i k;
  a.(!i) <- c

(* sift cell [c] down from the hole at [i] in a heap of [n] cells *)
let sift_down t h n c i =
  let hkeys = h.hkeys and a = h.cells and seqs = t.seqs in
  let k = Float.Array.unsafe_get t.keys c in
  let i = ref i and sifting = ref true in
  while !sifting && (2 * !i) + 1 < n do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let m =
      if r >= n then l
      else
        let kl = Float.Array.unsafe_get hkeys l
        and kr = Float.Array.unsafe_get hkeys r in
        if kr < kl || (kr = kl && seqs.(a.(r)) < seqs.(a.(l))) then r else l
    in
    let mk = Float.Array.unsafe_get hkeys m and mc = a.(m) in
    if mk < k || (mk = k && seqs.(mc) < seqs.(c)) then begin
      Float.Array.unsafe_set hkeys !i mk;
      a.(!i) <- mc;
      i := m
    end
    else sifting := false
  done;
  Float.Array.unsafe_set hkeys !i k;
  a.(!i) <- c

(* append [c] without restoring the heap order *)
let heap_append t h c =
  let cap = Array.length h.cells in
  if h.size = cap then begin
    let ncap = max 16 (2 * cap) in
    let hkeys = Float.Array.make ncap 0.0 in
    Float.Array.blit h.hkeys 0 hkeys 0 h.size;
    let a = Array.make ncap nil in
    Array.blit h.cells 0 a 0 h.size;
    h.hkeys <- hkeys;
    h.cells <- a
  end;
  Float.Array.unsafe_set h.hkeys h.size (Float.Array.unsafe_get t.keys c);
  h.cells.(h.size) <- c;
  h.size <- h.size + 1

let heap_push t h c =
  heap_append t h c;
  sift_up t h c (h.size - 1)

(* remove and return the minimum; [h] must be nonempty *)
let heap_pop t h =
  let top = h.cells.(0) in
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then sift_down t h n h.cells.(n) 0;
  top

let heap_min_key h = Float.Array.unsafe_get h.hkeys 0

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

(* route cell [c] to the stage its tick calls for *)
let file t c =
  let tk = tick_of t (Float.Array.unsafe_get t.keys c) in
  if tk <= t.base then heap_push t t.near c
  else if tk - t.base < t.nslots then begin
    let i = tk land t.mask in
    t.links.(c) <- t.slots.(i);
    t.slots.(i) <- c;
    t.wheel_count <- t.wheel_count + 1
  end
  else heap_push t t.overflow c

let push t key value = file t (alloc t key value)

(* Pull every overflow cell that now fits under the horizon.

   Boundary audit.  A cell whose tick is exactly [base + nslots]
   aliases the base slot ([tick land mask = base land mask]).  The
   invariant that holds the order is: this migration may pull only
   cells that [file] will not send back to the overflow, and none into
   the base slot.  [scan] migrates right after stepping [base] and
   before draining the new base slot, so a cell pulled at [base +
   nslots] would be drained at once, a revolution early; with [file]'s
   strict [<] it would instead go straight back to the overflow, and
   [pop_due] would loop forever.  So the strict [<] here is essential.

   [file]'s own strict [<] is dead but harmless: a cell pushed from
   outside finds the base slot already drained ([scan] drains it, and a
   jump in [ensure_near] finds every slot empty), and that slot is next
   drained when [base] reaches [base + nslots], the cell's own tick.  A
   copy that files it there with [<=] passes every test, the
   [test/util.wheel] "cells filed at the horizon" case included; the
   guard stays as a margin.  Same-instant FIFO order across the
   migration holds because a cell keeps its global [seq] and every heap
   orders by [(key, seq)]. *)
let rec migrate_overflow t =
  if t.overflow.size > 0
     && tick_of t (heap_min_key t.overflow) - t.base < t.nslots
  then begin
    file t (heap_pop t t.overflow);
    migrate_overflow t
  end

(* move a slot's cells (all of one tick) into [near]; the heap orders
   them by (key, seq), so the slot list needs no sort *)
let rec append_all t n c =
  if c = nil then n
  else begin
    let next = t.links.(c) in
    heap_append t t.near c;
    append_all t (n + 1) next
  end

let drain_slot t i =
  let first = t.slots.(i) in
  if first = nil then false
  else begin
    t.slots.(i) <- nil;
    t.wheel_count <- t.wheel_count - append_all t 0 first;
    (* Floyd's heapify: O(n), against O(n log n) for one push each *)
    let h = t.near in
    for i = (h.size / 2) - 1 downto 0 do
      sift_down t h h.size h.cells.(i) i
    done;
    true
  end

(* step [base] to the next nonempty slot and drain it; top-level, so a
   scan allocates no closure (at a 1 µs tick one runs every few events) *)
let rec scan t =
  t.base <- t.base + 1;
  migrate_overflow t;
  if not (drain_slot t (t.base land t.mask)) && t.wheel_count > 0 then scan t

(* Advance [base] until [near] holds the next pending cells (or the
   wheel is truly empty).  With cells in the wheel the next nonempty
   slot is at most [nslots - 1] ticks ahead; with only far timers left
   we jump straight to the overflow's first tick.  The jump's target is
   a cost choice, not an ordering one: every slot is empty, so a base a
   tick short of it or past it files the same cells in (key, seq)
   order ([test/util.wheel] "overflow-only jump == heap" passes either
   way); the first tick puts exactly that tick's cells near. *)
let rec ensure_near t =
  if t.near.size = 0 then begin
    if t.wheel_count > 0 then scan t
    else if t.overflow.size > 0 then begin
      t.base <- max t.base (tick_of t (heap_min_key t.overflow));
      migrate_overflow t;
      ensure_near t
    end
  end

(* ------------------------------------------------------------------ *)
(* Popping *)

let peek t =
  ensure_near t;
  if t.near.size = 0 then None
  else
    let c = t.near.cells.(0) in
    Some (Float.Array.unsafe_get t.keys c, t.values.(c))

let pop_due t ~strict ~stop ~key =
  ensure_near t;
  if t.near.size = 0 then raise_notrace Not_found;
  let k = heap_min_key t.near in
  if (if strict then k >= stop else k > stop) then raise_notrace Not_found;
  let c = heap_pop t t.near in
  Float.Array.set key 0 k;
  let v = t.values.(c) in
  release t c;
  v

let clear t =
  Array.fill t.values 0 (Array.length t.values) (vacant ());
  t.free <- nil;
  free_range t 0 (Array.length t.seqs);
  t.near.size <- 0;
  t.overflow.size <- 0;
  if t.wheel_count > 0 then Array.fill t.slots 0 t.nslots nil;
  t.wheel_count <- 0
