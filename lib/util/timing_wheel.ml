(** Hierarchical timing wheel: the priority queue behind the
    discrete-event simulator's hot path.

    A binary heap pays O(log n) float-compare sifts on every push and
    pop; a simulator scheduling one closure per packet hop does both per
    event.  Most of those events are {e near-future} — link serialization
    and propagation, queue drains, control-channel latency — so this
    structure buckets them into fixed-width time slots ([tick] seconds,
    [slots] of them) and only pays heap costs within one slot:

    - events landing in the {e current} tick go to a small [near] heap
      (usually a handful of entries), which preserves the exact
      (key, insertion-order) execution order of the reference heap;
    - events within the wheel horizon ([slots * tick] seconds ahead) are
      consed onto their slot's list in O(1);
    - far timers (retransmission timeouts, expiry sweeps, periodic
      polls) overflow to a fallback {!Heap} and migrate into the wheel
      as its base advances.

    Execution order is {e identical} to {!Heap}'s: slot assignment is a
    monotone function of the key, entries carry their global insertion
    sequence through every migration, and each slot is drained through
    the [near] heap sorted by (key, seq).  The [test/util.wheel] suite
    pins this equivalence property, including ties, and
    [test/dataplane.sim] pins it through {!Dataplane.Sim}.

    Tick width and slot count trade memory against how much of the
    schedule stays O(1): the defaults (16 µs ticks, 1024 slots ≈ 16 ms
    horizon) cover link and control-channel delays of the simulated
    networks; the [create] arguments override them in tests. *)

type 'a entry = { key : float; seq : int; value : 'a }

type 'a t = {
  tick : float;               (* slot width, seconds *)
  inv_tick : float;
  nslots : int;               (* power of two *)
  mask : int;
  slots : 'a entry list array;  (* unsorted; one pending tick per slot *)
  mutable wheel_count : int;  (* entries filed in [slots] *)
  mutable base : int;         (* tick number of the current slot *)
  near : 'a Heap.t;           (* entries with tick <= base, exact order *)
  overflow : 'a Heap.t;       (* entries beyond the wheel horizon *)
  mutable next_seq : int;     (* global tie-break counter *)
}

(* round up to a power of two for mask indexing *)
let pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 2

let create ?(tick = 16e-6) ?(slots = 1024) () =
  if tick <= 0.0 then invalid_arg "Timing_wheel.create: tick must be positive";
  let nslots = pow2 slots in
  { tick; inv_tick = 1.0 /. tick; nslots; mask = nslots - 1;
    slots = Array.make nslots []; wheel_count = 0; base = 0;
    near = Heap.create (); overflow = Heap.create (); next_seq = 0 }

let length t = Heap.length t.near + t.wheel_count + Heap.length t.overflow
let is_empty t = length t = 0

(* floor(key / tick): monotone in key, so inter-tick order is key order
   and quantization can never reorder events *)
let tick_of t key = int_of_float (key *. t.inv_tick)

(* route an entry to the stage its tick calls for *)
let file t e =
  let tk = tick_of t e.key in
  if tk <= t.base then Heap.push_seq t.near e.key ~seq:e.seq e.value
  else if tk - t.base < t.nslots then begin
    let i = tk land t.mask in
    t.slots.(i) <- e :: t.slots.(i);
    t.wheel_count <- t.wheel_count + 1
  end
  else Heap.push_seq t.overflow e.key ~seq:e.seq e.value

(** [push t key value] schedules [value] at [key] (seconds, must be
    finite and non-negative); ties execute in insertion order. *)
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
   through [pop_seq]/[push_seq] and slot drains sort by [(key, seq)].
   Both properties are pinned by the [test/util.wheel] horizon-boundary
   regression tests. *)
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

(* entries of one slot share a tick; feed them to [near] in exact
   (key, seq) order *)
let entry_cmp a b =
  match Float.compare a.key b.key with 0 -> compare a.seq b.seq | c -> c

let drain_slot t i =
  match t.slots.(i) with
  | [] -> false
  | l ->
    t.slots.(i) <- [];
    t.wheel_count <- t.wheel_count - List.length l;
    List.iter (fun e -> Heap.push_seq t.near e.key ~seq:e.seq e.value)
      (List.sort entry_cmp l);
    true

(* Advance [base] until [near] holds the next pending entries (or the
   wheel is truly empty).  With entries in the wheel the next nonempty
   slot is at most [nslots - 1] ticks ahead; with only far timers left
   we jump straight to the overflow's first tick. *)
let rec ensure_near t =
  if Heap.is_empty t.near then begin
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

(** [peek t] returns [Some (key, value)] for the earliest entry without
    removing it, or [None] when the wheel is empty.  (Advances internal
    cursors; the logical contents are unchanged.) *)
let peek t =
  ensure_near t;
  Heap.peek t.near

(** [pop t] removes and returns the earliest entry.
    @raise Not_found when the wheel is empty. *)
let pop t =
  ensure_near t;
  Heap.pop t.near

(** [pop_until t ~stop] is the simulator's fused peek-and-pop: [`Event]
    with the earliest entry when its key is <= [stop], [`Beyond] when
    entries remain but the earliest is past [stop], [`Empty] otherwise.
    With [~strict:true] the bound is exclusive (entries at exactly
    [stop] stay queued) — the sharded simulator's conservative windows
    are half-open intervals.  Same-tick drains stay inside the [near]
    heap — no wheel advance, no global re-peek per event. *)
let pop_until ?(strict = false) t ~stop =
  ensure_near t;
  match Heap.peek t.near with
  | None -> `Empty
  | Some (key, _) when (if strict then key >= stop else key > stop) -> `Beyond
  | Some _ ->
    let key, value = Heap.pop t.near in
    `Event (key, value)

let clear t =
  Heap.clear t.near;
  Heap.clear t.overflow;
  if t.wheel_count > 0 then Array.fill t.slots 0 t.nslots [];
  t.wheel_count <- 0

(** Drains a copy of the queue in execution order (the queue itself is
    consumed — diagnostic/test use). *)
let drain_to_list t =
  let rec go acc =
    match pop t with
    | exception Not_found -> List.rev acc
    | key, value -> go ((key, value) :: acc)
  in
  go []
