(* Unit and property tests for the util substrate: byte codecs, heap,
   PRNG, statistics. *)

open Util

let check = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Bits *)

let test_bits_roundtrip () =
  let b = Bytes.make 16 '\000' in
  Bits.set_u8 b 0 0xab;
  check "u8" 0xab (Bits.get_u8 b 0);
  Bits.set_u16 b 1 0xbeef;
  check "u16" 0xbeef (Bits.get_u16 b 1);
  Bits.set_u32 b 3 0xdeadbeef;
  check "u32" 0xdeadbeef (Bits.get_u32 b 3);
  Bits.set_u48 b 7 0xaabbccddeeff;
  check "u48" 0xaabbccddeeff (Bits.get_u48 b 7)

let test_bits_u64 () =
  let b = Bytes.make 8 '\000' in
  Bits.set_u64 b 0 0x0123456789abcdefL;
  Alcotest.(check int64) "u64" 0x0123456789abcdefL (Bits.get_u64 b 0)

let test_bits_big_endian () =
  let b = Bytes.make 4 '\000' in
  Bits.set_u32 b 0 0x01020304;
  check "msb first" 1 (Bits.get_u8 b 0);
  check "lsb last" 4 (Bits.get_u8 b 3)

let test_bits_checksum () =
  (* RFC 1071 example: checksum of the header with checksum zero, then
     verifying over the full header yields zero *)
  let b = Bytes.make 8 '\000' in
  Bits.set_u16 b 0 0x4500;
  Bits.set_u16 b 2 0x0073;
  Bits.set_u16 b 4 0x0000;
  Bits.set_u16 b 6 0x4011;
  let ck = Bits.ones_complement_sum b 0 8 in
  Bits.set_u16 b 4 ck;
  check "verifies to zero" 0 (Bits.ones_complement_sum b 0 8)

let test_bits_checksum_odd_length () =
  let b = Bytes.of_string "\x12\x34\x56" in
  (* odd trailing byte is padded on the right *)
  let expected = lnot (0x1234 + 0x5600) land 0xffff in
  check "odd" expected (Bits.ones_complement_sum b 0 3)

let test_hex_dump () =
  let b = Bytes.of_string "\x00\x01\x02" in
  Alcotest.(check string) "dump" "0000: 00 01 02 \n" (Bits.hex_dump b)

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h k (int_of_float k)) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = List.map snd (Heap.to_sorted_list h) in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] order;
  check "length preserved" 5 (Heap.length h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  Heap.push h 1.0 "a";
  Heap.push h 1.0 "b";
  Heap.push h 1.0 "c";
  let _, x = Heap.pop h in
  let _, y = Heap.pop h in
  let _, z = Heap.pop h in
  Alcotest.(check (list string)) "insertion order on ties" [ "a"; "b"; "c" ]
    [ x; y; z ]

let test_heap_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.check_raises "pop raises" Not_found (fun () ->
    ignore (Heap.pop (Heap.create () : int Heap.t)))

let test_heap_interleaved () =
  let h = Heap.create () in
  Heap.push h 3.0 3;
  Heap.push h 1.0 1;
  let _, a = Heap.pop h in
  Heap.push h 2.0 2;
  Heap.push h 0.5 0;
  let _, b = Heap.pop h in
  let _, c = Heap.pop h in
  let _, d = Heap.pop h in
  Alcotest.(check (list int)) "interleaved" [ 1; 0; 2; 3 ] [ a; b; c; d ]

(* regression: pop and clear must null out vacated slots — the heap
   used to keep popped entries alive in its backing array, retaining
   every executed simulator event for the heap's lifetime *)
let test_heap_releases_popped () =
  let h = Heap.create () in
  let live = Weak.create 4 in
  List.iteri
    (fun i k ->
      let payload = ref (k, String.make 64 'p') in
      Weak.set live i (Some payload);
      Heap.push h k payload)
    [ 4.0; 2.0; 1.0; 3.0 ];
  (* pop two, clear the rest; no payload may survive a full GC *)
  ignore (Heap.pop h);
  ignore (Heap.pop h);
  Heap.clear h;
  Gc.full_major ();
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "payload %d collected" i)
      false (Weak.check live i)
  done;
  (* draining via pop alone must release too *)
  Heap.push h 1.0 (ref (1.0, "x"));
  Heap.push h 2.0 (ref (2.0, "y"));
  ignore (Heap.pop h);
  ignore (Heap.pop h);
  let w = Weak.create 1 in
  let p = ref (9.0, "z") in
  Weak.set w 0 (Some p);
  Heap.push h 9.0 p;
  ignore (Heap.pop h);
  Gc.full_major ();
  Alcotest.(check bool) "fully popped payload collected" false (Weak.check w 0)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted key order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.push h k k) keys;
      let drained = List.map fst (Heap.to_sorted_list h) in
      drained = List.sort compare keys)

(* ------------------------------------------------------------------ *)
(* Timing wheel *)

(* The wheel pops only through [pop_due], the simulator's fused
   peek-and-pop; these views of it keep the tests readable. *)
let wheel_pop w =
  let key = Float.Array.make 1 nan in
  let v = Timing_wheel.pop_due w ~strict:false ~stop:infinity ~key in
  (Float.Array.get key 0, v)

let wheel_pop_until ?(strict = false) w ~stop =
  let key = Float.Array.make 1 nan in
  match Timing_wheel.pop_due w ~strict ~stop ~key with
  | v -> `Event (Float.Array.get key 0, v)
  | exception Not_found -> if Timing_wheel.is_empty w then `Empty else `Beyond

let wheel_drain w =
  let rec go acc =
    match wheel_pop w with
    | exception Not_found -> List.rev acc
    | kv -> go (kv :: acc)
  in
  go []

let test_wheel_order () =
  let w = Timing_wheel.create ~tick:1e-3 ~slots:16 () in
  List.iter
    (fun k -> Timing_wheel.push w k (int_of_float (k *. 10.0)))
    [ 0.5; 0.1; 0.3; 0.2; 0.4 ];
  check "length" 5 (Timing_wheel.length w);
  let order = List.map snd (wheel_drain w) in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] order

let test_wheel_fifo_ties () =
  let w = Timing_wheel.create ~tick:1e-3 ~slots:16 () in
  Timing_wheel.push w 1.0 "a";
  Timing_wheel.push w 1.0 "b";
  Timing_wheel.push w 1.0 "c";
  Alcotest.(check (list string)) "insertion order on ties" [ "a"; "b"; "c" ]
    (List.map snd (wheel_drain w))

let test_wheel_overflow_migrates () =
  (* horizon is 16 ms; events at 1 s land in the overflow heap and must
     still come out in order, ties included *)
  let w = Timing_wheel.create ~tick:1e-3 ~slots:16 () in
  Timing_wheel.push w 1.0 "far-a";
  Timing_wheel.push w 0.001 "near";
  Timing_wheel.push w 1.0 "far-b";
  Timing_wheel.push w 0.5 "mid";
  Alcotest.(check (list string)) "overflow drains in order"
    [ "near"; "mid"; "far-a"; "far-b" ]
    (List.map snd (wheel_drain w))

let test_wheel_pop_until () =
  let w = Timing_wheel.create ~tick:1e-3 ~slots:16 () in
  (match wheel_pop_until w ~stop:1.0 with
   | `Empty -> ()
   | _ -> Alcotest.fail "expected `Empty");
  Timing_wheel.push w 2.0 "late";
  (match wheel_pop_until w ~stop:1.0 with
   | `Beyond -> ()
   | _ -> Alcotest.fail "expected `Beyond");
  (match wheel_pop_until w ~stop:3.0 with
   | `Event (k, "late") -> checkf "key" 2.0 k
   | _ -> Alcotest.fail "expected `Event");
  match wheel_pop_until w ~stop:3.0 with
  | `Empty -> ()
  | _ -> Alcotest.fail "expected `Empty after drain"

(* Horizon boundary.  A cell whose tick is exactly [base + nslots]
   aliases the current base slot under the power-of-two mask.  [file]
   keeps it in the overflow until the base advances; these tests pin
   its order against the other stages, and same-instant FIFO order
   across the overflow -> slot migration. *)

let test_wheel_horizon_boundary () =
  (* whole-second ticks make tick_of exact: no float-quantization noise *)
  let w = Timing_wheel.create ~tick:1.0 ~slots:16 () in
  (* 16.0 is exactly nslots ticks ahead of base 0: the aliasing case *)
  Timing_wheel.push w 16.0 "boundary";
  Timing_wheel.push w 5.0 "mid";
  Timing_wheel.push w 15.0 "edge";
  Alcotest.(check (list string))
    "boundary entry never jumps the intervening slots"
    [ "mid"; "edge"; "boundary" ]
    (List.map snd (wheel_drain w))

let test_wheel_horizon_boundary_fifo () =
  (* three same-instant entries beyond the horizon must keep insertion
     order through migration, and interleave correctly with an entry
     pushed directly once the base has advanced to their tick *)
  let w = Timing_wheel.create ~tick:1.0 ~slots:16 () in
  Timing_wheel.push w 20.0 "a";
  Timing_wheel.push w 20.0 "b";
  Timing_wheel.push w 1.0 "near";
  Timing_wheel.push w 20.0 "c";
  (match wheel_pop w with
   | _, "near" -> ()
   | _ -> Alcotest.fail "expected near first");
  (* base has jumped to tick 20 and a/b/c migrated; a fresh push at the
     same instant must come after them (global seq order) *)
  Timing_wheel.push w 20.0 "d";
  Alcotest.(check (list string)) "FIFO preserved across migration"
    [ "a"; "b"; "c"; "d" ]
    (List.map snd (wheel_drain w))

(* Run [ops] ([`Push key] or [`Pop]) on a whole-second wheel of 16
   slots and on a {!Heap}, then drain both: the two traces must agree.
   Whole-second ticks make [tick_of] exact, so a key names its tick. *)
let check_against_heap msg ops =
  let w = Timing_wheel.create ~tick:1.0 ~slots:16 () in
  let h = Heap.create () in
  let id = ref 0 and trace_w = ref [] and trace_h = ref [] in
  List.iter
    (function
      | `Push k ->
        incr id;
        Timing_wheel.push w k !id;
        Heap.push h k !id
      | `Pop ->
        trace_w := wheel_pop w :: !trace_w;
        trace_h := Heap.pop h :: !trace_h)
    ops;
  Alcotest.(check (list (pair (float 0.0) int))) msg
    (List.rev !trace_h @ Heap.to_sorted_list h)
    (List.rev !trace_w @ wheel_drain w)

(* cells filed at exactly [base + nslots] once the base has moved off
   0 (and one tick either side of it), with ties, pushed while the
   near heap still holds the current tick *)
let test_wheel_filed_at_horizon () =
  check_against_heap "== heap"
    [ `Push 3.0; `Push 4.0; `Pop;  (* base 3 *)
      `Push 19.0; `Push 20.0; `Push 18.0; `Push 4.0; `Push 19.0;
      `Pop;  (* base 4; the second 4.0 still near *)
      `Push 20.0; `Push 21.0; `Push 36.0; `Pop; `Pop;
      `Push 34.0; `Push 35.0; `Push 20.0 ]

(* a wheel holding only overflow cells jumps its base to the first
   one's tick, then pulls what fits under the new horizon: the first
   tick's cells go near, the rest to slots, and a cell exactly
   [nslots] past the jump stays in the overflow *)
let test_wheel_overflow_jump () =
  check_against_heap "== heap"
    [ `Push 100.0; `Push 100.5; `Push 115.0; `Push 116.0; `Push 117.0;
      `Push 100.0; `Push 300.0;
      `Pop;  (* base jumps to 100 *)
      `Push 116.0; `Push 100.2; `Push 132.0; `Pop; `Pop; `Pop; `Pop;
      `Push 131.0; `Push 132.0 ]

let test_wheel_pop_until_strict () =
  let w = Timing_wheel.create ~tick:1e-3 ~slots:16 () in
  Timing_wheel.push w 1.0 "at-stop";
  (match wheel_pop_until ~strict:true w ~stop:1.0 with
   | `Beyond -> ()
   | _ -> Alcotest.fail "strict: entry at stop stays queued");
  (match wheel_pop_until w ~stop:1.0 with
   | `Event (_, "at-stop") -> ()
   | _ -> Alcotest.fail "inclusive: entry at stop pops");
  check "nothing left" 0 (Timing_wheel.length w)

(* A key whose tick does not fit in an [int] (here [1e300] and
   [infinity] at 1 ms ticks) saturates into the overflow and waits
   behind every finite-ticked entry; an unchecked [int_of_float] would
   wrap it to a tick in the past and pop it first. *)
let test_wheel_huge_keys () =
  let w = Timing_wheel.create ~tick:1e-3 ~slots:16 () in
  Timing_wheel.push w infinity "inf";
  Timing_wheel.push w 1e300 "huge";
  Timing_wheel.push w 1.0 "t1";
  Timing_wheel.push w 2.0 "t2";
  Timing_wheel.push w 1e300 "huge2";
  (match wheel_pop_until w ~stop:3.0 with
   | `Event (_, "t1") -> ()
   | _ -> Alcotest.fail "expected t1 first");
  (match wheel_pop_until w ~stop:3.0 with
   | `Event (_, "t2") -> ()
   | _ -> Alcotest.fail "expected t2 second");
  (match wheel_pop_until w ~stop:3.0 with
   | `Beyond -> ()
   | _ -> Alcotest.fail "expected the huge keys beyond t=3");
  Alcotest.(check (list string)) "huge keys in key, then insertion, order"
    [ "huge"; "huge2"; "inf" ]
    (List.map snd (wheel_drain w))

(* The heap's no-retention property ("releases popped payloads"),
   applied to the wheel: a popped (or cleared) event closure is garbage
   once the caller drops it, whichever stage held it — the near heap's
   vacated array slots are overwritten, not left pointing at the
   entry. *)
let test_wheel_releases_popped () =
  let w = Timing_wheel.create ~tick:1e-3 ~slots:16 () in
  let live = Weak.create 6 in
  (* keys 0 (near), 0.005 (a slot), 1.0 (overflow) *)
  List.iteri
    (fun i k ->
      let payload = String.make 64 (Char.chr (65 + i)) in
      let f () = ignore (Sys.opaque_identity payload) in
      Weak.set live i (Some f);
      Timing_wheel.push w k f)
    [ 0.0; 0.0; 0.005; 0.005; 1.0; 1.0 ];
  for _ = 1 to 4 do
    match wheel_pop_until w ~stop:0.5 with
    | `Event (_, f) -> f ()
    | `Beyond | `Empty -> Alcotest.fail "expected an event"
  done;
  Gc.full_major ();
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "popped closure %d collected" i)
      false (Weak.check live i)
  done;
  Timing_wheel.clear w;
  Gc.full_major ();
  for i = 4 to 5 do
    Alcotest.(check bool)
      (Printf.sprintf "cleared closure %d collected" i)
      false (Weak.check live i)
  done

(* the tentpole property: wheel and heap agree on execution order for
   any push/pop interleaving — ties (identical keys) resolved by
   insertion order in both.  Keys mix sub-tick, in-horizon and
   over-horizon values so every wheel stage is exercised. *)
let prop_wheel_heap_equivalent =
  let gen =
    QCheck.Gen.(
      list_size (1 -- 120)
        (oneof
           [ (* push with key from a deliberately collision-happy set *)
             map
               (fun k -> `Push (float_of_int k *. 0.004))
               (oneof [ int_bound 8; int_bound 64; int_bound 5000 ]);
             return `Pop ]))
  in
  QCheck.Test.make
    ~name:"timing wheel == heap on any interleaving (ties included)"
    ~count:300 (QCheck.make gen)
    (fun ops ->
      let w = Timing_wheel.create ~tick:1e-3 ~slots:16 () in
      let h = Heap.create () in
      let id = ref 0 in
      let trace_w = ref [] and trace_h = ref [] in
      List.iter
        (fun op ->
          match op with
          | `Push k ->
            incr id;
            Timing_wheel.push w k !id;
            Heap.push h k !id
          | `Pop ->
            (match wheel_pop w with
             | exception Not_found -> ()
             | k, v -> trace_w := (k, v) :: !trace_w);
            (match Heap.pop h with
             | exception Not_found -> ()
             | k, v -> trace_h := (k, v) :: !trace_h))
        ops;
      List.iter (fun e -> trace_w := e :: !trace_w) (wheel_drain w);
      List.iter (fun e -> trace_h := e :: !trace_h) (Heap.to_sorted_list h);
      !trace_w = !trace_h)

(* The same equivalence driven the way the simulator drives the wheel:
   pushes at or after the current instant (the last popped key),
   including at exactly the current instant, interleaved with bounded
   pops ([pop_until], inclusive and strict).  The heap answers the same
   bounded pop by peeking first. *)
let prop_wheel_heap_pop_until =
  let gen =
    QCheck.Gen.(
      list_size (1 -- 150)
        (oneof
           [ map
               (fun d -> `Push (float_of_int d *. 0.004))
               (oneof [ return 0; int_bound 8; int_bound 64; int_bound 5000 ]);
             map2
               (fun strict d -> `Pop_until (strict, float_of_int d *. 0.004))
               bool
               (oneof [ return 0; int_bound 8; int_bound 64; int_bound 5000 ])
           ]))
  in
  QCheck.Test.make
    ~name:"timing wheel == heap under pop_until and same-instant pushes"
    ~count:300 (QCheck.make gen)
    (fun ops ->
      let w = Timing_wheel.create ~tick:1e-3 ~slots:16 () in
      let h = Heap.create () in
      let now = ref 0.0 and id = ref 0 in
      let heap_pop_until ~strict ~stop =
        match Heap.peek h with
        | None -> `Empty
        | Some (k, _) when (if strict then k >= stop else k > stop) -> `Beyond
        | Some _ ->
          let k, v = Heap.pop h in
          `Event (k, v)
      in
      List.for_all
        (fun op ->
          match op with
          | `Push d ->
            incr id;
            Timing_wheel.push w (!now +. d) !id;
            Heap.push h (!now +. d) !id;
            true
          | `Pop_until (strict, d) ->
            let stop = !now +. d in
            let rw = wheel_pop_until ~strict w ~stop in
            let rh = heap_pop_until ~strict ~stop in
            (match rh with `Event (k, _) -> now := k | `Beyond | `Empty -> ());
            rw = rh)
        ops
      && wheel_drain w = Heap.to_sorted_list h)

(* Cell reuse: every push takes a cell off the free list, so the
   equivalence must survive cells coming back while others are live.
   Each round opens with a burst filed in one slot 5 ticks ahead (more
   than the 64 cells of the wheel's first growth, so the cell arrays
   grow again, and draining that slot grows the near heap's arrays),
   then alternates one push with one pop, keeping the burst's count in
   flight while popped cells are reused.  Delays put the pushes in all
   three stages: the current tick (near), the horizon (a slot) and
   beyond it (overflow).  The first round ends with a [clear] of a
   wheel holding cells in every stage; the second, twice as large,
   runs on the cleared cells and grows the arrays again, then drains.
   Pops follow [Heap] order throughout. *)
let prop_wheel_reuses_cells =
  let stage_delay =
    QCheck.Gen.(
      oneof
        [ return 0.0;
          map (fun k -> float_of_int k *. 1e-3) (1 -- 15);
          map (fun k -> float_of_int k *. 1e-3) (16 -- 200) ])
  in
  QCheck.Test.make ~name:"timing wheel reuses cells, before and after clear"
    ~count:100
    (QCheck.make QCheck.Gen.(list_size (1 -- 200) stage_delay))
    (fun delays ->
      let w = Timing_wheel.create ~tick:1e-3 ~slots:16 () in
      let now = ref 0.0 and id = ref 0 in
      let round burst =
        let h = Heap.create () in
        let push d =
          incr id;
          Timing_wheel.push w (!now +. d) !id;
          Heap.push h (!now +. d) !id
        in
        for _ = 1 to burst do
          push 0.005
        done;
        let in_order =
          List.for_all
            (fun d ->
              push d;
              let ((k, _) as e) = wheel_pop w in
              now := k;
              e = Heap.pop h && Timing_wheel.length w = burst)
            delays
        in
        (in_order, h)
      in
      let first, _ = round 80 in
      Timing_wheel.clear w;
      let emptied = Timing_wheel.is_empty w in
      let second, h = round 160 in
      first && emptied && second && wheel_drain w = Heap.to_sorted_list h)

(* The simulator's own wheel ([create ()]: 1 µs ticks, 1024 slots, so a
   horizon of about 1 ms) against the heap, on the schedule a fabric
   gives it: link events a fraction of a microsecond to tens of
   microseconds ahead (many in the current tick or sharing one), control
   frames 1 ms ahead plus a few µs of jitter, which lands right at the
   horizon, and far timers (retransmits, expiry sweeps) in the overflow.
   Pushes are relative to the last popped key, as the simulator's are,
   and pops are bounded like its runs. *)
let prop_default_wheel_heap =
  let open QCheck.Gen in
  let us n = float_of_int n *. 1e-6 in
  let delay =
    frequency
      [ (6, map (fun q -> float_of_int q *. 0.25e-6) (int_bound 120));
        (3, map (fun j -> us (1000 + j)) (int_range (-2) 40));
        (1, map (fun ms -> float_of_int ms *. 1e-3) (2 -- 1500)) ]
  in
  let gen_op =
    frequency
      [ (3, map (fun d -> `Push d) delay);
        (2, map2 (fun strict d -> `Pop_until (strict, d)) bool delay) ]
  in
  QCheck.Test.make ~name:"default wheel == heap on a fabric's schedule"
    ~count:300
    (QCheck.make (list_size (1 -- 300) gen_op))
    (fun ops ->
      let w = Timing_wheel.create () in
      let h = Heap.create () in
      let now = ref 0.0 and id = ref 0 in
      let heap_pop_until ~strict ~stop =
        match Heap.peek h with
        | None -> `Empty
        | Some (k, _) when (if strict then k >= stop else k > stop) -> `Beyond
        | Some _ ->
          let k, v = Heap.pop h in
          `Event (k, v)
      in
      List.for_all
        (fun op ->
          match op with
          | `Push d ->
            incr id;
            Timing_wheel.push w (!now +. d) !id;
            Heap.push h (!now +. d) !id;
            true
          | `Pop_until (strict, d) ->
            let stop = !now +. d in
            let rw = wheel_pop_until ~strict w ~stop in
            let rh = heap_pop_until ~strict ~stop in
            (match rh with `Event (k, _) -> now := k | `Beyond | `Empty -> ());
            rw = rh)
        ops
      && wheel_drain w = Heap.to_sorted_list h)

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  let xs = List.init 10 (fun _ -> Prng.int a 1000) in
  let ys = List.init 10 (fun _ -> Prng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_prng_bounds () =
  let p = Prng.create 1 in
  for _ = 1 to 1000 do
    let v = Prng.int p 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_float_bounds () =
  let p = Prng.create 2 in
  for _ = 1 to 1000 do
    let v = Prng.float p 3.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 3.5)
  done

let test_prng_split_independent () =
  let p = Prng.create 3 in
  let q = Prng.split p in
  let xs = List.init 5 (fun _ -> Prng.int p 1000) in
  let ys = List.init 5 (fun _ -> Prng.int q 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_prng_exponential_positive () =
  let p = Prng.create 4 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "positive" true (Prng.exponential p ~mean:2.0 > 0.0)
  done

let test_prng_exponential_mean () =
  let p = Prng.create 5 in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential p ~mean:2.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean close to 2" true (abs_float (mean -. 2.0) < 0.1)

let test_prng_shuffle_permutation () =
  let p = Prng.create 6 in
  let arr = Array.init 20 (fun i -> i) in
  Prng.shuffle p arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 (fun i -> i)) sorted

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_online_mean_var () =
  let o = Stats.Online.create () in
  List.iter (Stats.Online.add o) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  checkf "mean" 5.0 (Stats.Online.mean o);
  Alcotest.(check (float 1e-6)) "sample variance" (32.0 /. 7.0)
    (Stats.Online.variance o);
  checkf "min" 2.0 (Stats.Online.min_value o);
  checkf "max" 9.0 (Stats.Online.max_value o)

let test_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  checkf "p0" 1.0 (Stats.percentile xs 0.0);
  checkf "p50" 3.0 (Stats.percentile xs 50.0);
  checkf "p100" 5.0 (Stats.percentile xs 100.0);
  checkf "p25" 2.0 (Stats.percentile xs 25.0);
  checkf "interp" 3.5 (Stats.percentile xs 62.5)

let test_percentile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty")
    (fun () -> ignore (Stats.percentile [] 50.0));
  Alcotest.check_raises "range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile [ 1.0 ] 101.0));
  (* nan has no rank: reject it rather than letting the sort scatter it *)
  Alcotest.check_raises "nan" (Invalid_argument "Stats.percentile: nan")
    (fun () -> ignore (Stats.percentile [ 1.0; Float.nan; 2.0 ] 50.0))

let test_percentile_float_order () =
  (* Float.compare (not polymorphic compare) must drive the sort: -0. and
     0. compare equal polymorphically but order deterministically here,
     and negatives sort before positives *)
  let xs = [ 0.0; -0.0; -1.0; 1.0 ] in
  checkf "min is -1" (-1.0) (Stats.percentile xs 0.0);
  checkf "max is 1" 1.0 (Stats.percentile xs 100.0);
  checkf "median straddles zero" 0.0 (Stats.percentile xs 50.0)

let test_jain () =
  checkf "equal is 1" 1.0 (Stats.jain_fairness [ 5.0; 5.0; 5.0 ]);
  checkf "one hog" (1.0 /. 3.0) (Stats.jain_fairness [ 9.0; 0.0; 0.0 ]);
  checkf "all zero" 1.0 (Stats.jain_fairness [ 0.0; 0.0 ])

let test_series_rate () =
  let s = Stats.Series.create () in
  Stats.Series.add s ~time:0.0 ~value:0.0;
  Stats.Series.add s ~time:2.0 ~value:10.0;
  checkf "rate" 5.0 (Stats.Series.rate s);
  check "length" 2 (Stats.Series.length s)

(* ------------------------------------------------------------------ *)
(* Gbn: the go-back-N sender and its retransmission timeout *)

(* a sender on a hand-driven clock.  [rto] is the delay of the timer
   armed last, [fire] runs that timer, [sent] lists the transmissions
   (number, resent?) newest first. *)
type harness = {
  g : unit Gbn.t;
  clock : float ref;
  armed : (float * (unit -> unit)) list ref;
  sent : (int * bool) list ref;
}

let harness ?(window = 8) ~initial ~backoff ~cap () =
  let clock = ref 0.0 and armed = ref [] and sent = ref [] in
  let g =
    Gbn.create ~window ~initial ~backoff ~cap
      ~now:(fun () -> !clock)
      ~schedule:(fun d f -> armed := (d, f) :: !armed)
      ~send:(fun ~retransmit n () -> sent := (n, retransmit) :: !sent)
  in
  Gbn.resume g;
  { g; clock; armed; sent }

let rto h = match !(h.armed) with (d, _) :: _ -> d | [] -> nan
let fire h = match !(h.armed) with (_, f) :: _ -> f () | [] -> ()

(* push one unit, wait [rtt], ack it: one RTT sample *)
let round_trip h rtt =
  let n = Gbn.next_seq h.g in
  Gbn.push h.g ();
  h.clock := !(h.clock) +. rtt;
  check "acked" 1 (Gbn.ack h.g n)

(* the timeout a fresh send arms now *)
let next_rto h =
  Gbn.push h.g ();
  rto h

let check_estimate msg expected h =
  Alcotest.(check (option (pair (float 1e-12) (float 1e-12)))) msg expected
    (Gbn.estimate h.g)

(* RFC 6298 2.2/2.3, worked by hand *)
let test_rto_rfc6298 () =
  let h = harness ~initial:1.0 ~backoff:2.0 ~cap:60.0 () in
  check_estimate "no sample yet" None h;
  round_trip h 0.1;
  check_estimate "first sample" (Some (0.1, 0.05)) h;
  checkf "SRTT + 4 RTTVAR" 0.3 (next_rto h);
  h.clock := !(h.clock) +. 0.2;
  check "acked" 1 (Gbn.ack h.g 1);
  check_estimate "second sample" (Some (0.1125, 0.0625)) h;
  checkf "second RTO" 0.3625 (next_rto h);
  h.clock := !(h.clock) +. 0.05;
  check "acked" 1 (Gbn.ack h.g 2);
  check_estimate "third sample" (Some (0.1046875, 0.0625)) h;
  checkf "third RTO" 0.3546875 (next_rto h)

let test_rto_backoff_cap () =
  let h = harness ~initial:0.02 ~backoff:2.0 ~cap:0.1 () in
  checkf "initial RTO" 0.02 (next_rto h);
  List.iter
    (fun expected ->
      fire h;
      checkf "backed off" expected (rto h))
    [ 0.04; 0.08; 0.1; 0.1 ];
  check "acked" 1 (Gbn.ack h.g 0);
  check_estimate "a resent unit is not timed" None h;
  checkf "an ack before any sample returns to the initial RTO" 0.02
    (next_rto h);
  h.clock := !(h.clock) +. 0.5;
  check "acked" 1 (Gbn.ack h.g 1);
  checkf "the estimate is capped too" 0.1 (next_rto h)

(* Karn's rule: the ack of a resent unit carries no sample, and only
   undoes the backoff *)
let test_rto_karn () =
  let h = harness ~initial:0.02 ~backoff:2.0 ~cap:0.5 () in
  round_trip h 0.002;
  let before = Gbn.estimate h.g and rto0 = next_rto h in
  fire h;
  fire h;
  Alcotest.(check bool) "backed off" true (rto h > rto0);
  h.clock := !(h.clock) +. 0.3;
  check "acked" 1 (Gbn.ack h.g 1);
  check_estimate "SRTT/RTTVAR untouched" before h;
  checkf "back at the estimate" rto0 (next_rto h)

(* RTTVAR decays to 0 on a constant RTT; the clock-granularity floor
   (G = 16 µs) keeps the timer from firing with the reply *)
let test_rto_granularity_floor () =
  let h = harness ~initial:0.02 ~backoff:2.0 ~cap:0.5 () in
  for _ = 1 to 500 do
    round_trip h 0.002
  done;
  let r = next_rto h in
  Alcotest.(check bool) "strictly above the RTT" true (r > 0.002);
  checkf "by G" (0.002 +. 16e-6) r

let test_rto_rejects () =
  let arg =
    Alcotest.testable
      (fun ppf (a : Gbn.arg) ->
        Format.pp_print_string ppf
          (match a with
           | Initial -> "Initial"
           | Backoff -> "Backoff"
           | Cap -> "Cap"))
      ( = )
  in
  List.iter
    (fun (expected, initial, backoff, cap) ->
      Alcotest.(check (option arg)) "named" expected
        (Gbn.bad_arg ~initial ~backoff ~cap);
      match harness ~initial ~backoff ~cap () with
      | _ -> if expected <> None then Alcotest.fail "accepted"
      | exception Invalid_argument _ ->
        if expected = None then Alcotest.fail "rejected")
    [ (None, 0.02, 2.0, 0.5);
      (None, 0.02, 1.0, 0.02);
      (Some Initial, 0.0, 2.0, 0.5);
      (Some Initial, -1.0, 2.0, 0.5);
      (Some Initial, nan, 2.0, 0.5);
      (Some Initial, infinity, 2.0, infinity);
      (Some Backoff, 0.02, 0.5, 0.5);
      (Some Backoff, 0.02, nan, 0.5);
      (Some Backoff, 0.02, infinity, 0.5);
      (Some Cap, 0.02, 2.0, 0.01);
      (Some Cap, 0.02, 2.0, nan);
      (Some Cap, 0.02, 2.0, infinity) ];
  match harness ~window:0 ~initial:0.02 ~backoff:2.0 ~cap:0.5 () with
  | _ -> Alcotest.fail "window 0 accepted"
  | exception Invalid_argument _ -> ()

(* the window: at most [window] units unacked, a cumulative ack slides
   it, an expiry resends every outstanding unit oldest first, and a
   held sender numbers nothing until it resumes *)
let test_gbn_window () =
  let h = harness ~window:3 ~initial:0.02 ~backoff:2.0 ~cap:0.5 () in
  let sent () =
    let s = List.rev !(h.sent) in
    h.sent := [];
    s
  in
  for _ = 1 to 5 do
    Gbn.push h.g ()
  done;
  Alcotest.(check (list (pair int bool))) "a window's worth"
    [ (0, false); (1, false); (2, false) ] (sent ());
  check "a stale ack acks nothing" 0 (Gbn.ack h.g (-1));
  check "an ack past what was sent acks nothing" 0 (Gbn.ack h.g 3);
  check "cumulative ack" 2 (Gbn.ack h.g 1);
  Alcotest.(check (list (pair int bool))) "the window slides"
    [ (3, false); (4, false) ] (sent ());
  fire h;
  Alcotest.(check (list (pair int bool))) "go-back-N resend"
    [ (2, true); (3, true); (4, true) ] (sent ());
  check "reset abandons the outstanding and the queued" 3 (Gbn.reset h.g);
  Gbn.push h.g ();
  Alcotest.(check (list (pair int bool))) "held" [] (sent ());
  check "numbering continues" 5 (Gbn.next_seq h.g);
  Gbn.resume h.g;
  Alcotest.(check (list (pair int bool))) "resumed" [ (5, false) ] (sent ())

let prop_jain_bounds =
  QCheck.Test.make ~name:"jain fairness lies in [1/n, 1]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 20) (float_bound_exclusive 100.0))
    (fun xs ->
      QCheck.assume (xs <> []);
      let j = Stats.jain_fairness xs in
      let n = float_of_int (List.length xs) in
      j >= (1.0 /. n) -. 1e-9 && j <= 1.0 +. 1e-9)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 30) (float_bound_exclusive 100.0))
              (pair (float_bound_inclusive 100.0) (float_bound_inclusive 100.0)))
    (fun (xs, (p1, p2)) ->
      QCheck.assume (xs <> []);
      let lo = min p1 p2 and hi = max p1 p2 in
      Stats.percentile xs lo <= Stats.percentile xs hi +. 1e-9)

let suites =
  [ ( "util.bits",
      [ Alcotest.test_case "roundtrip widths" `Quick test_bits_roundtrip;
        Alcotest.test_case "u64 roundtrip" `Quick test_bits_u64;
        Alcotest.test_case "big endian layout" `Quick test_bits_big_endian;
        Alcotest.test_case "internet checksum" `Quick test_bits_checksum;
        Alcotest.test_case "checksum odd length" `Quick
          test_bits_checksum_odd_length;
        Alcotest.test_case "hex dump" `Quick test_hex_dump ] );
    ( "util.heap",
      [ Alcotest.test_case "sorted drain" `Quick test_heap_order;
        Alcotest.test_case "FIFO on equal keys" `Quick test_heap_fifo_ties;
        Alcotest.test_case "empty behavior" `Quick test_heap_empty;
        Alcotest.test_case "interleaved push/pop" `Quick test_heap_interleaved;
        Alcotest.test_case "releases popped payloads" `Quick
          test_heap_releases_popped;
        QCheck_alcotest.to_alcotest prop_heap_sorts ] );
    ( "util.wheel",
      [ Alcotest.test_case "sorted drain" `Quick test_wheel_order;
        Alcotest.test_case "FIFO on equal keys" `Quick test_wheel_fifo_ties;
        Alcotest.test_case "overflow migrates in order" `Quick
          test_wheel_overflow_migrates;
        Alcotest.test_case "pop_until states" `Quick test_wheel_pop_until;
        Alcotest.test_case "horizon boundary stays in overflow" `Quick
          test_wheel_horizon_boundary;
        Alcotest.test_case "FIFO across overflow migration" `Quick
          test_wheel_horizon_boundary_fifo;
        Alcotest.test_case "cells filed at the horizon == heap" `Quick
          test_wheel_filed_at_horizon;
        Alcotest.test_case "overflow-only jump == heap" `Quick
          test_wheel_overflow_jump;
        Alcotest.test_case "pop_until strict bound" `Quick
          test_wheel_pop_until_strict;
        Alcotest.test_case "huge and infinite keys wait their turn" `Quick
          test_wheel_huge_keys;
        Alcotest.test_case "releases popped closures" `Quick
          test_wheel_releases_popped;
        QCheck_alcotest.to_alcotest prop_wheel_heap_equivalent;
        QCheck_alcotest.to_alcotest prop_wheel_heap_pop_until;
        QCheck_alcotest.to_alcotest prop_wheel_reuses_cells;
        QCheck_alcotest.to_alcotest prop_default_wheel_heap ] );
    ( "util.prng",
      [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "int bounds" `Quick test_prng_bounds;
        Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
        Alcotest.test_case "split independence" `Quick
          test_prng_split_independent;
        Alcotest.test_case "exponential positive" `Quick
          test_prng_exponential_positive;
        Alcotest.test_case "exponential mean" `Slow test_prng_exponential_mean;
        Alcotest.test_case "shuffle is a permutation" `Quick
          test_prng_shuffle_permutation ] );
    ( "util.stats",
      [ Alcotest.test_case "online mean/variance" `Quick test_online_mean_var;
        Alcotest.test_case "percentiles" `Quick test_percentile;
        Alcotest.test_case "percentile errors" `Quick test_percentile_errors;
        Alcotest.test_case "percentile float order" `Quick
          test_percentile_float_order;
        Alcotest.test_case "jain fairness" `Quick test_jain;
        Alcotest.test_case "series rate" `Quick test_series_rate;
        QCheck_alcotest.to_alcotest prop_jain_bounds;
        QCheck_alcotest.to_alcotest prop_percentile_monotone ] );
    ( "util.rto",
      [ Alcotest.test_case "RFC 6298 arithmetic" `Quick test_rto_rfc6298;
        Alcotest.test_case "backoff stops at the cap" `Quick
          test_rto_backoff_cap;
        Alcotest.test_case "Karn's rule" `Quick test_rto_karn;
        Alcotest.test_case "granularity floor" `Quick
          test_rto_granularity_floor;
        Alcotest.test_case "rejects bad timers" `Quick test_rto_rejects;
        Alcotest.test_case "go-back-N window" `Quick test_gbn_window ] ) ]
