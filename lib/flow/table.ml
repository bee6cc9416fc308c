open Packet

type rule = {
  priority : int;
  pattern : Pattern.t;
  actions : Action.group;
  mutable packets : int;
  mutable bytes : int;
  mutable last_hit : float;
  idle_timeout : float option;
  cookie : int;
  mutable seq : int;
}

module Header_key = struct
  type t = Headers.t

  let equal = Headers.equal
  let hash = Headers.hash
end

module Cache = Hashtbl.Make (Header_key)

(* One tuple-space stage: every rule whose pattern has this shape, in a
   hashtable keyed on the pattern's masked field tuple.  Rules in a
   bucket (same priority-relevant key) stay sorted like the main list:
   descending priority, ascending seq. *)
type shape_entry = {
  se_shape : Pattern.shape;
  buckets : rule list Cache.t;
  mutable se_rules : int;  (* rules currently filed under this shape *)
  mutable se_max_prio : int;
      (* ceiling: the highest priority filed under this shape.  The
         classifier probes shapes in descending ceiling order and stops
         as soon as the best match so far strictly beats the next
         ceiling. *)
}

(* A megaflow mask: a union of probed shapes.  [kept] lists the fields
   it keeps (field codes, see [field]) and [kept_bits] the bits it keeps
   of each, so a hit reads, masks and mixes only those fields. *)
type mask = { shape : Pattern.shape; kept : int array; kept_bits : int array }

(* One megaflow cache entry: the verdict of every header whose
   projection under [mask] is [key]. *)
type slot = {
  mutable key : Headers.t;  (* a header masked by [mask] *)
  mutable mask : Pattern.shape;
  mutable hash : int;  (* [masked_hash] of [key] under [mask] *)
  mutable gen : int;  (* the table generation the verdict belongs to *)
  mutable verdict : rule option;
  mutable next : int;  (* next slot in the bucket chain; -1 ends it *)
  mutable referenced : bool;  (* CLOCK second-chance bit *)
}

(* Default bound on resident cache entries (live + stale). *)
let max_cache_entries = 8192

(* Slots a table starts with; the arrays double on demand up to the
   bound, so a switch that sees few flows holds a small cache. *)
let initial_slots = 16

type t = {
  mutable rules : rule list;  (* descending priority, stable within ties *)
  mutable n_rules : int;
  capacity : int option;  (* max rules, None = unbounded *)
  mutable misses : int;
  mutable hits : int;
  (* megaflow cache: [slots.(0 .. len-1)] are filled, chained from
     [heads] (a power of two, at least as many buckets as slots) *)
  cache_cap : int;
  mutable slots : slot array;
  mutable heads : int array;
  mutable len : int;
  mutable hand : int;  (* CLOCK hand, used once [len = cache_cap] *)
  mutable evictions : int;
  mutable masks : mask list;
      (* the masks of this generation's entries, in insertion order *)
  mutable generation : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable invalidations : int;
  (* tuple-space classifier: pattern shape -> per-shape hashtable *)
  shapes : (Pattern.shape, shape_entry) Hashtbl.t;
  (* the same entries sorted by descending [se_max_prio] — the probe
     order; maintained incrementally on add/remove/expire *)
  mutable shape_order : shape_entry list;
  mutable probes : int;  (* shape-table probes performed by the classifier *)
  mutable next_seq : int;
}

let empty_slot () =
  { key = Headers.default; mask = 0; hash = 0; gen = -1; verdict = None;
    next = -1; referenced = false }

let pow2_at_least n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

let create ?capacity ?(cache_entries = max_cache_entries) () =
  let cache_cap = max 1 cache_entries in
  let n = min initial_slots cache_cap in
  { rules = []; n_rules = 0; capacity; misses = 0; hits = 0; cache_cap;
    slots = Array.init n (fun _ -> empty_slot ());
    heads = Array.make (pow2_at_least n) (-1); len = 0; hand = 0;
    evictions = 0; masks = []; generation = 0; cache_hits = 0;
    cache_misses = 0; invalidations = 0; shapes = Hashtbl.create 16;
    shape_order = []; probes = 0; next_seq = 0 }

let size t = t.n_rules
let rules t = t.rules
let hits t = t.hits
let misses t = t.misses
let cache_hits t = t.cache_hits
let cache_misses t = t.cache_misses
let invalidations t = t.invalidations
let generation t = t.generation

let cache_size t = t.len

let cache_evictions t = t.evictions

let mask_count t = List.length t.masks

let shape_count t = Hashtbl.length t.shapes

let classifier_probes t = t.probes

(* O(1) invalidation: entries stamped with an older generation are dead,
   and so are their masks. *)
let invalidate t =
  t.generation <- t.generation + 1;
  t.masks <- [];
  t.invalidations <- t.invalidations + 1

(* ------------------------------------------------------------------ *)
(* Tuple-space maintenance: every rule in [t.rules] is also filed in
   its shape's hashtable, under the key [Pattern.shape_key r.pattern]. *)

(* higher priority first; earlier installation first within a tie *)
let rule_before a b =
  a.priority > b.priority || (a.priority = b.priority && a.seq < b.seq)

(* Probe-order maintenance: [t.shape_order] holds every live entry in
   descending [se_max_prio] order.  Shapes are few (E2: single digits on
   realistic tables), so remove-and-reinsert on a ceiling change is
   cheap. *)
let order_remove t se = t.shape_order <- List.filter (fun e -> e != se) t.shape_order

let order_insert t se =
  let rec ins = function
    | [] -> [ se ]
    | e :: rest when se.se_max_prio > e.se_max_prio -> se :: e :: rest
    | e :: rest -> e :: ins rest
  in
  t.shape_order <- ins t.shape_order

let classifier_insert t r =
  let shape = Pattern.shape_of r.pattern in
  let se =
    match Hashtbl.find_opt t.shapes shape with
    | Some se -> se
    | None ->
      (* filed into [shape_order] by the ceiling update below *)
      let se =
        { se_shape = shape; buckets = Cache.create 16; se_rules = 0;
          se_max_prio = min_int }
      in
      Hashtbl.replace t.shapes shape se;
      se
  in
  let key = Pattern.shape_key r.pattern in
  let bucket =
    match Cache.find_opt se.buckets key with Some l -> l | None -> []
  in
  let rec ins = function
    | [] -> [ r ]
    | x :: rest when rule_before r x -> r :: x :: rest
    | x :: rest -> x :: ins rest
  in
  Cache.replace se.buckets key (ins bucket);
  se.se_rules <- se.se_rules + 1;
  if r.priority > se.se_max_prio then begin
    order_remove t se;
    se.se_max_prio <- r.priority;
    order_insert t se
  end

let classifier_remove t r =
  let shape = Pattern.shape_of r.pattern in
  match Hashtbl.find_opt t.shapes shape with
  | None -> ()
  | Some se ->
    let key = Pattern.shape_key r.pattern in
    (match Cache.find_opt se.buckets key with
     | None -> ()
     | Some bucket ->
       (match List.filter (fun x -> x != r) bucket with
        | [] -> Cache.remove se.buckets key
        | rest -> Cache.replace se.buckets key rest);
       se.se_rules <- se.se_rules - 1;
       if se.se_rules = 0 then begin
         Hashtbl.remove t.shapes shape;
         order_remove t se
       end
       else if r.priority = se.se_max_prio then begin
         (* the ceiling may have dropped: every bucket is sorted with
            its highest priority first, so the new ceiling is the max
            over bucket heads *)
         let m =
           Cache.fold
             (fun _ bucket acc ->
               match bucket with
               | x :: _ when x.priority > acc -> x.priority
               | _ -> acc)
             se.buckets min_int
         in
         if m <> se.se_max_prio then begin
           order_remove t se;
           se.se_max_prio <- m;
           order_insert t se
         end
       end)

(* The classifier proper: the winning rule, and the union of the shapes
   it probed.  Every header that agrees with [h] on that union projects
   to the same keys in the probed shapes, so it takes the same probes,
   stops at the same shape and gets the same verdict. *)
let classify t (h : Headers.t) =
  let rec go best mask = function
    | [] -> (best, mask)
    | se :: rest ->
      (match best with
       | Some (b : rule) when b.priority > se.se_max_prio ->
         (* every remaining shape has a ceiling <= this one: done *)
         (best, mask)
       | _ ->
         t.probes <- t.probes + 1;
         let best =
           match
             Cache.find_opt se.buckets (Pattern.shape_project se.se_shape h)
           with
           | Some (r :: _) ->
             (match best with
              | Some b when rule_before b r -> best
              | Some _ | None -> Some r)
           | Some [] | None -> best
         in
         go best (Pattern.shape_union mask se.se_shape) rest)
  in
  go None 0 t.shape_order

let lookup_tuple t h = fst (classify t h)

exception Table_full

let make_rule ?(priority = 0) ?(idle_timeout = None) ?(cookie = 0)
    ?(now = 0.0) ~pattern ~actions () =
  { priority; pattern; actions; packets = 0; bytes = 0; last_hit = now;
    idle_timeout; cookie; seq = 0 }

let add t rule =
  let replaced = ref None in
  let rules =
    List.map
      (fun r ->
        if r.priority = rule.priority && r.pattern = rule.pattern then begin
          let fresh = { rule with seq = r.seq } in
          fresh.packets <- r.packets;
          fresh.bytes <- r.bytes;
          fresh.last_hit <- r.last_hit;
          replaced := Some (r, fresh);
          fresh
        end
        else r)
      t.rules
  in
  (match !replaced with
   | Some (old_rule, fresh) ->
     t.rules <- rules;
     classifier_remove t old_rule;
     classifier_insert t fresh
   | None ->
     (match t.capacity with
      | Some cap when t.n_rules >= cap -> raise Table_full
      | Some _ | None -> ());
     rule.seq <- t.next_seq;
     t.next_seq <- t.next_seq + 1;
     let rec insert = function
       | [] -> [ rule ]
       | r :: rest when r.priority < rule.priority -> rule :: r :: rest
       | r :: rest -> r :: insert rest
     in
     t.rules <- insert t.rules;
     t.n_rules <- t.n_rules + 1;
     classifier_insert t rule);
  invalidate t

let add_copies t rules =
  List.iter
    (fun r ->
      add t
        (make_rule ~priority:r.priority ~pattern:r.pattern ~actions:r.actions
           ~idle_timeout:r.idle_timeout ~cookie:r.cookie ()))
    rules

(* Shared delete plumbing: filter [t.rules] with [victim], unfile the
   removed rules, and only invalidate when something was actually
   deleted — a no-op delete must keep the flow cache warm. *)
let delete_matching t victim =
  let gone = ref [] in
  let kept =
    List.filter
      (fun r ->
        if victim r then begin
          gone := r :: !gone;
          false
        end
        else true)
      t.rules
  in
  match !gone with
  | [] -> ()
  | gone ->
    t.rules <- kept;
    t.n_rules <- t.n_rules - List.length gone;
    List.iter (classifier_remove t) gone;
    invalidate t

let remove ?cookie t ~pattern =
  delete_matching t (fun r ->
    let cookie_match =
      match cookie with None -> true | Some c -> r.cookie = c
    in
    cookie_match && Pattern.subsumes ~general:pattern r.pattern)

let remove_strict ?cookie t ~priority ~pattern =
  delete_matching t (fun r ->
    let cookie_match =
      match cookie with None -> true | Some c -> r.cookie = c
    in
    cookie_match && r.priority = priority && r.pattern = pattern)

let clear t =
  if t.rules <> [] then begin
    t.rules <- [];
    t.n_rules <- 0;
    Hashtbl.reset t.shapes;
    t.shape_order <- [];
    invalidate t
  end

let lookup_linear t (h : Headers.t) =
  List.find_opt (fun r -> Pattern.matches r.pattern h) t.rules

(* ------------------------------------------------------------------ *)
(* Megaflow cache.  Every function on the hit path is top-level and
   closure-free, and a hit allocates nothing. *)

let all_ones : Headers.t =
  { switch = -1; in_port = -1; eth_src = -1; eth_dst = -1; eth_type = -1;
    vlan = -1; ip_proto = -1; ip4_src = -1; ip4_dst = -1; tp_src = -1;
    tp_dst = -1 }

let[@inline] mix acc v = (acc * 31) + v

(* The hit path reads a packet's location from its arguments, not from
   [h]: a table belongs to one switch, so no key holds [switch], and
   [in_port] is the port the packet arrived on, whatever [h] says. *)

(* field [code] (0 .. [n_fields - 1]) of [h] arriving on [in_port] *)
let n_fields = 10

let[@inline] field code ~in_port (h : Headers.t) =
  match code with
  | 0 -> in_port
  | 1 -> h.eth_src
  | 2 -> h.eth_dst
  | 3 -> h.eth_type
  | 4 -> h.vlan
  | 5 -> h.ip_proto
  | 6 -> h.ip4_src
  | 7 -> h.ip4_dst
  | 8 -> h.tp_src
  | _ -> h.tp_dst

(* the hash of [h] arriving on [in_port], masked by [m], computed in
   place over the fields [m] keeps only: insert and lookup both hash
   with this, so an entry is found under the hash it was filed with *)
let masked_hash m ~in_port (h : Headers.t) =
  let acc = ref m.shape in
  for i = 0 to Array.length m.kept - 1 do
    acc :=
      mix !acc
        (field (Array.unsafe_get m.kept i) ~in_port h
         land Array.unsafe_get m.kept_bits i)
  done;
  !acc land max_int

(* [key] (a header masked by [m]) equals [h] arriving on [in_port],
   masked by [m], on kept fields [i] down to 0; every other field of
   [key] is 0 by construction, so the kept ones are all to compare *)
let rec kept_equal m (key : Headers.t) ~in_port (h : Headers.t) i =
  i < 0
  || (let code = Array.unsafe_get m.kept i in
      field code ~in_port:key.in_port key
      = field code ~in_port h land Array.unsafe_get m.kept_bits i
      && kept_equal m key ~in_port h (i - 1))

let masked_equal m key ~in_port h =
  kept_equal m key ~in_port h (Array.length m.kept - 1)

let bucket t hash = hash land (Array.length t.heads - 1)

(* the slot holding [h] masked by [m] in the chain from [s], live or
   stale, or -1 *)
let rec chain_find slots m hash ~in_port h s =
  if s < 0 then -1
  else
    let e = Array.unsafe_get slots s in
    if e.hash = hash && e.mask = m.shape && masked_equal m e.key ~in_port h
    then s
    else chain_find slots m hash ~in_port h e.next

let find_slot t m hash ~in_port h =
  chain_find t.slots m hash ~in_port h
    (Array.unsafe_get t.heads (bucket t hash))

(* the live slot of the first mask under which [h] arriving on
   [in_port] is cached, or -1 *)
let rec find_live t ~in_port h = function
  | [] -> -1
  | m :: rest ->
    let s = find_slot t m (masked_hash m ~in_port h) ~in_port h in
    if s >= 0 && (Array.unsafe_get t.slots s).gen = t.generation then s
    else find_live t ~in_port h rest

let link t s =
  let e = t.slots.(s) in
  let b = bucket t e.hash in
  e.next <- t.heads.(b);
  t.heads.(b) <- s

let rec unlink_after slots prev s =
  let p = slots.(prev) in
  if p.next = s then p.next <- slots.(s).next
  else unlink_after slots p.next s

let unlink t s =
  let b = bucket t t.slots.(s).hash in
  if t.heads.(b) = s then t.heads.(b) <- t.slots.(s).next
  else unlink_after t.slots t.heads.(b) s

(* double the slot arrays (up to the bound) and rechain every entry *)
let grow t =
  let n = min t.cache_cap (2 * Array.length t.slots) in
  let old = t.slots in
  t.slots <-
    Array.init n (fun i -> if i < Array.length old then old.(i) else empty_slot ());
  t.heads <- Array.make (pow2_at_least n) (-1);
  for s = 0 to t.len - 1 do
    link t s
  done

(* sweep to the first slot with a clear bit, clearing bits as we go,
   and unchain it; one lap clears every bit, so this ends *)
let rec evict t =
  let s = t.hand in
  t.hand <- (if s + 1 = t.cache_cap then 0 else s + 1);
  let e = t.slots.(s) in
  if e.referenced then begin
    e.referenced <- false;
    evict t
  end
  else begin
    unlink t s;
    t.evictions <- t.evictions + 1;
    s
  end

(* a free slot: the next unused one, a new one from growing, or the
   CLOCK victim once the cache is at its bound *)
let free_slot t =
  if t.len < Array.length t.slots then begin
    t.len <- t.len + 1;
    t.len - 1
  end
  else if t.len < t.cache_cap then begin
    grow t;
    t.len <- t.len + 1;
    t.len - 1
  end
  else evict t

(* this generation's mask for [shape], added on first use *)
let mask_of t shape =
  match List.find_opt (fun m -> m.shape = shape) t.masks with
  | Some m -> m
  | None ->
    (* a field is kept when the shape keeps any of its bits *)
    let ones = Pattern.shape_project shape all_ones in
    let n = ref 0 in
    for code = 0 to n_fields - 1 do
      if field code ~in_port:ones.in_port ones <> 0 then incr n
    done;
    let m = { shape; kept = Array.make !n 0; kept_bits = Array.make !n 0 } in
    n := 0;
    for code = 0 to n_fields - 1 do
      let bits = field code ~in_port:ones.in_port ones in
      if bits <> 0 then begin
        m.kept.(!n) <- code;
        m.kept_bits.(!n) <- bits;
        incr n
      end
    done;
    t.masks <- t.masks @ [ m ];
    m

(* [h] is located: its [in_port] is the arrival port *)
let cache_insert t shape (h : Headers.t) verdict =
  let m = mask_of t shape in
  let in_port = h.in_port in
  let hash = masked_hash m ~in_port h in
  let s = find_slot t m hash ~in_port h in
  let e =
    if s >= 0 then t.slots.(s)  (* a stale entry with this key *)
    else begin
      let s = free_slot t in
      let e = t.slots.(s) in
      e.key <- Pattern.shape_project shape h;
      e.mask <- shape;
      e.hash <- hash;
      link t s;
      e
    end
  in
  e.gen <- t.generation;
  e.verdict <- verdict;
  e.referenced <- true

(* the verdict for [h] located at [switch]/[in_port]; only a miss
   builds the located header, for the classifier and the new entry *)
let lookup_at t ~switch ~in_port (h : Headers.t) =
  let s = find_live t ~in_port h t.masks in
  if s >= 0 then begin
    let e = Array.unsafe_get t.slots s in
    e.referenced <- true;
    t.cache_hits <- t.cache_hits + 1;
    e.verdict
  end
  else begin
    t.cache_misses <- t.cache_misses + 1;
    let h = { h with switch; in_port } in
    let verdict, shape = classify t h in
    cache_insert t shape h verdict;
    verdict
  end

let lookup t (h : Headers.t) =
  lookup_at t ~switch:h.switch ~in_port:h.in_port h

(* a list of its own, so no rule's actions are physically equal to it *)
let miss : Action.group = [ [] ]

let apply_at t ~now ~size ~switch ~in_port (h : Headers.t) =
  match lookup_at t ~switch ~in_port h with
  | None ->
    t.misses <- t.misses + 1;
    miss
  | Some r ->
    t.hits <- t.hits + 1;
    r.packets <- r.packets + 1;
    r.bytes <- r.bytes + size;
    r.last_hit <- now;
    r.actions

let apply t ~now ~size (h : Headers.t) =
  apply_at t ~now ~size ~switch:h.switch ~in_port:h.in_port h

let expire t ~now =
  let expired r =
    match r.idle_timeout with
    | Some dt -> now -. r.last_hit >= dt
    | None -> false
  in
  let gone, kept = List.partition expired t.rules in
  if gone <> [] then begin
    t.rules <- kept;
    t.n_rules <- List.length kept;
    List.iter (classifier_remove t) gone;
    invalidate t
  end;
  gone

let pp fmt t =
  Format.fprintf fmt
    "flow table (%d rules, %d hits, %d misses; cache %d hits, %d misses, %d invalidations; %d shapes, %d probes)@."
    (size t) t.hits t.misses t.cache_hits t.cache_misses t.invalidations
    (shape_count t) t.probes;
  List.iter
    (fun r ->
      Format.fprintf fmt "  [%4d] %a -> %a (pkts=%d)@." r.priority Pattern.pp
        r.pattern Action.pp_group r.actions r.packets)
    t.rules
