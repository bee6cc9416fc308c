open Packet

type rule = {
  priority : int;
  pattern : Pattern.t;
  actions : Action.group;
  mutable packets : int;
  mutable bytes : int;
  installed_at : float;
  mutable last_hit : float;
  idle_timeout : float option;
  hard_timeout : float option;
  cookie : int;
  mutable seq : int;
}

module Header_key = struct
  type t = Headers.t

  let equal = Headers.equal
  let hash = Headers.hash
end

module Cache = Hashtbl.Make (Header_key)
module Hcache = Clock_cache.Make (Header_key)

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

(* Default bound on resident cache entries (live + stale). *)
let max_cache_entries = 8192

type t = {
  mutable rules : rule list;  (* descending priority, stable within ties *)
  mutable n_rules : int;
  mutable capacity : int option;  (* max rules, None = unbounded *)
  mutable misses : int;
  mutable hits : int;
  (* exact-match fast path: header tuple -> (generation, winning rule);
     when full, the CLOCK hand evicts one cold entry per insert *)
  cache : (int * rule option) Hcache.t;
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

let create ?capacity ?(cache_entries = max_cache_entries) () =
  { rules = []; n_rules = 0; capacity; misses = 0; hits = 0;
    cache = Hcache.create ~cap:cache_entries;
    generation = 0; cache_hits = 0; cache_misses = 0; invalidations = 0;
    shapes = Hashtbl.create 16; shape_order = []; probes = 0; next_seq = 0 }

let size t = t.n_rules
let rules t = t.rules
let hits t = t.hits
let misses t = t.misses
let cache_hits t = t.cache_hits
let cache_misses t = t.cache_misses
let invalidations t = t.invalidations
let generation t = t.generation

let cache_size t = Hcache.length t.cache

let cache_evictions t = Hcache.evictions t.cache

let shape_count t = Hashtbl.length t.shapes

let classifier_probes t = t.probes

(* O(1) invalidation: entries stamped with an older generation are dead. *)
let invalidate t =
  t.generation <- t.generation + 1;
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

let lookup_tuple t (h : Headers.t) =
  let rec go best = function
    | [] -> best
    | se :: rest ->
      (match best with
       | Some (b : rule) when b.priority > se.se_max_prio ->
         (* every remaining shape has a ceiling <= this one: done *)
         best
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
         go best rest)
  in
  go None t.shape_order

exception Table_full

let make_rule ?(priority = 0) ?(idle_timeout = None) ?(hard_timeout = None)
    ?(cookie = 0) ?(now = 0.0) ~pattern ~actions () =
  { priority; pattern; actions; packets = 0; bytes = 0; installed_at = now;
    last_hit = now; idle_timeout; hard_timeout; cookie; seq = 0 }

let add t rule =
  let replaced = ref None in
  let rules =
    List.map
      (fun r ->
        if r.priority = rule.priority && r.pattern = rule.pattern then begin
          let fresh = { rule with installed_at = r.installed_at } in
          fresh.packets <- r.packets;
          fresh.bytes <- r.bytes;
          fresh.last_hit <- r.last_hit;
          fresh.seq <- r.seq;
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
           ~idle_timeout:r.idle_timeout ~hard_timeout:r.hard_timeout
           ~cookie:r.cookie ()))
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

let lookup t (h : Headers.t) =
  match Hcache.find_opt t.cache h with
  | Some (gen, res) when gen = t.generation ->
    t.cache_hits <- t.cache_hits + 1;
    res
  | Some _ | None ->
    t.cache_misses <- t.cache_misses + 1;
    let res = lookup_tuple t h in
    Hcache.replace t.cache h (t.generation, res);
    res

let apply t ~now ~size (h : Headers.t) =
  match lookup t h with
  | None ->
    t.misses <- t.misses + 1;
    None
  | Some r ->
    t.hits <- t.hits + 1;
    r.packets <- r.packets + 1;
    r.bytes <- r.bytes + size;
    r.last_hit <- now;
    Some r.actions

let expire t ~now =
  let expired r =
    let idle =
      match r.idle_timeout with
      | Some dt -> now -. r.last_hit >= dt
      | None -> false
    in
    let hard =
      match r.hard_timeout with
      | Some dt -> now -. r.installed_at >= dt
      | None -> false
    in
    idle || hard
  in
  let gone, kept = List.partition expired t.rules in
  if gone <> [] then begin
    t.rules <- kept;
    t.n_rules <- List.length kept;
    List.iter (classifier_remove t) gone;
    invalidate t
  end;
  gone

let overlaps t =
  let rec go acc = function
    | [] -> List.rev acc
    | r :: rest ->
      let acc =
        List.fold_left
          (fun acc r' ->
            if r'.priority = r.priority && Pattern.overlap r.pattern r'.pattern
            then (r, r') :: acc
            else acc)
          acc rest
      in
      go acc rest
  in
  go [] t.rules

let shadowed t =
  let rec go seen acc = function
    | [] -> List.rev acc
    | r :: rest ->
      let dead =
        List.exists
          (fun earlier ->
            earlier.priority >= r.priority
            && Pattern.subsumes ~general:earlier.pattern r.pattern)
          seen
      in
      go (r :: seen) (if dead then r :: acc else acc) rest
  in
  go [] [] t.rules

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
