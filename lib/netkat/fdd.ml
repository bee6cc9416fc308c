open Packet

module Act = struct
  type t = {
    aid : int;  (* unique id: structural equality <=> id equality *)
    binds : (Fields.t * int) list;
    ikey : (int * int) list;  (* (field index, value), the intern key *)
    amask : int;  (* bit [Fields.index f] set for every written field [f] *)
  }

  module Intern = Hashtbl.Make (struct
    type t = (int * int) list

    let equal (a : t) b = a = b
    let hash = Hashtbl.hash
  end)

  let intern_tbl : t Intern.t = Intern.create 256
  let next_aid = ref 0

  (* [binds] must be sorted by field with one binding per field. *)
  let intern binds =
    let ikey = List.map (fun (f, v) -> (Fields.index f, v)) binds in
    match Intern.find_opt intern_tbl ikey with
    | Some t -> t
    | None ->
      let amask = List.fold_left (fun m (fi, _) -> m lor (1 lsl fi)) 0 ikey in
      let t = { aid = !next_aid; binds; ikey; amask } in
      incr next_aid;
      Intern.add intern_tbl ikey t;
      t

  let id : t = intern []

  (* unique id of the interned update *)
  let uid (t : t) = t.aid

  let bindings (t : t) = t.binds

  let field_cmp (f, _) (g, _) = Fields.compare f g

  let of_list l =
    let sorted = List.sort_uniq (fun a b ->
      match field_cmp a b with 0 -> compare (snd a) (snd b) | c -> c) l
    in
    (* reject two bindings for one field *)
    let rec check = function
      | (f, _) :: ((g, _) :: _ as rest) ->
        if Fields.equal f g then invalid_arg "Fdd.Act.of_list: duplicate field"
        else check rest
      | [ _ ] | [] -> ()
    in
    check sorted;
    intern sorted

  let single f v = intern [ (f, v) ]

  let get (t : t) f =
    List.find_map (fun (g, v) -> if Fields.equal f g then Some v else None)
      t.binds

  let compose (a : t) (b : t) : t =
    if a.aid = id.aid then b
    else if b.aid = id.aid then a
    else begin
      let keep_a = List.filter (fun (f, _) -> get b f = None) a.binds in
      intern (List.sort field_cmp (keep_a @ b.binds))
    end

  let apply (t : t) (h : Headers.t) =
    List.fold_left (fun h (f, v) -> Headers.set h f v) h t.binds

  (* Interning makes equal updates share an id; ordering stays
     structural (on the int-encoded key) so set iteration order is
     deterministic and independent of interning history. *)
  let compare (a : t) (b : t) =
    if a.aid = b.aid then 0 else compare a.ikey b.ikey

  let equal (a : t) (b : t) = a.aid = b.aid
end

module ActSet = Set.Make (Act)

type test = Fields.t * int

type t = {
  uid : int;
  hash : int;
  mask : int;  (* fields written by any action below: bit [Fields.index f] *)
  node : node;
  fall : t;  (* where a packet that fails the root's leading tests goes *)
}

and node =
  | Leaf of ActSet.t
  | Branch of test * t * t

let uid t = t.uid

(** [writes d f]: some action in some leaf of [d] assigns field [f]. *)
let writes d f = d.mask land (1 lsl Fields.index f) <> 0

let test_compare (f, v) (g, u) =
  match Fields.compare f g with 0 -> compare v u | c -> c

(* ------------------------------------------------------------------ *)
(* Hash-consing *)

(* One round of integer mixing: multiply, then fold the high bits down,
   so the low bits of the result depend on every bit of [h] and [x]. *)
let mix h x =
  let h = (h lxor x) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 32)

let hash_acts acts = ActSet.fold (fun a h -> mix h (Act.uid a)) acts 0

module Leaf_key = struct
  type t = ActSet.t

  let equal = ActSet.equal
  let hash = hash_acts
end

module Leaf_tbl = Hashtbl.Make (Leaf_key)

let leaf_tbl : t Leaf_tbl.t = Leaf_tbl.create 256
let next_uid = ref 0

(* A leaf falls through to itself; a branch on [f] to where its false
   side's run of tests on [f] ends. *)
let fresh ~hash ~mask node =
  let uid = !next_uid in
  incr next_uid;
  match node with
  | Leaf _ ->
    let rec t = { uid; hash; mask; node; fall = t } in
    t
  | Branch ((f, _), _, fls) ->
    let fall =
      match fls.node with
      | Branch ((g, _), _, _) when Fields.equal g f -> fls.fall
      | Branch _ | Leaf _ -> fls
    in
    { uid; hash; mask; node; fall }

let leaf acts =
  match Leaf_tbl.find_opt leaf_tbl acts with
  | Some t -> t
  | None ->
    let mask = ActSet.fold (fun a m -> m lor a.Act.amask) acts 0 in
    let t = fresh ~hash:(hash_acts acts) ~mask (Leaf acts) in
    Leaf_tbl.add leaf_tbl acts t;
    t

(* Marks an empty slot and a missing answer; never a diagram node. *)
let absent =
  let rec a = { uid = -1; hash = -1; mask = 0; node = Leaf ActSet.empty;
                fall = a }
  in
  a

(* The branch unique table: open addressing with linear probing over
   the nodes themselves, doubled before it is more than half full.  A
   probe compares a node's stored hash, then its children ([==]) and
   its test, so a lookup allocates nothing. *)
type unique = { mutable slots : t array; mutable count : int }

let unique_initial = 1 lsl 12
let unique = { slots = Array.make unique_initial absent; count = 0 }

let branch_hash fi v tru fls =
  mix (mix (mix (mix 0 fi) v) tru.uid) fls.uid land max_int

(* The slot holding branch [(fi, v) tru fls], or the empty slot where
   it belongs. *)
let rec probe slots m h fi v tru fls i =
  let n = Array.unsafe_get slots i in
  if n == absent then i
  else if
    n.hash = h
    && (match n.node with
        | Branch ((g, u), t, e) ->
          t == tru && e == fls && u = v && Fields.index g = fi
        | Leaf _ -> false)
  then i
  else probe slots m h fi v tru fls ((i + 1) land m)

let grow () =
  let old = unique.slots in
  let slots = Array.make (2 * Array.length old) absent in
  let m = Array.length slots - 1 in
  Array.iter
    (fun n ->
      if n != absent then begin
        let i = ref (n.hash land m) in
        while slots.(!i) != absent do i := (!i + 1) land m done;
        slots.(!i) <- n
      end)
    old;
  unique.slots <- slots

(* Where a packet goes when [d]'s leading tests on field [fi] all
   fail: [d] itself unless its root tests [fi]. *)
let chain_default fi d =
  match d.node with
  | Branch ((g, _), _, _) when Fields.index g = fi -> d.fall
  | Branch _ | Leaf _ -> d

(** [branch test tru fls] hash-conses, collapsing redundant tests: a
    test is redundant when its true side is where [fls] sends a packet
    whose field matches none of [fls]'s leading tests on that field
    ([fls] itself when it does not test the field).  Without that,
    [f = 1 ? d : (f = 2 ? e : d)] and [f = 2 ? e : d] would be two
    nodes for one function. *)
let branch ((f, v) as test) tru fls =
  let fi = Fields.index f in
  if tru == chain_default fi fls then fls
  else begin
    let h = branch_hash fi v tru fls in
    let slots = unique.slots in
    let m = Array.length slots - 1 in
    let i = probe slots m h fi v tru fls (h land m) in
    let n = Array.unsafe_get slots i in
    if n != absent then n
    else begin
      let t =
        fresh ~hash:h ~mask:(tru.mask lor fls.mask) (Branch (test, tru, fls))
      in
      slots.(i) <- t;
      unique.count <- unique.count + 1;
      if 2 * unique.count > Array.length slots then grow ();
      t
    end
  end

let drop = leaf ActSet.empty
let ident = leaf (ActSet.singleton Act.id)

(* ------------------------------------------------------------------ *)
(* The computed table.

   Every memoized operation shares one direct-mapped table of a fixed
   2^16 slots.  A key is two ints: the operation tag with one operand's
   uid, and the other operand's uid (an action's id for [act_seq], the
   tested field and value for [restrict]).  A store overwrites whatever
   the slot held, so the table never grows; a lost entry costs only a
   recomputation, which rebuilds no node because the unique tables
   still hold every node it reaches. *)

let op_union = 0
let op_gate = 1
let op_seq = 2
let op_act_seq = 3
let op_restrict = 4

let ct_bits = 16
let ct_mask = (1 lsl ct_bits) - 1

(* slot [s]'s key is [ct_keys.(2s), ct_keys.(2s + 1)]; -1 is no key *)
let ct_keys = Array.make (2 lsl ct_bits) (-1)
let ct_results = Array.make (1 lsl ct_bits) drop

let ct_slot k1 k2 = mix (mix 0 k1) k2 land ct_mask

let ct_hit s k1 k2 =
  Array.unsafe_get ct_keys (2 * s) = k1
  && Array.unsafe_get ct_keys ((2 * s) + 1) = k2

let ct_store s k1 k2 r =
  ct_keys.(2 * s) <- k1;
  ct_keys.((2 * s) + 1) <- k2;
  ct_results.(s) <- r

let memo_generation = ref 0

(* Syntax nodes keyed by structure, for {!of_policy}'s memo: one entry
   stands for every copy of a subterm.  [compare] returns at once on
   physically equal operands, so a shared subterm costs one pointer
   test. *)
module Pol_tbl = Hashtbl.Make (struct
  type t = Syntax.pol

  let equal a b = compare a b = 0
  let hash = Hashtbl.hash
end)

(* The generation and the diagram of every syntax node the last
   top-level {!of_policy} call visited.  Strong, and replaced wholesale
   at the end of each call, so it holds one policy's subterms at a
   time. *)
let last_policy : (int * t Pol_tbl.t) option ref = ref None

let generation () = !memo_generation

let branch_count () = unique.count

let last_policy_size () =
  match !last_policy with
  | Some (gen, tbl) when gen = generation () -> Pol_tbl.length tbl
  | Some _ | None -> 0

let clear_cache () =
  Leaf_tbl.reset leaf_tbl;
  unique.slots <- Array.make unique_initial absent;
  unique.count <- 0;
  Array.fill ct_keys 0 (Array.length ct_keys) (-1);
  Array.fill ct_results 0 (Array.length ct_results) drop;
  last_policy := None;
  incr memo_generation;
  Leaf_tbl.add leaf_tbl ActSet.empty drop;
  Leaf_tbl.add leaf_tbl (ActSet.singleton Act.id) ident

let equal a b = a == b

(* ------------------------------------------------------------------ *)
(* Cofactors and generic binary apply *)

let rec pos ((f, v) as t) d =
  match d.node with
  | Leaf _ -> d
  | Branch ((g, u), tru, fls) ->
    if Fields.equal g f then if u = v then tru else pos t fls else d

let neg test d =
  match d.node with
  | Branch (root, _, fls) when test_compare root test = 0 -> fls
  | Leaf _ | Branch _ -> d

let min_root a b =
  match (a.node, b.node) with
  | Branch (ta, _, _), Branch (tb, _, _) ->
    if test_compare ta tb <= 0 then ta else tb
  | Branch (ta, _, _), Leaf _ -> ta
  | Leaf _, Branch (tb, _, _) -> tb
  | Leaf _, Leaf _ -> assert false

(* Shannon-expansion apply of a leaf-level binary operation.  [op] must
   be deterministic; results are memoized in the computed table under
   [tag], normalizing the operand order when [commutative].  [terminal]
   answers the pairs whose result needs no expansion (e.g. a [drop]
   operand), or returns [absent]; it is tried at every step of the
   recursion, so expansion stops where the operands stop overlapping. *)
let apply ~tag ~commutative ~terminal op =
  let rec go a b =
    let r = terminal a b in
    if r != absent then r
    else
      match (a.node, b.node) with
      | Leaf x, Leaf y -> leaf (op x y)
      | _ ->
        let swap = commutative && a.uid > b.uid in
        let a = if swap then b else a and b = if swap then a else b in
        let k1 = (a.uid lsl 3) lor tag and k2 = b.uid in
        let s = ct_slot k1 k2 in
        if ct_hit s k1 k2 then Array.unsafe_get ct_results s
        else begin
          let test = min_root a b in
          let r =
            branch test (go (pos test a) (pos test b))
              (go (neg test a) (neg test b))
          in
          ct_store s k1 k2 r;
          r
        end
  in
  go

let union =
  apply ~tag:op_union ~commutative:true
    ~terminal:(fun a b ->
      if a == b || b == drop then a else if a == drop then b else absent)
    ActSet.union

(* Gate: where the predicate diagram [p] passes, behave as [d]. *)
let gate =
  apply ~tag:op_gate ~commutative:false
    ~terminal:(fun p d ->
      if p == ident then d
      else if p == drop || d == drop then drop
      else absent)
    (fun pass acts -> if ActSet.is_empty pass then ActSet.empty else acts)

(* [cond (f, v) t e], built directly: above [f], Shannon-expand both
   sides on their smaller root test (memoized per call, on the pair of
   uids); once neither side tests a field before [f], splice [pos test t]
   into [e]'s chain of tests on [f] at [v]'s place, replacing a test
   [f = v] that [e] has.  Every node goes through [branch], so the result
   is reduced and is the node the same function always hash-conses to. *)
let cond ((f, v) as test) t e =
  let before_f d =
    match d.node with
    | Branch ((g, _), _, _) -> Fields.compare g f < 0
    | Leaf _ -> false
  in
  let rec splice tru e =
    match e.node with
    | Branch (((g, u) as etest), etru, efls) when Fields.equal g f ->
      if u < v then branch etest etru (splice tru efls)
      else if u = v then branch test tru efls
      else branch test tru e
    | Branch _ | Leaf _ -> branch test tru e
  in
  let memo = Hashtbl.create 16 in
  let rec go t e =
    if t == e then t
    else if before_f t || before_f e then begin
      match Hashtbl.find_opt memo (t.uid, e.uid) with
      | Some r -> r
      | None ->
        let top = min_root t e in
        let r =
          branch top (go (pos top t) (pos top e)) (go (neg top t) (neg top e))
        in
        Hashtbl.add memo (t.uid, e.uid) r;
        r
    end
    else splice (pos test t) e
  in
  go t e

let restrict (f, v) d =
  let fi = Fields.index f in
  let rec go d =
    match d.node with
    | Leaf _ -> d
    | Branch (((g, u) as test), tru, fls) ->
      if Fields.compare g f > 0 then d
      else begin
        let k1 = (((d.uid lsl 4) lor fi) lsl 3) lor op_restrict in
        let s = ct_slot k1 v in
        if ct_hit s k1 v then Array.unsafe_get ct_results s
        else begin
          let r =
            if Fields.equal g f then if u = v then go tru else go fls
            else branch test (go tru) (go fls)
          in
          ct_store s k1 v r;
          r
        end
      end
  in
  go d

(* ------------------------------------------------------------------ *)
(* Sequencing *)

(* [act_seq act d]: the diagram "apply [act], then run [d]", expressed
   over the *input* packet.  Tests in [d] on fields written by [act] are
   resolved; leaves are pre-composed with [act].  Memoized in the
   computed table on (node uid, act id). *)
let rec act_seq act d =
  if Act.equal act Act.id then d
  else begin
    let k1 = (d.uid lsl 3) lor op_act_seq and k2 = Act.uid act in
    let s = ct_slot k1 k2 in
    if ct_hit s k1 k2 then Array.unsafe_get ct_results s
    else begin
      let r =
        match d.node with
        | Leaf acts -> leaf (ActSet.map (fun a2 -> Act.compose act a2) acts)
        | Branch (((f, v) as test), tru, fls) ->
          (match Act.get act f with
           | Some v' -> if v' = v then act_seq act tru else act_seq act fls
           | None -> cond test (act_seq act tru) (act_seq act fls))
      in
      ct_store s k1 k2 r;
      r
    end
  end

let rec seq a b =
  if b == ident then a
  else if a == ident then b
  else if a == drop || b == drop then drop
  else begin
    let k1 = (a.uid lsl 3) lor op_seq and k2 = b.uid in
    let s = ct_slot k1 k2 in
    if ct_hit s k1 k2 then Array.unsafe_get ct_results s
    else begin
      let r =
        match a.node with
        | Leaf acts ->
          if ActSet.is_empty acts then drop
          else
            ActSet.fold (fun act acc -> union acc (act_seq act b)) acts drop
        | Branch (((f, _) as test), tru, fls) ->
          let b_tru = if writes tru f then b else restrict test b in
          cond test (seq tru b_tru) (seq fls b)
      in
      ct_store s k1 k2 r;
      r
    end
  end

(** Kleene star: least fixpoint of [x = ident ∪ seq d x].  Terminates
    because the value space reachable from the policy's tests and
    modifications is finite and hash-consing detects convergence. *)
let star d =
  let rec fix acc n =
    if n > 10_000 then failwith "Fdd.star: fixpoint did not converge";
    let next = union ident (seq d acc) in
    if next == acc then acc else fix next (n + 1)
  in
  if d == ident || d == drop then ident else fix ident 0

(** Map over leaves (e.g. predicate negation flips pass/drop leaves).
    Memoized per call — the mapped function has no global identity. *)
let map_leaves f =
  let memo : (int, t) Hashtbl.t = Hashtbl.create 64 in
  let rec go d =
    match Hashtbl.find_opt memo d.uid with
    | Some r -> r
    | None ->
      let r =
        match d.node with
        | Leaf acts -> leaf (f acts)
        | Branch (test, tru, fls) -> branch test (go tru) (go fls)
      in
      Hashtbl.add memo d.uid r;
      r
  in
  go

(* ------------------------------------------------------------------ *)
(* From policies *)

let rec of_pred (p : Syntax.pred) =
  match p with
  | True -> ident
  | False -> drop
  | Test (f, v) -> branch (f, v) ident drop
  | And (a, b) -> gate (of_pred a) (of_pred b)
  | Or (a, b) -> union (of_pred a) (of_pred b)
  | Not a ->
    map_leaves
      (fun acts ->
        if ActSet.is_empty acts then ActSet.singleton Act.id else ActSet.empty)
      (of_pred a)

(* The union of a list of diagrams, as a balanced tree of pairwise
   unions: each diagram is merged once per round, and there are
   [log2 n] rounds. *)
let rec union_tree = function
  | [] -> drop
  | [ d ] -> d
  | ds ->
    let rec pairs = function
      | a :: b :: rest -> union a b :: pairs rest
      | l -> l
    in
    union_tree (pairs ds)

let of_policy (p : Syntax.pol) =
  let gen = generation () in
  let last =
    match !last_policy with
    | Some (g, tbl) when g = gen -> tbl
    | Some _ | None -> Pol_tbl.create 1
  in
  let seen = Pol_tbl.create 64 in
  let known p =
    match Pol_tbl.find_opt seen p with
    | Some _ as d -> d
    | None -> Pol_tbl.find_opt last p
  in
  (* The terms of a union tree, left to right.  A union the memo
     answers is kept whole as one term. *)
  let rec terms acc = function
    | [] -> acc
    | (Syntax.Union (a, b) as u) :: rest when Option.is_none (known u) ->
      terms acc (b :: a :: rest)
    | t :: rest -> terms (t :: acc) rest
  in
  let rec go (p : Syntax.pol) =
    let d =
      match known p with
      | Some d -> d
      | None ->
        (match p with
         | Filter pred -> of_pred pred
         | Mod (f, v) -> leaf (ActSet.singleton (Act.single f v))
         | Union (a, b) -> union_tree (List.map go (terms [] [ b; a ]))
         | Seq (a, b) -> seq (go a) (go b)
         | Star a -> star (go a))
    in
    Pol_tbl.replace seen p d;
    d
  in
  let d = go p in
  last_policy := Some (gen, seen);
  d

(* ------------------------------------------------------------------ *)
(* Interpretation and inspection *)

let rec eval d (h : Headers.t) =
  match d.node with
  | Leaf acts -> List.map (fun act -> Act.apply act h) (ActSet.elements acts)
  | Branch ((f, v), tru, fls) ->
    if Headers.get h f = v then eval tru h else eval fls h

let node_count d =
  let seen = Hashtbl.create 64 in
  let rec go d =
    if not (Hashtbl.mem seen d.uid) then begin
      Hashtbl.add seen d.uid ();
      match d.node with
      | Leaf _ -> ()
      | Branch (_, tru, fls) -> go tru; go fls
    end
  in
  go d;
  Hashtbl.length seen

let switch_cases d =
  let cases = Hashtbl.create 64 in
  let rec go d =
    match d.node with
    | Branch ((f, v), tru, fls) when Fields.equal f Fields.Switch ->
      if not (Hashtbl.mem cases v) then Hashtbl.add cases v tru;
      go fls
    | Leaf _ | Branch _ -> d
  in
  let default = go d in
  (cases, default)

let fold_paths d ~init ~f =
  let rec go d tests acc =
    match d.node with
    | Leaf acts -> f (List.rev tests) acts acc
    | Branch (test, tru, fls) ->
      let acc = go tru (test :: tests) acc in
      go fls tests acc
  in
  go d [] init

let values_of_field d f =
  let seen = Hashtbl.create 16 in
  let vals = Hashtbl.create 16 in
  let rec go d =
    if not (Hashtbl.mem seen d.uid) then begin
      Hashtbl.add seen d.uid ();
      match d.node with
      | Leaf _ -> ()
      | Branch ((g, v), tru, fls) ->
        if Fields.equal g f then Hashtbl.replace vals v ();
        go tru;
        go fls
    end
  in
  go d;
  Hashtbl.fold (fun v () acc -> v :: acc) vals [] |> List.sort compare
