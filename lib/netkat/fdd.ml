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

let hash_acts acts = Hashtbl.hash (List.map Act.uid (ActSet.elements acts))

module Leaf_key = struct
  type t = ActSet.t

  let equal = ActSet.equal
  let hash = hash_acts
end

module Leaf_tbl = Hashtbl.Make (Leaf_key)

let leaf_tbl : t Leaf_tbl.t = Leaf_tbl.create 256
let branch_tbl : (int * int * int * int, t) Hashtbl.t = Hashtbl.create 256
let next_uid = ref 0

let fresh ~hash ~mask node =
  let uid = !next_uid in
  incr next_uid;
  { uid; hash; mask; node }

let leaf acts =
  match Leaf_tbl.find_opt leaf_tbl acts with
  | Some t -> t
  | None ->
    let mask = ActSet.fold (fun a m -> m lor a.Act.amask) acts 0 in
    let t = fresh ~hash:(hash_acts acts) ~mask (Leaf acts) in
    Leaf_tbl.add leaf_tbl acts t;
    t

(** [branch test tru fls] hash-conses, collapsing redundant tests. *)
let branch ((f, v) as test) tru fls =
  if tru == fls then tru
  else begin
    let key = (Fields.index f, v, tru.uid, fls.uid) in
    match Hashtbl.find_opt branch_tbl key with
    | Some t -> t
    | None ->
      let t =
        fresh ~hash:(Hashtbl.hash key) ~mask:(tru.mask lor fls.mask)
          (Branch (test, tru, fls))
      in
      Hashtbl.add branch_tbl key t;
      t
  end

let drop = leaf ActSet.empty
let ident = leaf (ActSet.singleton Act.id)

(* ------------------------------------------------------------------ *)
(* Global operation caches.

   Binary operations memoize on (op tag, uid, uid) in one shared table
   that persists across calls; uids are never reused, so entries stay
   valid until explicitly cleared.  [restrict] keys on (field, value,
   uid) in its own table. *)

let op_union = 0
let op_gate = 1
let op_seq = 2
let op_act_seq = 3

let binop_cache : (int * int * int, t) Hashtbl.t = Hashtbl.create 4096
let restrict_cache : (int * int * int, t) Hashtbl.t = Hashtbl.create 256

let memo_generation = ref 0

(* Syntax nodes keyed by physical identity, for {!of_policy}'s memo. *)
module Pol_tbl = Hashtbl.Make (struct
  type t = Syntax.pol

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* The generation and the diagram of every syntax node the last
   top-level {!of_policy} call visited.  Strong, and replaced wholesale
   at the end of each call, so it holds one policy's subterms at a
   time. *)
let last_policy : (int * t Pol_tbl.t) option ref = ref None

let generation () = !memo_generation

let cache_stats () =
  (Leaf_tbl.length leaf_tbl, Hashtbl.length branch_tbl,
   Hashtbl.length binop_cache, Hashtbl.length restrict_cache)

let last_policy_size () =
  match !last_policy with
  | Some (gen, tbl) when gen = generation () -> Pol_tbl.length tbl
  | Some _ | None -> 0

let clear_cache () =
  Leaf_tbl.reset leaf_tbl;
  Hashtbl.reset branch_tbl;
  Hashtbl.reset binop_cache;
  Hashtbl.reset restrict_cache;
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
   be deterministic; results are memoized in the global cache under
   [tag], normalizing the operand order when [commutative].  [terminal]
   answers the pairs whose result needs no expansion (e.g. a [drop]
   operand); it is tried at every step of the recursion, so expansion
   stops where the operands stop overlapping. *)
let apply ~tag ~commutative ~terminal op =
  let rec go a b =
    match terminal a b with
    | Some r -> r
    | None ->
      (match (a.node, b.node) with
       | Leaf x, Leaf y -> leaf (op x y)
       | _ ->
         let a, b = if commutative && a.uid > b.uid then (b, a) else (a, b) in
         let key = (tag, a.uid, b.uid) in
         (match Hashtbl.find_opt binop_cache key with
          | Some r -> r
          | None ->
            let test = min_root a b in
            let r =
              branch test (go (pos test a) (pos test b))
                (go (neg test a) (neg test b))
            in
            Hashtbl.replace binop_cache key r;
            r))
  in
  go

let union =
  apply ~tag:op_union ~commutative:true
    ~terminal:(fun a b ->
      if a == b || b == drop then Some a else if a == drop then Some b
      else None)
    ActSet.union

(* Gate: where the predicate diagram [p] passes, behave as [d]. *)
let gate =
  apply ~tag:op_gate ~commutative:false
    ~terminal:(fun p d ->
      if p == ident then Some d
      else if p == drop || d == drop then Some drop
      else None)
    (fun pass acts -> if ActSet.is_empty pass then ActSet.empty else acts)

let cond test t e =
  if t == e then t
  else begin
    let p_pos = branch test ident drop in
    let p_neg = branch test drop ident in
    union (gate p_pos t) (gate p_neg e)
  end

let restrict (f, v) d =
  let fi = Fields.index f in
  let rec go d =
    match d.node with
    | Leaf _ -> d
    | Branch ((g, u), tru, fls) ->
      if Fields.compare g f > 0 then d
      else begin
        let key = (fi, v, d.uid) in
        match Hashtbl.find_opt restrict_cache key with
        | Some r -> r
        | None ->
          let r =
            if Fields.equal g f then if u = v then go tru else go fls
            else branch (g, u) (go tru) (go fls)
          in
          Hashtbl.replace restrict_cache key r;
          r
      end
  in
  go d

(* ------------------------------------------------------------------ *)
(* Sequencing *)

(* [act_seq act d]: the diagram "apply [act], then run [d]", expressed
   over the *input* packet.  Tests in [d] on fields written by [act] are
   resolved; leaves are pre-composed with [act].  Memoized globally on
   (act id, node uid). *)
let rec act_seq act d =
  if Act.equal act Act.id then d
  else begin
    let key = (op_act_seq, Act.uid act, d.uid) in
    match Hashtbl.find_opt binop_cache key with
    | Some r -> r
    | None ->
      let r =
        match d.node with
        | Leaf acts -> leaf (ActSet.map (fun a2 -> Act.compose act a2) acts)
        | Branch ((f, v), tru, fls) ->
          (match Act.get act f with
           | Some v' -> if v' = v then act_seq act tru else act_seq act fls
           | None -> cond (f, v) (act_seq act tru) (act_seq act fls))
      in
      Hashtbl.replace binop_cache key r;
      r
  end

let rec seq a b =
  if b == ident then a
  else if a == ident then b
  else if a == drop || b == drop then drop
  else begin
    let key = (op_seq, a.uid, b.uid) in
    match Hashtbl.find_opt binop_cache key with
    | Some r -> r
    | None ->
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
      Hashtbl.replace binop_cache key r;
      r
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

let of_policy (p : Syntax.pol) =
  let gen = generation () in
  let last =
    match !last_policy with
    | Some (g, tbl) when g = gen -> tbl
    | Some _ | None -> Pol_tbl.create 1
  in
  let seen = Pol_tbl.create 64 in
  let rec go (p : Syntax.pol) =
    let d =
      match Pol_tbl.find_opt last p with
      | Some d -> d
      | None ->
        (match p with
         | Filter pred -> of_pred pred
         | Mod (f, v) -> leaf (ActSet.singleton (Act.single f v))
         | Union (a, b) -> union (go a) (go b)
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
