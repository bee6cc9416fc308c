open Packet

(* per-field knowledge along a product-walk path *)
type constraint_ = Forced of int | Excluded of int list

let env_get env f =
  match List.assoc_opt f env with
  | Some c -> c
  | None -> Excluded []

let env_set env f c = (f, c) :: List.remove_assoc f env

(* values written to [f] by any action of either leaf *)
let written_values f (l1 : Fdd.ActSet.t) (l2 : Fdd.ActSet.t) =
  let of_set s =
    Fdd.ActSet.fold
      (fun act acc ->
        match Fdd.Act.get act f with Some v -> v :: acc | None -> acc)
      s []
  in
  of_set l1 @ of_set l2

(* a packet in the path cube whose unconstrained fields hold fresh
   values: not excluded on the path and not written by either leaf *)
let witness env l1 l2 =
  List.fold_left
    (fun h f ->
      match env_get env f with
      | Forced v -> Headers.set h f v
      | Excluded vs ->
        let avoid = vs @ written_values f l1 l2 in
        let rec pick v = if List.mem v avoid then pick (v + 1) else v in
        let d = Headers.get h f in
        Headers.set h f (if List.mem d avoid then pick 0 else d))
    Headers.default Fields.all

let outputs_of_leaf (s : Fdd.ActSet.t) h =
  Fdd.ActSet.elements s
  |> List.map (fun act -> Fdd.Act.apply act h)
  |> List.sort_uniq Headers.compare

let counterexample p q =
  let dp = Fdd.of_policy p and dq = Fdd.of_policy q in
  let exception Found of Headers.t in
  let rec go a b env =
    if Fdd.equal a b then ()
    else begin
      match (a.Fdd.node, b.Fdd.node) with
      | Fdd.Leaf l1, Fdd.Leaf l2 ->
        let h = witness env l1 l2 in
        if outputs_of_leaf l1 h <> outputs_of_leaf l2 h then raise (Found h)
        (* otherwise the leaves differ only by writes of path-forced
           values: semantically equal on this cube *)
      | _ ->
        let ((f, v) as test) = Fdd.min_root a b in
        (match env_get env f with
         | Forced w ->
           if w = v then go (Fdd.pos test a) (Fdd.pos test b) env
           else go (Fdd.neg test a) (Fdd.neg test b) env
         | Excluded vs ->
           if not (List.mem v vs) then
             go (Fdd.pos test a) (Fdd.pos test b) (env_set env f (Forced v));
           go (Fdd.neg test a) (Fdd.neg test b)
             (env_set env f (Excluded (v :: vs))))
    end
  in
  match go dp dq [] with
  | () -> None
  | exception Found h -> Some h

let equivalent p q = counterexample p q = None

let is_drop p = equivalent p Syntax.drop

let is_id p = equivalent p Syntax.id

let deciding_fields p =
  let d = Fdd.of_policy p in
  List.filter (fun f -> Fdd.values_of_field d f <> []) Fields.all

let table_size ~switch p =
  List.length (Local.rules_of_fdd ~switch (Fdd.of_policy p))
