open Packet

exception Unsupported of string

module IntSet = Set.Make (Int)

type constr =
  | Any
  | In of IntSet.t
  | Excl of IntSet.t

type cube = (Fields.t * constr) list  (* sorted by field index *)

let top : cube = []

let field_cmp (f, _) (g, _) = Fields.compare f g

let constr_of_field (c : cube) f =
  match List.find_opt (fun (g, _) -> Fields.equal f g) c with
  | Some (_, k) -> k
  | None -> Any

(* Smart update: dropping Any constraints keeps cubes canonical. *)
let set_constr (c : cube) f k =
  let without = List.filter (fun (g, _) -> not (Fields.equal f g)) c in
  match k with
  | Any -> without
  | In _ | Excl _ -> List.sort field_cmp ((f, k) :: without)

(* intersection of two per-field constraints; None = empty *)
let inter_constr a b =
  match (a, b) with
  | Any, k | k, Any -> Some k
  | In x, In y ->
    let i = IntSet.inter x y in
    if IntSet.is_empty i then None else Some (In i)
  | In x, Excl y | Excl y, In x ->
    let d = IntSet.diff x y in
    if IntSet.is_empty d then None else Some (In d)
  | Excl x, Excl y -> Some (Excl (IntSet.union x y))

(* complement of a constraint as a constraint (always representable) *)
let neg_constr = function
  | Any -> None  (* empty set: complement of Any is nothing *)
  | In s -> Some (Excl s)
  | Excl s -> Some (In s)

let inter (a : cube) (b : cube) : cube option =
  let fields =
    List.sort_uniq Fields.compare (List.map fst a @ List.map fst b)
  in
  List.fold_left
    (fun acc f ->
      match acc with
      | None -> None
      | Some c ->
        (match inter_constr (constr_of_field a f) (constr_of_field b f) with
         | None -> None
         | Some k -> Some (set_constr c f k)))
    (Some top) fields

let subtract (a : cube) (b : cube) : cube list =
  (* classic decomposition: for each constrained field f_i of b, emit
     a ∩ b_{<i} ∩ ¬b_i, accumulating positive constraints as we go *)
  let rec go prefix fields acc =
    match fields with
    | [] -> List.rev acc
    | (f, bk) :: rest ->
      let negged =
        match neg_constr bk with
        | None -> None
        | Some nk ->
          (match inter_constr (constr_of_field prefix f) nk with
           | None -> None
           | Some k -> Some (set_constr prefix f k))
      in
      let acc = match negged with None -> acc | Some c -> c :: acc in
      (match inter_constr (constr_of_field prefix f) bk with
       | None -> List.rev acc  (* a ∩ b_{<=i} already empty: done *)
       | Some k -> go (set_constr prefix f k) rest acc)
  in
  match inter a b with
  | None -> [ a ]  (* disjoint: nothing to remove *)
  | Some _ -> go a b []

let subsumes ~general (c : cube) =
  List.for_all
    (fun (f, gk) ->
      match (gk, constr_of_field c f) with
      | Any, _ -> true
      | In g, In s -> IntSet.subset s g
      | In _, (Any | Excl _) -> false
      | Excl g, In s -> IntSet.is_empty (IntSet.inter s g)
      | Excl g, Excl s -> IntSet.subset g s
      | Excl _, Any -> false)
    general

let eq f v : cube = [ (f, In (IntSet.singleton v)) ]

let of_pattern (p : Flow.Pattern.t) : cube =
  let add c f o =
    match o with
    | None -> c
    | Some v -> set_constr c f (In (IntSet.singleton v))
  in
  let add_prefix c f o =
    match o with
    | None -> c
    | Some pfx ->
      (match Ipv4.Prefix.length pfx with
       | 0 -> c
       | 32 -> set_constr c f (In (IntSet.singleton (Ipv4.Prefix.network pfx)))
       | n ->
         raise
           (Unsupported (Printf.sprintf "/%d prefix in verified table" n)))
  in
  top
  |> fun c -> add c Fields.In_port p.in_port
  |> fun c -> add c Fields.Eth_src p.eth_src
  |> fun c -> add c Fields.Eth_dst p.eth_dst
  |> fun c -> add c Fields.Eth_type p.eth_type
  |> fun c -> add c Fields.Vlan p.vlan
  |> fun c -> add c Fields.Ip_proto p.ip_proto
  |> fun c -> add_prefix c Fields.Ip4_src p.ip4_src
  |> fun c -> add_prefix c Fields.Ip4_dst p.ip4_dst
  |> fun c -> add c Fields.Tp_src p.tp_src
  |> fun c -> add c Fields.Tp_dst p.tp_dst

let rewrite (c : cube) f v = set_constr c f (In (IntSet.singleton v))

let contains (c : cube) (h : Headers.t) =
  List.for_all
    (fun (f, k) ->
      let v = Headers.get h f in
      match k with
      | Any -> true
      | In s -> IntSet.mem v s
      | Excl s -> not (IntSet.mem v s))
    c

let witness (c : cube) : Headers.t =
  List.fold_left
    (fun h (f, k) ->
      match k with
      | Any -> h
      | In s -> Headers.set h f (IntSet.min_elt s)
      | Excl s ->
        let rec pick v = if IntSet.mem v s then pick (v + 1) else v in
        Headers.set h f (pick 0))
    Packet.Headers.default c
