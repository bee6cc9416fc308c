open Packet

type pred =
  | True
  | False
  | Test of Fields.t * int
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type pol =
  | Filter of pred
  | Mod of Fields.t * int
  | Union of pol * pol
  | Seq of pol * pol
  | Star of pol

let id = Filter True

let drop = Filter False

(* Smart constructors perform the cheap algebraic simplifications so
   that mechanically-assembled policies stay small. *)

let test f v = Test (f, v)

let conj a b =
  match (a, b) with
  | True, p | p, True -> p
  | False, _ | _, False -> False
  | _ -> And (a, b)

let disj a b =
  match (a, b) with
  | False, p | p, False -> p
  | True, _ | _, True -> True
  | _ -> Or (a, b)

let neg = function
  | True -> False
  | False -> True
  | Not p -> p
  | p -> Not p

let filter p = Filter p

let modify f v = Mod (f, v)

let union a b =
  match (a, b) with
  | Filter False, p | p, Filter False -> p
  | _ -> Union (a, b)

let seq a b =
  match (a, b) with
  | Filter True, p | p, Filter True -> p
  | Filter False, _ | _, Filter False -> drop
  | _ -> Seq (a, b)

let star = function
  | Filter True | Filter False -> id
  | p -> Star p

let big_union ps = List.fold_right union ps drop

let big_seq ps = List.fold_right seq ps id

let ite pred p q =
  union (seq (filter pred) p) (seq (filter (neg pred)) q)

let at ~switch = filter (test Fields.Switch switch)

let forward port = modify Fields.In_port port

let link (s1, p1) (s2, p2) =
  big_seq
    [ filter (conj (test Fields.Switch s1) (test Fields.In_port p1));
      modify Fields.Switch s2;
      forward p2 ]

(* ------------------------------------------------------------------ *)
(* Structural measures *)

let rec pred_size = function
  | True | False | Test _ -> 1
  | And (a, b) | Or (a, b) -> 1 + pred_size a + pred_size b
  | Not p -> 1 + pred_size p

let rec size = function
  | Filter p -> pred_size p
  | Mod _ -> 1
  | Union (a, b) | Seq (a, b) -> 1 + size a + size b
  | Star p -> 1 + size p

let rec uses_links = function
  | Filter _ -> false
  | Mod (f, _) -> Fields.equal f Fields.Switch
  | Union (a, b) | Seq (a, b) -> uses_links a || uses_links b
  | Star p -> uses_links p

(* ------------------------------------------------------------------ *)
(* Pretty printing (round-trips through Parser.pol_of_string) *)

(* precedence: Or < And < Not for predicates; Union < Seq < Star *)

let rec pp_pred_prec prec fmt p =
  let paren lvl body =
    if prec > lvl then Format.fprintf fmt "(%t)" body else body fmt
  in
  match p with
  | True -> Format.pp_print_string fmt "true"
  | False -> Format.pp_print_string fmt "false"
  | Test (f, v) ->
    Format.fprintf fmt "%a = %a" Fields.pp f Fields.pp_value (f, v)
  | Or (a, b) ->
    paren 0 (fun fmt ->
      Format.fprintf fmt "%a or %a" (pp_pred_prec 0) a (pp_pred_prec 1) b)
  | And (a, b) ->
    paren 1 (fun fmt ->
      Format.fprintf fmt "%a and %a" (pp_pred_prec 1) a (pp_pred_prec 2) b)
  | Not a -> paren 2 (fun fmt -> Format.fprintf fmt "not %a" (pp_pred_prec 3) a)

let pp_pred fmt p = pp_pred_prec 0 fmt p

let rec pp_pol_prec prec fmt p =
  let paren lvl body =
    if prec > lvl then Format.fprintf fmt "(%t)" body else body fmt
  in
  match p with
  | Filter True -> Format.pp_print_string fmt "id"
  | Filter False -> Format.pp_print_string fmt "drop"
  | Filter pred ->
    paren 2 (fun fmt -> Format.fprintf fmt "filter %a" (pp_pred_prec 3) pred)
  | Mod (f, v) ->
    Format.fprintf fmt "%a := %a" Fields.pp f Fields.pp_value (f, v)
  | Union (a, b) ->
    paren 0 (fun fmt ->
      Format.fprintf fmt "%a + %a" (pp_pol_prec 0) a (pp_pol_prec 1) b)
  | Seq (a, b) ->
    paren 1 (fun fmt ->
      Format.fprintf fmt "%a; %a" (pp_pol_prec 1) a (pp_pol_prec 2) b)
  | Star a -> paren 2 (fun fmt -> Format.fprintf fmt "%a*" (pp_pol_prec 3) a)

let pp_pol fmt p = pp_pol_prec 0 fmt p

let pred_to_string p = Format.asprintf "%a" pp_pred p
let pol_to_string p = Format.asprintf "%a" pp_pol p
