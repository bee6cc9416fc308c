open Packet

module HSet = Set.Make (struct
  type t = Headers.t

  let compare = Headers.compare
end)

let rec eval_pred (p : Syntax.pred) (h : Headers.t) =
  match p with
  | True -> true
  | False -> false
  | Test (f, v) -> Headers.get h f = v
  | And (a, b) -> eval_pred a h && eval_pred b h
  | Or (a, b) -> eval_pred a h || eval_pred b h
  | Not a -> not (eval_pred a h)

let rec eval (p : Syntax.pol) (h : Headers.t) : HSet.t =
  match p with
  | Filter pred -> if eval_pred pred h then HSet.singleton h else HSet.empty
  | Mod (f, v) -> HSet.singleton (Headers.set h f v)
  | Union (a, b) -> HSet.union (eval a h) (eval b h)
  | Seq (a, b) ->
    HSet.fold (fun h' acc -> HSet.union (eval b h') acc) (eval a h) HSet.empty
  | Star a ->
    (* least fixpoint of X = {h} ∪ a(X) *)
    let rec grow frontier acc =
      if HSet.is_empty frontier then acc
      else begin
        let next =
          HSet.fold
            (fun h' acc' -> HSet.union (eval a h') acc')
            frontier HSet.empty
        in
        let fresh = HSet.diff next acc in
        grow fresh (HSet.union acc fresh)
      end
    in
    grow (HSet.singleton h) (HSet.singleton h)

let equiv_on (p : Syntax.pol) (q : Syntax.pol) (h : Headers.t) =
  HSet.equal (eval p h) (eval q h)
