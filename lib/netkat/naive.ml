open Packet

exception Unsupported of string

(* An atomic rule: a conjunction of exact tests and an update. *)
type arule = { tests : (Fields.t * int) list; update : Fdd.Act.t }

let test_get tests f =
  List.find_map (fun (g, v) -> if Fields.equal f g then Some v else None) tests

(* Add a test; None when contradictory. *)
let add_test tests (f, v) =
  match test_get tests f with
  | Some v' -> if v = v' then Some tests else None
  | None -> Some ((f, v) :: tests)

(* Disjunctive normal form of a predicate: a list of test conjunctions. *)
let rec dnf (p : Syntax.pred) : (Fields.t * int) list list =
  match p with
  | True -> [ [] ]
  | False -> []
  | Test (f, v) -> [ [ (f, v) ] ]
  | Or (a, b) -> dnf a @ dnf b
  | And (a, b) ->
    List.concat_map
      (fun ca ->
        List.filter_map
          (fun cb ->
            List.fold_left
              (fun acc t ->
                match acc with
                | None -> None
                | Some tests -> add_test tests t)
              (Some ca) cb)
          (dnf b))
      (dnf a)
  | Not _ -> raise (Unsupported "negation")

(* Sequential composition of two atomic rules: pull rule [b]'s tests
   back through rule [a]'s update. *)
let compose_arule a b =
  let pulled =
    List.fold_left
      (fun acc (f, v) ->
        match acc with
        | None -> None
        | Some tests ->
          (match Fdd.Act.get a.update f with
           | Some written -> if written = v then Some tests else None
           | None -> add_test tests (f, v)))
      (Some a.tests) b.tests
  in
  match pulled with
  | None -> None
  | Some tests -> Some { tests; update = Fdd.Act.compose a.update b.update }

let rec translate (p : Syntax.pol) : arule list =
  match p with
  | Filter pred -> List.map (fun tests -> { tests; update = Fdd.Act.id }) (dnf pred)
  | Mod (f, v) ->
    if Fields.equal f Fields.Switch then
      raise (Unsupported "switch modification");
    [ { tests = []; update = Fdd.Act.single f v } ]
  | Union (a, b) -> translate a @ translate b
  | Seq (a, b) ->
    let ra = translate a and rb = translate b in
    List.concat_map
      (fun a' -> List.filter_map (fun b' -> compose_arule a' b') rb)
      ra
  | Star _ -> raise (Unsupported "star")

let compile ~switch pol : Local.rule list =
  let keep r =
    match test_get r.tests Fields.Switch with
    | Some sw -> sw = switch
    | None -> true
  in
  translate pol
  |> List.filter keep
  |> List.map (fun r ->
    let tests =
      List.filter (fun (f, _) -> not (Fields.equal f Fields.Switch)) r.tests
    in
    let pattern =
      List.fold_left
        (fun pat (f, v) ->
          match Flow.Pattern.conj pat (Flow.Pattern.of_field f v) with
          | Some p -> p
          | None -> assert false)
        Flow.Pattern.any tests
    in
    (pattern, [ Local.seq_of_act r.update ]))
