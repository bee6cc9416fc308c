(* rules are in match-precedence order: first match first *)

(* [(live, dead)]: a rule is dead when an earlier live rule's pattern
   subsumes its own (a rule under a dead one is under a live one too:
   subsumption is transitive) *)
let partition_shadowed rules =
  let rec go live dead = function
    | [] -> (List.rev live, List.rev dead)
    | ((pattern, _) as r) :: rest ->
      if
        List.exists
          (fun (earlier, _) -> Pattern.subsumes ~general:earlier pattern)
          live
      then go live (r :: dead) rest
      else go (r :: live) dead rest
  in
  go [] [] rules

let shadowed rules = snd (partition_shadowed rules)

let redundancy_pass rules =
  (* for each rule, look for a later same-action rule subsuming it with
     no conflicting rule in between *)
  let arr = Array.of_list rules in
  let n = Array.length arr in
  let redundant = Array.make n false in
  for i = 0 to n - 1 do
    let pattern, actions = arr.(i) in
    let rec scan j blocked =
      if j >= n || blocked then ()
      else begin
        let pattern', actions' = arr.(j) in
        if (not (redundant.(j)))
           && actions' = actions
           && Pattern.subsumes ~general:pattern' pattern
        then redundant.(i) <- true
        else begin
          let blocks =
            (not redundant.(j))
            && actions' <> actions
            && Pattern.overlap pattern' pattern
          in
          scan (j + 1) blocks
        end
      end
    in
    scan (i + 1) false
  done;
  List.filteri (fun i _ -> not redundant.(i)) (Array.to_list arr)

let minimize rules =
  let rec fix rules =
    let next = redundancy_pass (fst (partition_shadowed rules)) in
    if List.length next = List.length rules then rules else fix next
  in
  fix rules

let lookup rules (h : Packet.Headers.t) =
  List.find_map
    (fun (pattern, actions) ->
      if Pattern.matches pattern h then Some actions else None)
    rules
