type rule = {
  priority : int;
  pattern : Pattern.t;
  actions : Action.group;
}

(* rules are processed in match-precedence order: descending priority,
   earlier-installed first among ties *)
let sort_rules rules =
  List.stable_sort (fun a b -> compare b.priority a.priority) rules

let shadow_pass rules =
  let rec go kept = function
    | [] -> List.rev kept
    | r :: rest ->
      let dead =
        List.exists
          (fun earlier -> Pattern.subsumes ~general:earlier.pattern r.pattern)
          kept
      in
      go (if dead then kept else r :: kept) rest
  in
  go [] rules

let redundancy_pass rules =
  (* for each rule, look for a later same-action rule subsuming it with
     no conflicting rule in between *)
  let arr = Array.of_list rules in
  let n = Array.length arr in
  let redundant = Array.make n false in
  for i = 0 to n - 1 do
    let r = arr.(i) in
    let rec scan j blocked =
      if j >= n || blocked then ()
      else begin
        let r' = arr.(j) in
        if (not (redundant.(j)))
           && r'.actions = r.actions
           && Pattern.subsumes ~general:r'.pattern r.pattern
        then redundant.(i) <- true
        else begin
          let blocks =
            (not redundant.(j))
            && r'.actions <> r.actions
            && Pattern.overlap r'.pattern r.pattern
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
    let next = redundancy_pass (shadow_pass rules) in
    if List.length next = List.length rules then rules else fix next
  in
  fix (sort_rules rules)

let lookup rules (h : Packet.Headers.t) =
  List.find_map
    (fun r -> if Pattern.matches r.pattern h then Some r.actions else None)
    (sort_rules rules)

let minimize_table (table : Table.t) =
  let before = Table.rules table in
  let shrunk =
    minimize
      (List.map
         (fun (r : Table.rule) ->
           { priority = r.priority; pattern = r.pattern; actions = r.actions })
         before)
  in
  Table.clear table;
  List.iter
    (fun r ->
      Table.add table
        (Table.make_rule ~priority:r.priority ~pattern:r.pattern
           ~actions:r.actions ()))
    shrunk;
  (List.length before, List.length shrunk)
