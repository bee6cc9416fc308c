type t = {
  name : string;
  hosts : int list;
}

let make ~name ~hosts =
  if hosts = [] then invalid_arg "Slice.make: empty slice";
  { name; hosts }

let policy topo slices =
  Netkat.Builder.isolation_policy topo
    ~groups:(List.map (fun s -> s.hosts) slices)

let verify_isolation snapshot a b =
  Verify.Reach.isolated snapshot ~group_a:a.hosts ~group_b:b.hosts

let verify_all snapshot slices =
  let rec pairs = function
    | [] -> []
    | s :: rest -> List.map (fun s' -> (s, s')) rest @ pairs rest
  in
  pairs slices
  |> List.filter_map (fun (a, b) ->
    match verify_isolation snapshot a b with
    | [] -> None
    | leaks -> Some (a.name, b.name, leaks))

let verify_connectivity snapshot slice =
  List.concat_map
    (fun src ->
      List.filter_map
        (fun dst ->
          if src = dst then None
          else if Verify.Reach.reachable snapshot ~src ~dst then None
          else Some (src, dst))
        slice.hosts)
    slice.hosts
