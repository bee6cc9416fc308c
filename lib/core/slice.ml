(** Network slices: named groups of hosts that share the substrate but
    must not exchange traffic — the PlanetLab lesson ("many architectures
    on one substrate") expressed as policy.

    A slice compiles to the routing policy restricted to packets whose
    source {e and} destination IP belong to the slice; the network policy
    is the union over slices.  Isolation is then a checkable property of
    the compiled tables ({!verify_isolation}). *)

type t = {
  name : string;
  hosts : int list;  (** member host ids *)
}

let make ~name ~hosts =
  if hosts = [] then invalid_arg "Slice.make: empty slice";
  { name; hosts }

(** [policy topo slices] — the sliced network policy: traffic is routed
    iff both endpoints are in the same slice. *)
let policy topo slices =
  Netkat.Builder.isolation_policy topo
    ~groups:(List.map (fun s -> s.hosts) slices)

(** [verify_isolation snapshot a b] — leaks between two slices as
    (src, dst) witness pairs (empty = isolated). *)
let verify_isolation snapshot a b =
  Verify.Reach.isolated snapshot ~group_a:a.hosts ~group_b:b.hosts

(** [verify_all snapshot slices] — checks every slice pair; returns
    [(slice_a, slice_b, leaks)] for pairs with leaks. *)
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

(** Intra-slice connectivity: pairs of same-slice hosts that cannot
    reach each other (empty = fully connected inside the slice). *)
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
