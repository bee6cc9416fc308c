open Packet

exception Unsupported of string

type loc = int * int

type gpol =
  | Local of Syntax.pol
  | GLink of loc * loc
  | GSeq of gpol * gpol
  | GUnion of gpol * gpol
  | GStar of gpol

let max_segments = 15

(* ------------------------------------------------------------------ *)
(* Sugar *)

let gseq a b = GSeq (a, b)
let big_gseq = function
  | [] -> Local Syntax.id
  | x :: xs -> List.fold_left gseq x xs

let rec desugar = function
  | Local p -> p
  | GLink ((s1, p1), (s2, p2)) -> Syntax.link (s1, p1) (s2, p2)
  | GSeq (a, b) -> Syntax.seq (desugar a) (desugar b)
  | GUnion (a, b) -> Syntax.union (desugar a) (desugar b)
  | GStar a -> Syntax.star (desugar a)

(* ------------------------------------------------------------------ *)
(* Normalization into traces *)

type trace = {
  first : Syntax.pol;
  rest : ((loc * loc) * Syntax.pol) list;
}

let check_stage p =
  let rec bad : Syntax.pol -> bool = function
    | Filter pred ->
      let rec bad_pred : Syntax.pred -> bool = function
        | True | False -> false
        | Test (f, _) -> Fields.equal f Fields.Vlan
        | And (a, b) | Or (a, b) -> bad_pred a || bad_pred b
        | Not a -> bad_pred a
      in
      bad_pred pred
    | Mod (f, _) ->
      Fields.equal f Fields.Switch || Fields.equal f Fields.Vlan
    | Union (a, b) | Seq (a, b) -> bad a || bad b
    | Star a -> bad a
  in
  if bad p then
    raise (Unsupported "stages may not touch the Switch or Vlan fields")

let seq_trace ta tb =
  match ta.rest with
  | [] -> { first = Syntax.seq ta.first tb.first; rest = tb.rest }
  | rest ->
    let rec splice = function
      | [ (l, s) ] -> (l, Syntax.seq s tb.first) :: tb.rest
      | x :: xs -> x :: splice xs
      | [] -> assert false
    in
    { ta with rest = splice rest }

let rec normalize = function
  | Local p ->
    check_stage p;
    [ { first = p; rest = [] } ]
  | GLink (src, dst) ->
    (* entering the link requires being at its source; the move itself
       is the physical hop *)
    let s1, p1 = src in
    [ { first =
          Syntax.filter
            (Syntax.conj (Syntax.test Fields.Switch s1)
               (Syntax.test Fields.In_port p1));
        rest = [ ((src, dst), Syntax.id) ] } ]
  | GUnion (a, b) -> normalize a @ normalize b
  | GSeq (a, b) ->
    let ta = normalize a and tb = normalize b in
    List.concat_map (fun x -> List.map (seq_trace x) tb) ta
  | GStar a ->
    let traces = normalize a in
    if List.exists (fun t -> t.rest <> []) traces then
      raise (Unsupported "Star over link hops")
    else begin
      let p = desugar a in
      check_stage p;
      [ { first = Syntax.star p; rest = [] } ]
    end

(* ------------------------------------------------------------------ *)
(* Tagging *)

let at_loc (sw, pt) =
  Syntax.conj (Syntax.test Fields.Switch sw) (Syntax.test Fields.In_port pt)

let compile ?(base_tag = 2000) g =
  let traces = normalize g in
  let pols =
    List.mapi
      (fun i t ->
        let n = List.length t.rest in
        if n > max_segments then
          raise (Unsupported "trace exceeds max_segments link hops");
        let tag j = base_tag + (i * (max_segments + 1)) + j in
        let untagged = Syntax.test Fields.Vlan Fields.vlan_none in
        if n = 0 then Syntax.seq (Syntax.filter untagged) t.first
        else begin
          (* stage 0: untagged, run, must sit at link 1's source, push tag 1 *)
          let (src1, _), _ = List.nth t.rest 0 in
          let stage0 =
            Syntax.big_seq
              [ Syntax.filter untagged; t.first;
                Syntax.filter (at_loc src1);
                Syntax.modify Fields.Vlan (tag 1) ]
          in
          let stages =
            List.mapi
              (fun j ((_, dst), body) ->
                let j = j + 1 in
                let guard =
                  Syntax.conj (Syntax.test Fields.Vlan (tag j)) (at_loc dst)
                in
                let tail =
                  if j = n then
                    [ Syntax.modify Fields.Vlan Fields.vlan_none ]
                  else begin
                    let (next_src, _), _ = List.nth t.rest j in
                    [ Syntax.filter (at_loc next_src);
                      Syntax.modify Fields.Vlan (tag (j + 1)) ]
                  end
                in
                Syntax.big_seq
                  ((Syntax.filter guard :: [ body ]) @ tail))
              t.rest
          in
          Syntax.big_union (stage0 :: stages)
        end)
      traces
  in
  Syntax.big_union pols

let links_of g =
  let rec go = function
    | Local _ -> []
    | GLink (a, b) -> [ (a, b) ]
    | GSeq (a, b) | GUnion (a, b) -> go a @ go b
    | GStar a -> go a
  in
  List.sort_uniq compare (go g)

let validate topo g =
  List.filter
    (fun (((s1, p1), (s2, p2)) : loc * loc) ->
      match Topo.Topology.peer topo (Topo.Topology.Node.Switch s1) p1 with
      | Some (Topo.Topology.Node.Switch s2', p2') ->
        not (s2 = s2' && p2 = p2')
      | Some (Topo.Topology.Node.Host _, _) | None -> true)
    (links_of g)

(* ------------------------------------------------------------------ *)
(* Convenience builders *)

let path_program topo ~vias ~stage ~final =
  let link_between a b =
    Topo.Topology.out_links topo (Topo.Topology.Node.Switch a)
    |> List.find_opt (fun (l : Topo.Topology.link) ->
      l.dst = Topo.Topology.Node.Switch b)
  in
  let rec build = function
    | [] -> []
    | [ last ] ->
      [ Local (Syntax.big_seq [ Syntax.at ~switch:last; stage; final ]) ]
    | a :: (b :: _ as rest) ->
      (match link_between a b with
       | None ->
         raise
           (Unsupported (Printf.sprintf "path_program: no link s%d -> s%d" a b))
       | Some l ->
         Local
           (Syntax.big_seq
              [ Syntax.at ~switch:a; stage; Syntax.forward l.src_port ])
         :: GLink ((a, l.src_port), (Topo.Topology.Node.id l.dst, l.dst_port))
         :: build rest)
  in
  match vias with
  | [] -> Local Syntax.drop
  | _ -> big_gseq (build vias)
