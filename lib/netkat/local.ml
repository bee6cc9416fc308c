open Packet

exception Not_local of string

type rule = Flow.Pattern.t * Flow.Action.group

(* Convert one FDD action (a partial header update) to a flow action
   sequence.  The final location of the packet is its [In_port] value:
   an update that writes [In_port] outputs there; one that leaves it
   alone sends the packet back where it came from. *)
let seq_of_act (act : Fdd.Act.t) : Flow.Action.seq =
  let mods, out =
    List.fold_left
      (fun (mods, out) (f, v) ->
        match (f : Fields.t) with
        | Switch -> raise (Not_local "policy modifies the switch field")
        | In_port -> (mods, Some v)
        | Eth_src | Eth_dst | Eth_type | Vlan | Ip_proto | Ip4_src | Ip4_dst
        | Tp_src | Tp_dst ->
          (Flow.Action.Set_field (f, v) :: mods, out))
      ([], None) (Fdd.Act.bindings act)
  in
  let output =
    match out with
    | Some p -> Flow.Action.Output (Physical p)
    | None -> Flow.Action.Output In_port_out
  in
  List.rev mods @ [ output ]

let group_of_actset (acts : Fdd.ActSet.t) : Flow.Action.group =
  List.map seq_of_act (Fdd.ActSet.elements acts)

(* Ordered FDD paths carry at most one positive test per field, so each
   test fills an empty field of the pattern. *)
let pattern_of_tests tests =
  List.fold_left
    (fun (pat : Flow.Pattern.t) (f, v) ->
      match (f : Fields.t) with
      | Switch -> raise (Not_local "switch test survived specialization")
      | In_port -> { pat with in_port = Some v }
      | Eth_src -> { pat with eth_src = Some v }
      | Eth_dst -> { pat with eth_dst = Some v }
      | Eth_type -> { pat with eth_type = Some v }
      | Vlan -> { pat with vlan = Some v }
      | Ip_proto -> { pat with ip_proto = Some v }
      | Ip4_src -> { pat with ip4_src = Some (Ipv4.Prefix.host v) }
      | Ip4_dst -> { pat with ip4_dst = Some (Ipv4.Prefix.host v) }
      | Tp_src -> { pat with tp_src = Some v }
      | Tp_dst -> { pat with tp_dst = Some v })
    Flow.Pattern.any tests

let rules_of_restricted d =
  (* fold_paths visits the first-match path first; the accumulated list
     is reversed *)
  let paths =
    Fdd.fold_paths d ~init:[] ~f:(fun tests acts acc ->
      (pattern_of_tests tests, group_of_actset acts) :: acc)
  in
  Array.of_list (List.rev paths)

let rules_of_fdd ~switch d =
  Array.to_list (rules_of_restricted (Fdd.restrict (Fields.Switch, switch) d))

let compile ~switch pol =
  rules_of_fdd ~switch (Fdd.of_policy pol)
