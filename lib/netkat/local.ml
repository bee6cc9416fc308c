open Packet

exception Not_local of string

type rule = {
  priority : int;
  pattern : Flow.Pattern.t;
  actions : Flow.Action.group;
}

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

let pattern_of_tests tests =
  List.fold_left
    (fun pat (f, v) ->
      match (f : Fields.t) with
      | Switch -> raise (Not_local "switch test survived specialization")
      | In_port | Eth_src | Eth_dst | Eth_type | Vlan | Ip_proto | Ip4_src
      | Ip4_dst | Tp_src | Tp_dst ->
        (match Flow.Pattern.conj pat (Flow.Pattern.of_field f v) with
         | Some p -> p
         | None ->
           (* ordered FDD paths carry at most one positive test per
              field, so a contradiction is impossible *)
           assert false))
    Flow.Pattern.any tests

let rules_of_restricted d =
  let paths =
    Fdd.fold_paths d ~init:[] ~f:(fun tests acts acc ->
      (pattern_of_tests tests, group_of_actset acts) :: acc)
  in
  (* fold_paths accumulates in visit order, so [paths] is reversed:
     the head is the last-visited (lowest-priority) path. *)
  let n = List.length paths in
  List.rev paths
  |> List.mapi (fun i (pattern, actions) ->
    { priority = n - i; pattern; actions })

let rules_of_fdd ~switch d =
  rules_of_restricted (Fdd.restrict (Fields.Switch, switch) d)

let compile ~switch pol =
  rules_of_fdd ~switch (Fdd.of_policy pol)

(** [load_rules table rules] adds each rule to [table]. *)
let load_rules table rules =
  List.iter
    (fun r ->
      Flow.Table.add table
        (Flow.Table.make_rule ~priority:r.priority ~pattern:r.pattern
           ~actions:r.actions ()))
    rules

let table_of_rules ?capacity rules =
  let table = Flow.Table.create ?capacity () in
  load_rules table rules;
  table

let compile_table ?capacity ~switch pol =
  table_of_rules ?capacity (compile ~switch pol)

let rules_of_fdd_all ~switches d =
  List.map (fun sw -> (sw, rules_of_fdd ~switch:sw d)) switches

let compile_all ~switches pol = rules_of_fdd_all ~switches (Fdd.of_policy pol)

let pp_rule fmt r =
  Format.fprintf fmt "[%4d] %a -> %a" r.priority Flow.Pattern.pp r.pattern
    Flow.Action.pp_group r.actions
