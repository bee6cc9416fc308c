open Packet

type port =
  | Physical of int
  | In_port_out
  | Flood
  | Controller

type atom =
  | Set_field of Fields.t * int
  | Output of port

type seq = atom list
type group = seq list

let drop : group = []

let forward p : group = [ [ Output (Physical p) ] ]

let to_controller : group = [ [ Output Controller ] ]
let flood : group = [ [ Output Flood ] ]

let apply_seq (h : Headers.t) (s : seq) =
  let rec go h outs = function
    | [] -> (h, List.rev outs)
    | Set_field (f, v) :: rest -> go (Headers.set h f v) outs rest
    | Output p :: rest -> go h (p :: outs) rest
  in
  go h [] s

let rec iter_seq f h = function
  | [] -> ()
  | Set_field (fl, v) :: rest -> iter_seq f (Headers.set h fl v) rest
  | Output p :: rest ->
    f h p;
    iter_seq f h rest

let rec iter_group f (h : Headers.t) (g : group) =
  match g with
  | [] -> ()
  | s :: rest ->
    iter_seq f h s;
    iter_group f h rest

let apply_group (h : Headers.t) (g : group) =
  let outs = ref [] in
  iter_group (fun h p -> outs := (h, p) :: !outs) h g;
  List.rev !outs

let pp_port fmt = function
  | Physical p -> Format.fprintf fmt "%d" p
  | In_port_out -> Format.pp_print_string fmt "in_port"
  | Flood -> Format.pp_print_string fmt "flood"
  | Controller -> Format.pp_print_string fmt "ctrl"

let pp_atom fmt = function
  | Set_field (f, v) ->
    Format.fprintf fmt "%a:=%a" Fields.pp f Fields.pp_value (f, v)
  | Output p -> Format.fprintf fmt "out(%a)" pp_port p

let pp_seq fmt s =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
    pp_atom fmt s

let pp_group fmt = function
  | [] -> Format.pp_print_string fmt "drop"
  | g ->
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " + ")
      (fun fmt s -> Format.fprintf fmt "[%a]" pp_seq s)
      fmt g

let group_to_string g = Format.asprintf "%a" pp_group g
