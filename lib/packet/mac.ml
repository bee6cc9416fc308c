type t = int

let broadcast = 0xffffffffffff

let of_octets a b c d e f =
  List.iter
    (fun o -> if o < 0 || o > 0xff then invalid_arg "Mac.of_octets")
    [ a; b; c; d; e; f ];
  (a lsl 40) lor (b lsl 32) lor (c lsl 24) lor (d lsl 16) lor (e lsl 8) lor f

let to_int t = t

let to_string t =
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x"
    ((t lsr 40) land 0xff) ((t lsr 32) land 0xff) ((t lsr 24) land 0xff)
    ((t lsr 16) land 0xff) ((t lsr 8) land 0xff) (t land 0xff)

let of_string s =
  match String.split_on_char ':' s with
  | [ a; b; c; d; e; f ] ->
    let oct x =
      match int_of_string_opt ("0x" ^ x) with
      | Some v when v >= 0 && v <= 0xff -> v
      | Some _ | None -> invalid_arg ("Mac.of_string: " ^ s)
    in
    of_octets (oct a) (oct b) (oct c) (oct d) (oct e) (oct f)
  | _ -> invalid_arg ("Mac.of_string: " ^ s)

let is_broadcast t = t = broadcast

let is_multicast t = (t lsr 40) land 1 = 1

let pp fmt t = Format.pp_print_string fmt (to_string t)

let of_host_id id =
  if id < 0 || id > 0xffffffff then invalid_arg "Mac.of_host_id";
  0x020000000000 lor id
