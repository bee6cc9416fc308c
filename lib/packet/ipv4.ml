type t = int

let max_addr = 0xffffffff

let of_octets a b c d =
  List.iter
    (fun o -> if o < 0 || o > 0xff then invalid_arg "Ipv4.of_octets")
    [ a; b; c; d ];
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let to_int t = t

let to_string t =
  Printf.sprintf "%d.%d.%d.%d"
    ((t lsr 24) land 0xff) ((t lsr 16) land 0xff)
    ((t lsr 8) land 0xff) (t land 0xff)

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
    let oct x =
      match int_of_string_opt x with
      | Some v when v >= 0 && v <= 0xff -> v
      | Some _ | None -> invalid_arg ("Ipv4.of_string: " ^ s)
    in
    of_octets (oct a) (oct b) (oct c) (oct d)
  | _ -> invalid_arg ("Ipv4.of_string: " ^ s)

let pp fmt t = Format.pp_print_string fmt (to_string t)

module Prefix = struct
  (* [network] is stored with host bits already zeroed. *)
  type nonrec prefix = { network : t; length : int }

  type t = prefix

  let mask_of_length len =
    if len = 0 then 0 else max_addr lxor ((1 lsl (32 - len)) - 1)

  let make addr len =
    if len < 0 || len > 32 then invalid_arg "Ipv4.Prefix.make";
    { network = addr land mask_of_length len; length = len }

  let host addr = make addr 32
  let any = make 0 0
  let network p = p.network
  let length p = p.length

  let matches p addr = addr land mask_of_length p.length = p.network

  let subset ~of_ p = p.length >= of_.length && matches of_ p.network

  let overlap a b = subset ~of_:a b || subset ~of_:b a

  let to_string p = Printf.sprintf "%s/%d" (to_string p.network) p.length

  let of_string s =
    match String.index_opt s '/' with
    | None -> host (of_string s)
    | Some i ->
      let addr = of_string (String.sub s 0 i) in
      let len =
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | Some l -> l
        | None -> invalid_arg ("Ipv4.Prefix.of_string: " ^ s)
      in
      make addr len
end

let of_host_id id =
  if id < 0 || id > 0xffffff then invalid_arg "Ipv4.of_host_id";
  of_octets 10 ((id lsr 16) land 0xff) ((id lsr 8) land 0xff) (id land 0xff)
