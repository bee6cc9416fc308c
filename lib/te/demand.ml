type t = {
  src : int;
  dst : int;
  rate : float;
  priority : int;
}

let make ?(priority = 0) ~src ~dst ~rate () =
  if rate < 0.0 then invalid_arg "Demand.make: negative rate";
  if src = dst then invalid_arg "Demand.make: src = dst";
  { src; dst; rate; priority }

let total demands = List.fold_left (fun acc d -> acc +. d.rate) 0.0 demands

let scale factor demands =
  List.map (fun d -> { d with rate = d.rate *. factor }) demands

let uniform ~switches ~rate =
  List.concat_map
    (fun src ->
      List.filter_map
        (fun dst -> if src = dst then None else Some (make ~src ~dst ~rate ()))
        switches)
    switches

let gravity ~prng ~switches ~total_rate ?(priorities = 1) () =
  let sw = Array.of_list switches in
  let n = Array.length sw in
  if n < 2 then invalid_arg "Demand.gravity: need >= 2 switches";
  let mass = Array.init n (fun _ -> 0.25 +. Util.Prng.float prng 1.0) in
  let raw = ref [] in
  let sum = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let w = mass.(i) *. mass.(j) in
        sum := !sum +. w;
        raw := (sw.(i), sw.(j), w) :: !raw
      end
    done
  done;
  List.rev_map
    (fun (src, dst, w) ->
      make
        ~priority:(Util.Prng.int prng priorities)
        ~src ~dst
        ~rate:(total_rate *. w /. !sum)
        ())
    !raw
