module Online = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable minv : float;
    mutable maxv : float;
  }

  let create () =
    { n = 0; mean = 0.0; m2 = 0.0; minv = infinity; maxv = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.minv then t.minv <- x;
    if x > t.maxv then t.maxv <- x

  let count t = t.n
  let mean t = if t.n = 0 then nan else t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
  let min_value t = if t.n = 0 then nan else t.minv
  let max_value t = if t.n = 0 then nan else t.maxv
end

let percentile xs p =
  if xs = [] then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  if List.exists Float.is_nan xs then invalid_arg "Stats.percentile: nan";
  let arr = Array.of_list xs in
  Array.sort Float.compare arr;
  let n = Array.length arr in
  if n = 1 then arr.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    arr.(lo) +. (frac *. (arr.(hi) -. arr.(lo)))
  end

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let jain_fairness xs =
  match xs with
  | [] -> invalid_arg "Stats.jain_fairness: empty"
  | _ ->
    let s = List.fold_left ( +. ) 0.0 xs in
    let s2 = List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
    if s2 = 0.0 then 1.0 else s *. s /. (float_of_int (List.length xs) *. s2)

module Series = struct
  type t = { mutable samples : (float * float) list (* newest first *) }

  let create () = { samples = [] }
  let add t ~time ~value = t.samples <- (time, value) :: t.samples
  let length t = List.length t.samples

  let rate t =
    match (t.samples, List.rev t.samples) with
    | (tn, vn) :: _, (t0, v0) :: _ when tn > t0 -> (vn -. v0) /. (tn -. t0)
    | _ -> 0.0
end
