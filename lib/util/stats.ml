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

module Histogram = struct
  type t = { lo : float; hi : float; counts : int array; mutable total : int }

  let create ~lo ~hi ~buckets =
    if buckets <= 0 then invalid_arg "Histogram.create: buckets";
    if hi <= lo then invalid_arg "Histogram.create: bounds";
    { lo; hi; counts = Array.make buckets 0; total = 0 }

  let add t x =
    let n = Array.length t.counts in
    let idx =
      int_of_float (float_of_int n *. ((x -. t.lo) /. (t.hi -. t.lo)))
    in
    let idx = max 0 (min (n - 1) idx) in
    t.counts.(idx) <- t.counts.(idx) + 1;
    t.total <- t.total + 1

  let count t = t.total
  let bucket_count t i = t.counts.(i)

  let quantile t q =
    if t.total = 0 then nan
    else begin
      let target = q *. float_of_int t.total in
      let n = Array.length t.counts in
      let width = (t.hi -. t.lo) /. float_of_int n in
      let rec go i acc =
        if i >= n then t.hi
        else begin
          let acc' = acc + t.counts.(i) in
          if float_of_int acc' >= target then
            t.lo +. (width *. (float_of_int i +. 0.5))
          else go (i + 1) acc'
        end
      in
      go 0 0
    end
end

module Ewma = struct
  type t = { alpha : float; mutable value : float option }

  let create ~alpha =
    if alpha <= 0.0 || alpha > 1.0 then invalid_arg "Ewma.create: alpha";
    { alpha; value = None }

  let add t x =
    match t.value with
    | None -> t.value <- Some x
    | Some v -> t.value <- Some ((t.alpha *. x) +. ((1.0 -. t.alpha) *. v))

  let value t = t.value
end

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
