type t = {
  initial : float;
  backoff : float;
  cap : float;
  mutable srtt : float;    (* nan before the first sample *)
  mutable rttvar : float;
  mutable current : float;
}

type arg = Initial | Backoff | Cap

let bad_arg ~initial ~backoff ~cap =
  if not (Float.is_finite initial && initial > 0.0) then Some Initial
  else if not (Float.is_finite backoff && backoff >= 1.0) then Some Backoff
  else if not (Float.is_finite cap && cap >= initial) then Some Cap
  else None

let create ~initial ~backoff ~cap =
  (match bad_arg ~initial ~backoff ~cap with
   | Some Initial -> invalid_arg "Rto.create: initial"
   | Some Backoff -> invalid_arg "Rto.create: backoff"
   | Some Cap -> invalid_arg "Rto.create: cap"
   | None -> ());
  { initial; backoff; cap; srtt = nan; rttvar = nan; current = initial }

let current t = t.current

let expire t = t.current <- Float.min (t.current *. t.backoff) t.cap

let estimate_rto t =
  if Float.is_nan t.srtt then t.initial
  else
    Float.min t.cap
      (t.srtt +. Float.max Timing_wheel.default_tick (4.0 *. t.rttvar))

let ack ?rtt t =
  (match rtt with
   | None -> ()
   | Some r when Float.is_nan t.srtt ->
     t.srtt <- r;
     t.rttvar <- r /. 2.0
   | Some r ->
     t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (t.srtt -. r));
     t.srtt <- (0.875 *. t.srtt) +. (0.125 *. r));
  t.current <- estimate_rto t

let estimate t = if Float.is_nan t.srtt then None else Some (t.srtt, t.rttvar)
