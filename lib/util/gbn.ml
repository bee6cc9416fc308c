type arg = Initial | Backoff | Cap

let bad_arg ~initial ~backoff ~cap =
  if not (Float.is_finite initial && initial > 0.0) then Some Initial
  else if not (Float.is_finite backoff && backoff >= 1.0) then Some Backoff
  else if not (Float.is_finite cap && cap >= initial) then Some Cap
  else None

type 'a t = {
  window : int;
  initial : float;
  backoff : float;
  cap : float;
  now : unit -> float;
  schedule : float -> (unit -> unit) -> unit;
  send : retransmit:bool -> int -> 'a -> unit;
  queued : 'a Queue.t;                (* pushed, not yet numbered *)
  outstanding : (int * 'a) Queue.t;  (* sent and unacked, oldest first *)
  mutable next : int;   (* the number the next fresh unit gets *)
  mutable live : bool;  (* transmits; false from creation and after reset *)
  mutable timer : int;  (* generation: a stale timer finds it moved on *)
  mutable timed : (int * float) option;
      (* the one unit whose round trip is being timed, and its send time *)
  mutable srtt : float;  (* nan before the first sample *)
  mutable rttvar : float;
  mutable rto : float;
}

let create ~window ~initial ~backoff ~cap ~now ~schedule ~send =
  if window < 1 || bad_arg ~initial ~backoff ~cap <> None then
    invalid_arg "Gbn.create";
  { window; initial; backoff; cap; now; schedule; send;
    queued = Queue.create (); outstanding = Queue.create (); next = 0;
    live = false; timer = 0; timed = None; srtt = nan; rttvar = nan;
    rto = initial }

(* RFC 6298's clock granularity G: the floor on the variance term, so
   the timeout stays strictly above a constant RTT *)
let granularity = 16e-6

let estimate_rto t =
  if Float.is_nan t.srtt then t.initial
  else
    Float.min t.cap (t.srtt +. Float.max granularity (4.0 *. t.rttvar))

let sample t r =
  if Float.is_nan t.srtt then (t.srtt <- r; t.rttvar <- r /. 2.0)
  else begin
    t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (t.srtt -. r));
    t.srtt <- (0.875 *. t.srtt) +. (0.125 *. r)
  end

(* one timer for the whole window; re-arming or disarming bumps the
   generation, so an older timer fires into nothing *)
let rec arm t =
  t.timer <- t.timer + 1;
  let gen = t.timer in
  t.schedule t.rto (fun () -> if gen = t.timer then expire t)

(* go-back-N: resend the whole window oldest first, so the unit that
   gates progress leads into any bottleneck.  Karn's rule: a resent unit
   is never timed, since its ack cannot say which copy it answers. *)
and expire t =
  t.rto <- Float.min (t.rto *. t.backoff) t.cap;
  t.timed <- None;
  Queue.iter (fun (n, x) -> t.send ~retransmit:true n x) t.outstanding;
  arm t

let restart t =
  if Queue.is_empty t.outstanding then t.timer <- t.timer + 1 else arm t

let fill t =
  while
    t.live
    && Queue.length t.outstanding < t.window
    && not (Queue.is_empty t.queued)
  do
    let x = Queue.pop t.queued in
    let n = t.next in
    t.next <- n + 1;
    Queue.push (n, x) t.outstanding;
    if t.timed = None then t.timed <- Some (n, t.now ());
    t.send ~retransmit:false n x
  done

let push t x =
  let idle = Queue.is_empty t.outstanding in
  Queue.push x t.queued;
  fill t;
  if idle && not (Queue.is_empty t.outstanding) then arm t

let ack t n =
  match Queue.peek_opt t.outstanding with
  | Some (base, _) when n >= base && n < t.next ->
    for _ = base to n do
      ignore (Queue.pop t.outstanding)
    done;
    (match t.timed with
     | Some (m, sent) when m <= n ->
       t.timed <- None;
       sample t (t.now () -. sent)
     | Some _ | None -> ());
    t.rto <- estimate_rto t;
    fill t;
    restart t;
    n - base + 1
  | Some _ | None -> 0

let reset t =
  let dropped = Queue.length t.outstanding + Queue.length t.queued in
  Queue.clear t.outstanding;
  Queue.clear t.queued;
  t.live <- false;
  t.timed <- None;
  t.rto <- estimate_rto t;
  t.timer <- t.timer + 1;
  dropped

let resume t =
  t.live <- true;
  fill t;
  restart t

let next_seq t = t.next

let estimate t = if Float.is_nan t.srtt then None else Some (t.srtt, t.rttvar)
