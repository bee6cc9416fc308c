type t = {
  size : int;  (** total domains used by {!map}, including the caller *)
  mutex : Mutex.t;
  nonempty : Condition.t;     (* signaled when a job is enqueued *)
  settled : Condition.t;      (* broadcast when any batch completes *)
  jobs : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let size t = t.size

(** Pool size used when none is requested. *)
let default_size () = Domain.recommended_domain_count ()

let rec worker t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.jobs && not t.stop do
    Condition.wait t.nonempty t.mutex
  done;
  match Queue.take_opt t.jobs with
  | Some job ->
    Mutex.unlock t.mutex;
    (* jobs are wrappers built by [map]; they never raise *)
    job ();
    worker t
  | None ->
    (* queue empty and stop set: drain complete, retire *)
    Mutex.unlock t.mutex

let create ?domains () =
  let size = match domains with Some d -> d | None -> default_size () in
  if size < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let t =
    { size; mutex = Mutex.create (); nonempty = Condition.create ();
      settled = Condition.create (); jobs = Queue.create (); stop = false;
      workers = [] }
  in
  t.workers <- List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let map t xs ~f =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when t.size = 1 || t.workers = [] -> List.map f xs
  | _ ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let out = Array.make n None in
    let remaining = Atomic.make n in
    let error = Atomic.make None in
    let job i () =
      (match f arr.(i) with
       | r -> out.(i) <- Some r
       | exception e ->
         let bt = Printexc.get_raw_backtrace () in
         ignore (Atomic.compare_and_set error None (Some (e, bt))));
      (* the last job to settle wakes every batch waiting on the pool;
         [settled] waiters recheck their own counters *)
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        Mutex.lock t.mutex;
        Condition.broadcast t.settled;
        Mutex.unlock t.mutex
      end
    in
    Mutex.lock t.mutex;
    for i = 0 to n - 1 do Queue.push (job i) t.jobs done;
    Condition.broadcast t.nonempty;
    (* the caller helps until the queue drains, then waits for the jobs
       still running on workers *)
    let rec drive () =
      if Atomic.get remaining > 0 then
        match Queue.take_opt t.jobs with
        | Some job ->
          Mutex.unlock t.mutex;
          job ();
          Mutex.lock t.mutex;
          drive ()
        | None ->
          if Atomic.get remaining > 0 then begin
            Condition.wait t.settled t.mutex;
            drive ()
          end
    in
    drive ();
    Mutex.unlock t.mutex;
    (match Atomic.get error with
     | Some (e, bt) -> Printexc.raise_with_backtrace e bt
     | None -> ());
    Array.to_list (Array.map Option.get out)

(* The process-wide shared pool.  Lazy so programs that never go
   parallel spawn nothing. *)
let default = lazy (create ())

let get_default () = Lazy.force default
