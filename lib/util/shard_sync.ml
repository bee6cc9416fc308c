type 'a envelope = {
  env_time : float;
  env_src : int;   (* posting shard *)
  env_seq : int;   (* per-source post counter: deterministic tie order *)
  env_load : 'a;
}

type 'a mailbox = {
  mb_mutex : Mutex.t;
  mutable mb_buf : 'a envelope list;  (* newest first *)
  mutable mb_count : int;
  mutable mb_min : float;             (* infinity when empty *)
  mutable mb_high_water : int;
}

type stats = {
  rounds : int;
  handoffs : int array;
  stalls : int array;
  steals : int array;
  windows : int array;
  avg_window : float array;
  backpressure : int;
  high_water : int;
}

type 'a t = {
  nshards : int;
  capacity : int;
  boxes : 'a mailbox array;
  seqs : int array;       (* next per-source sequence; owner-written only *)
  handoffs : int array;   (* envelopes posted by shard i *)
  stalls : int array;     (* windows where shard i had nothing to run *)
  steals : int array;     (* windows of shard i run by a non-home worker *)
  windows : int array;    (* windows shard i actually executed *)
  win_sum : float array;  (* total width of those windows *)
  mutable rounds : int;
  mutable backpressure : int;
}

let default_capacity = 65536

let create ?(capacity = default_capacity) ~shards () =
  if shards < 1 then invalid_arg "Shard_sync.create: shards must be >= 1";
  { nshards = shards; capacity;
    boxes =
      Array.init shards (fun _ ->
        { mb_mutex = Mutex.create (); mb_buf = []; mb_count = 0;
          mb_min = infinity; mb_high_water = 0 });
    seqs = Array.make shards 0;
    handoffs = Array.make shards 0;
    stalls = Array.make shards 0;
    steals = Array.make shards 0;
    windows = Array.make shards 0;
    win_sum = Array.make shards 0.0;
    rounds = 0; backpressure = 0 }

let post t ~src ~dst ~time load =
  let seq = t.seqs.(src) in
  t.seqs.(src) <- seq + 1;
  t.handoffs.(src) <- t.handoffs.(src) + 1;
  let e = { env_time = time; env_src = src; env_seq = seq; env_load = load } in
  let box = t.boxes.(dst) in
  Mutex.lock box.mb_mutex;
  box.mb_buf <- e :: box.mb_buf;
  box.mb_count <- box.mb_count + 1;
  if time < box.mb_min then box.mb_min <- time;
  if box.mb_count > box.mb_high_water then box.mb_high_water <- box.mb_count;
  if box.mb_count > t.capacity then t.backpressure <- t.backpressure + 1;
  Mutex.unlock box.mb_mutex

let envelope_cmp a b =
  match Float.compare a.env_time b.env_time with
  | 0 ->
    (match compare a.env_src b.env_src with
     | 0 -> compare a.env_seq b.env_seq
     | c -> c)
  | c -> c

let drain t shard =
  let box = t.boxes.(shard) in
  Mutex.lock box.mb_mutex;
  let buf = box.mb_buf in
  box.mb_buf <- [];
  box.mb_count <- 0;
  box.mb_min <- infinity;
  Mutex.unlock box.mb_mutex;
  List.sort envelope_cmp buf

let mailbox_min t shard =
  let box = t.boxes.(shard) in
  Mutex.lock box.mb_mutex;
  let m = box.mb_min in
  Mutex.unlock box.mb_mutex;
  m

(* ------------------------------------------------------------------ *)
(* Stats *)

let stats (t : _ t) : stats =
  { rounds = t.rounds;
    handoffs = Array.copy t.handoffs;
    stalls = Array.copy t.stalls;
    steals = Array.copy t.steals;
    windows = Array.copy t.windows;
    avg_window =
      Array.mapi
        (fun i n -> if n = 0 then 0.0 else t.win_sum.(i) /. float_of_int n)
        t.windows;
    backpressure = t.backpressure;
    high_water =
      Array.fold_left (fun acc b -> max acc b.mb_high_water) 0 t.boxes }

(* ------------------------------------------------------------------ *)
(* Per-round window execution, with stealing *)

(* Run this round's windows — [(shard, stop, strict)] tasks — over the
   pool.  On a one-worker pool each task is one pool job (FIFO order).
   Otherwise tasks are dealt to their home workers ([shard mod size]),
   each deal sorted heaviest-first by [load_hint]; a worker drains its
   own deal from the front, then steals the lightest task (the tail)
   from the first loaded neighbor.  Every task is popped exactly once
   under the queue mutex, so a shard's window still runs on exactly one
   domain and [steals] has one writer per cell per round. *)
let exec_round t ~pool ~load_hint ~run_window tasks =
  let run (i, stop, strict) = run_window i ~stop ~strict in
  match tasks with
  | [] -> ()
  | [ task ] -> run task
  | _ ->
    let w = Pool.size pool in
    if w <= 1 then
      ignore (Pool.map pool tasks ~f:run)
    else begin
      let deals = Array.make w [] in
      List.iter
        (fun ((i, _, _) as task) ->
          let home = i mod w in
          deals.(home) <- task :: deals.(home))
        tasks;
      Array.iteri
        (fun h deal ->
          deals.(h) <-
            List.stable_sort
              (fun (i, _, _) (j, _, _) ->
                match compare (load_hint j) (load_hint i) with
                | 0 -> compare i j
                | c -> c)
              deal)
        deals;
      let qm = Mutex.create () in
      (* pop the last element: thieves take the victim's lightest task *)
      let rec split_last acc = function
        | [] -> assert false
        | [ x ] -> (List.rev acc, x)
        | x :: rest -> split_last (x :: acc) rest
      in
      let take worker =
        Mutex.lock qm;
        let r =
          match deals.(worker) with
          | task :: rest ->
            deals.(worker) <- rest;
            Some (task, false)
          | [] ->
            let rec rob k =
              if k = w then None
              else
                let victim = (worker + k) mod w in
                match deals.(victim) with
                | [] -> rob (k + 1)
                | deal ->
                  let kept, task = split_last [] deal in
                  deals.(victim) <- kept;
                  Some (task, true)
            in
            rob 1
        in
        Mutex.unlock qm;
        r
      in
      let rec worker_loop worker =
        match take worker with
        | None -> ()
        | Some (((i, _, _) as task), stolen) ->
          if stolen then t.steals.(i) <- t.steals.(i) + 1;
          run task;
          worker_loop worker
      in
      ignore (Pool.map pool (List.init w Fun.id) ~f:worker_loop)
    end

(* ------------------------------------------------------------------ *)
(* The windowed barrier loop *)

let drive t ~pool ~lookahead ?until ?dist
    ?(load_hint = fun (_ : int) -> 0) ~next_time ~run_window () =
  if lookahead <= 0.0 then
    invalid_arg "Shard_sync.drive: lookahead must be positive";
  let idx = List.init t.nshards Fun.id in
  let dist =
    match dist with
    | Some d -> d
    | None ->
      Array.init t.nshards (fun j ->
        Array.init t.nshards (fun i ->
          if i <> j then lookahead
          else if t.nshards > 1 then 2.0 *. lookahead
          else infinity))
  in
  let pending i = Float.min (next_time i) (mailbox_min t i) in
  let pend = Array.make t.nshards infinity in
  (* adaptive growth cap, in lookaheads: how far past [m + L] a shard may
     run before its consumers have caught up.  Doubles every round the
     mailboxes stayed inside capacity, halves when backpressure grew. *)
  let growth = ref 1.0 in
  let last_bp = ref t.backpressure in
  let rec round () =
    for i = 0 to t.nshards - 1 do pend.(i) <- pending i done;
    let m = Array.fold_left Float.min infinity pend in
    let live = match until with Some u -> m <= u | None -> m < infinity in
    if live then begin
      let cap = m +. (!growth *. lookahead) in
      (* distance-based envelope bound: nothing can reach shard [i]
         before B_i = min_j (pending_j + dist(j, i)) — see the module
         header for the causal-chain argument *)
      let stop_of i =
        let b = ref infinity in
        for j = 0 to t.nshards - 1 do
          let v = pend.(j) +. dist.(j).(i) in
          if v < !b then b := v
        done;
        Float.min !b cap
      in
      let tasks = ref [] in
      for i = t.nshards - 1 downto 0 do
        (* cap the last window at [until] and make it inclusive, as the
           single-domain run is *)
        let stop, strict =
          let s = stop_of i in
          match until with
          | Some u when s >= u -> (u, false)
          | _ -> (s, true)
        in
        let p = pend.(i) in
        if (if strict then p >= stop else p > stop) then
          (* nothing below the bound: a horizon stall.  The window is
             skipped — running it would only advance the local clock,
             which no observable depends on — so idle shards cost the
             round nothing. *)
          t.stalls.(i) <- t.stalls.(i) + 1
        else begin
          t.windows.(i) <- t.windows.(i) + 1;
          t.win_sum.(i) <- t.win_sum.(i) +. (stop -. m);
          tasks := (i, stop, strict) :: !tasks
        end
      done;
      exec_round t ~pool ~load_hint ~run_window !tasks;
      t.rounds <- t.rounds + 1;
      if t.backpressure > !last_bp then
        growth := Float.max 1.0 (!growth /. 2.0)
      else growth := Float.min 1024.0 (!growth *. 2.0);
      last_bp := t.backpressure;
      round ()
    end
  in
  round ();
  (* final pass so shards whose remaining events all lie beyond [until]
     still advance their clocks to it, exactly as Sim.run does *)
  match until with
  | Some u ->
    ignore (Pool.map pool idx ~f:(fun i -> run_window i ~stop:u ~strict:false))
  | None -> ()
