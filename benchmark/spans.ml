(* Span recorder for traced runs.

   A span brackets one call the benchmark makes into a layer's public
   function.  Nested calls (a [send_batch] inside an [install_plain], a
   control up-call inside a [Network.run]) record their parent, so a
   layer's self time is its spans' duration minus the part of that
   interval its child spans cover.  Spans stay in memory and are written
   out once, when the run ends.  With tracing off, [with_span] is one
   branch and [timed] two clock reads. *)

type span = {
  name : string;
  parent : int;  (* index of the enclosing span, -1 at top level *)
  op : int;      (* edit or forwarding-step id, -1 during setup *)
  start : float;
  mutable stop : float;
}

let now = Unix.gettimeofday

let enabled = ref false

(* the operation the next spans belong to *)
let op = ref (-1)

let buf = ref [||]
let count = ref 0
let stack = ref []

let push s =
  if !count = Array.length !buf then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !buf 0 bigger 0 !count;
    buf := bigger
  end;
  !buf.(!count) <- s;
  incr count;
  !count - 1

let with_span name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let i = push { name; parent; op = !op; start = now (); stop = nan } in
    stack := i :: !stack;
    let r = f () in
    !buf.(i).stop <- now ();
    stack := List.tl !stack;
    r
  end

(* [timed acc name f] runs [f] inside a span and adds its wall time to
   [acc]: the benchmark's clock runs only inside library calls *)
let timed acc name f =
  let t0 = now () in
  let r = with_span name f in
  acc := !acc +. (now () -. t0);
  r

let duration s = s.stop -. s.start

(* total self time per span name, over spans with [op >= 0] (the timed
   phase) when [timed_only] *)
let self_times ?(timed_only = false) () =
  let n = !count in
  let spans = !buf in
  let covered = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let s = spans.(i) in
    if s.parent >= 0 then
      covered.(s.parent) <- covered.(s.parent) +. duration s
  done;
  let totals = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    let s = spans.(i) in
    if (not timed_only) || s.op >= 0 then begin
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt totals s.name) in
      Hashtbl.replace totals s.name (prev +. duration s -. covered.(i))
    end
  done;
  totals

(* total duration of the spans named [name] *)
let total name =
  let acc = ref 0.0 in
  for i = 0 to !count - 1 do
    let s = !buf.(i) in
    if s.name = name then acc := !acc +. duration s
  done;
  !acc

(* one JSON object per line: name, start, end, parent, op *)
let write path =
  let oc = open_out path in
  for i = 0 to !count - 1 do
    let s = !buf.(i) in
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"parent\":%d,\"op\":%d,\"start\":%.9f,\"end\":%.9f}\n"
      i s.name s.parent s.op s.start s.stop
  done;
  close_out oc
