type 'a entry = { key : float; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry option array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }

let length h = h.size
let is_empty h = h.size = 0

let entry_lt a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

(* slots below [size] are always [Some] *)
let get h i =
  match h.data.(i) with Some e -> e | None -> assert false

let swap h i j =
  let tmp = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- tmp

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_lt (get h i) (get h parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest =
    if l < h.size && entry_lt (get h l) (get h i) then l else i
  in
  let smallest =
    if r < h.size && entry_lt (get h r) (get h smallest) then r else smallest
  in
  if smallest <> i then begin
    swap h i smallest;
    sift_down h smallest
  end

let push h key value =
  let e = Some { key; seq = h.next_seq; value } in
  h.next_seq <- h.next_seq + 1;
  let cap = Array.length h.data in
  if h.size = cap then begin
    let ncap = max 16 (2 * cap) in
    let ndata = Array.make ncap None in
    Array.blit h.data 0 ndata 0 h.size;
    h.data <- ndata
  end;
  h.data.(h.size) <- e;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h =
  if h.size = 0 then None
  else
    let e = get h 0 in
    Some (e.key, e.value)

let pop h =
  if h.size = 0 then raise Not_found;
  let top = get h 0 in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.data.(0) <- h.data.(h.size);
    h.data.(h.size) <- None;
    sift_down h 0
  end
  else h.data.(0) <- None;
  (top.key, top.value)

let clear h =
  Array.fill h.data 0 h.size None;
  h.size <- 0

let to_sorted_list h =
  let copy =
    { data = Array.sub h.data 0 h.size; size = h.size; next_seq = h.next_seq }
  in
  let rec drain acc =
    if is_empty copy then List.rev acc else drain (pop copy :: acc)
  in
  drain []
