let span = 1 lsl 18

type rule = {
  priority : int;
  pattern : Flow.Pattern.t;
  actions : Flow.Action.group;
}

type entry = {
  uid : int;  (** uid of the switch's spine-case subtree (its certificate) *)
  local : rule array;
      (** the numbered table before [transform], highest priority first:
          what the next compile aligns against *)
  rules : rule list;  (** the recorded table, after [transform] *)
}

type snapshot = {
  fdd : Fdd.t;  (** whole-policy diagram (pre-restriction) *)
  entries : (int, entry) Hashtbl.t;  (** per-switch certificates *)
}

type change =
  | Unchanged
  | Changed of {
      rules : rule list;
      adds : rule list;
      deletes : rule list;
    }

type result = {
  snapshot : snapshot;
  changes : (int * change) list;
  skipped : int;
  rederived : int;
  n_adds : int;
  n_deletes : int;
}

let find snapshot switch =
  Option.map (fun e -> e.rules) (Hashtbl.find_opt snapshot.entries switch)

let total_rules snapshot =
  Hashtbl.fold (fun _ e acc -> acc + Array.length e.local) snapshot.entries 0

(* ------------------------------------------------------------------ *)
(* Alignment: which new rule is which old one *)

let same_pattern (a : Flow.Pattern.t) b = a == b || a = b

(* Match the middles [fresh.(lo..fhi-1)] and [old.(lo..ohi-1)] by a
   longest increasing run of old positions (patience diff).  A restricted
   diagram's paths carry distinct positive-test sets, so patterns are
   unique within a table and this run is a longest common subsequence. *)
let match_middle (old : rule array) (fresh : Local.rule array) link
    ~lo ~fhi ~ohi =
  let index = Hashtbl.create (ohi - lo) in
  for j = ohi - 1 downto lo do
    Hashtbl.replace index old.(j).pattern j
  done;
  let k = fhi - lo in
  let cand =
    Array.init k (fun x ->
      Option.value ~default:(-1)
        (Hashtbl.find_opt index (fst fresh.(lo + x))))
  in
  (* tails.(l): the candidate ending the best run of length l + 1 *)
  let tails = Array.make k 0 and pred = Array.make k (-1) and len = ref 0 in
  Array.iteri
    (fun x j ->
      if j >= 0 then begin
        let a = ref 0 and b = ref !len in
        while !a < !b do
          let mid = (!a + !b) / 2 in
          if cand.(tails.(mid)) < j then a := mid + 1 else b := mid
        done;
        if !a > 0 then pred.(x) <- tails.(!a - 1);
        tails.(!a) <- x;
        if !a = !len then incr len
      end)
    cand;
  if !len > 0 then begin
    let x = ref tails.(!len - 1) in
    while !x >= 0 do
      link.(lo + !x) <- cand.(!x);
      x := pred.(!x)
    done
  end

(* [link.(i)] is the old position matched to [fresh.(i)], or -1.  One
   edit leaves most of a table in place, so the common prefix and suffix
   are trimmed first and only the middle is searched. *)
let match_rules (old : rule array) (fresh : Local.rule array) =
  let n = Array.length fresh and m = Array.length old in
  let link = Array.make n (-1) in
  let pre = ref 0 in
  while
    !pre < n && !pre < m
    && same_pattern (fst fresh.(!pre)) old.(!pre).pattern
  do
    link.(!pre) <- !pre;
    incr pre
  done;
  let suf = ref 0 in
  while
    !pre + !suf < n && !pre + !suf < m
    && same_pattern (fst fresh.(n - 1 - !suf)) old.(m - 1 - !suf).pattern
  do
    link.(n - 1 - !suf) <- m - 1 - !suf;
    incr suf
  done;
  let lo = !pre and fhi = n - !suf and ohi = m - !suf in
  if lo < fhi && lo < ohi then match_middle old fresh link ~lo ~fhi ~ohi;
  link

(* ------------------------------------------------------------------ *)
(* Numbering: matched rules keep their priority, the rest fill gaps *)

(* [count] evenly spaced, strictly decreasing priorities inside
   [(lo, hi)] for positions [a ..]; needs [hi - lo > count]. *)
let spread prio ~a ~count ~hi ~lo =
  let d = hi - lo in
  for t = 0 to count - 1 do
    prio.(a + t) <- hi - ((t + 1) * d / (count + 1))
  done

let number (old : rule array) link =
  let n = Array.length link in
  if n >= span then
    invalid_arg
      (Printf.sprintf "Delta: a %d-rule table does not fit the priority span %d"
         n span);
  let prio = Array.map (fun j -> if j >= 0 then old.(j).priority else 0) link in
  (* a renumbered window leaves at least a quarter of a fresh install's
     spacing between its rules *)
  let gap = max 1 (span / (4 * (n + 1))) in
  let above a = if a = 0 then span else prio.(a - 1) in
  let below b = if b = n then 0 else prio.(b) in
  let i = ref 0 in
  while !i < n do
    if link.(!i) >= 0 then incr i
    else begin
      let a = ref !i and b = ref !i in
      while !b < n && link.(!b) < 0 do incr b done;
      if above !a - below !b <= !b - !a then
        (* the gap ran out: widen a window around the run until its
           spacing is at least [gap]; at worst the window is the table *)
        while above !a - below !b < (!b - !a + 1) * gap do
          let w = !b - !a in
          a := max 0 (!a - w);
          b := min n (!b + w);
          while !b < n && link.(!b) < 0 do incr b done
        done;
      spread prio ~a:!a ~count:(!b - !a) ~hi:(above !a) ~lo:(below !b);
      i := !b
    end
  done;
  prio

(* The numbered new table, and the rules to add (new, renumbered or
   with changed actions) and to delete (gone or renumbered).  A rule
   that kept its pattern, priority and actions is the old record. *)
let realign (old : rule array) (fresh : Local.rule array) =
  let link = match_rules old fresh in
  let prio = number old link in
  let kept = Array.make (Array.length old) false in
  let adds = ref [] in
  let local =
    Array.mapi
      (fun i (pattern, actions) ->
        let j = link.(i) and p = prio.(i) in
        let slot =
          if j >= 0 && old.(j).priority = p then Some old.(j) else None
        in
        if Option.is_some slot then kept.(j) <- true;
        match slot with
        | Some o when o.actions == actions || o.actions = actions -> o
        | Some _ | None ->
          (* on a kept slot the add replaces the old rule's actions *)
          let r = { priority = p; pattern; actions } in
          adds := r :: !adds;
          r)
      fresh
  in
  let deletes = ref [] in
  for j = Array.length old - 1 downto 0 do
    if not kept.(j) then deletes := old.(j) :: !deletes
  done;
  (local, List.rev !adds, !deletes)

(* Per-switch work: certify by the spine-case subtree's uid, re-derive
   (extract) and realign only on a changed certificate.  [case] is the
   subtree packets with [Switch = sw] reach through the root spine (from
   {!Fdd.switch_cases}).  [Switch] is the first field in the diagram
   order, so [case] is [Fdd.restrict (Switch, sw)] of the whole diagram:
   the rules are read from it directly, and its uid is the certificate.
   Rules are numbered before [transform], in [(0, span)], so a
   transform's priority base survives every edit. *)
let per_switch ~previous ~transform ~keep ~case sw =
  let uid = Fdd.uid case in
  let prev =
    match previous with
    | Some p -> Hashtbl.find_opt p.entries sw
    | None -> None
  in
  match prev with
  | Some e when e.uid = uid -> (sw, e, Unchanged)
  | prev ->
    let fresh = Local.rules_of_restricted case in
    let fresh =
      match keep with
      | None -> fresh
      | Some keep -> Array.of_list (List.filter keep (Array.to_list fresh))
    in
    let old = match prev with Some e -> e.local | None -> [||] in
    let local, adds, deletes = realign old fresh in
    let out rules =
      match transform with None -> rules | Some f -> List.map f rules
    in
    (match prev with
     | Some e when adds = [] && deletes = [] ->
       (* same table under a fresh uid (a cache clear intervened, or an
          equivalent policy written differently): record the new
          certificate, push nothing *)
       (sw, { e with uid }, Unchanged)
     | _ ->
       let rules = out (Array.to_list local) in
       let entry = { uid; local; rules } in
       (match prev with
        | Some _ ->
          let adds = out adds and deletes = out deletes in
          (sw, entry, Changed { rules; adds; deletes })
        | None -> (sw, entry, Changed { rules; adds = rules; deletes = [] })))

let compile ?transform ?keep ~switches previous fdd =
  (* whole-policy fast path: a physically equal diagram certifies every
     previously-recorded switch at once *)
  let unchanged_fdd =
    match previous with Some p -> Fdd.equal p.fdd fdd | None -> false
  in
  (* one spine walk certifies every switch *)
  let cases, default = Fdd.switch_cases fdd in
  let work sw =
    let case =
      match Hashtbl.find_opt cases sw with Some t -> t | None -> default
    in
    match previous with
    | Some p when unchanged_fdd ->
      (match Hashtbl.find_opt p.entries sw with
       | Some e -> (sw, e, Unchanged)
       | None -> per_switch ~previous ~transform ~keep ~case sw)
    | _ -> per_switch ~previous ~transform ~keep ~case sw
  in
  let results = List.map work switches in
  let entries = Hashtbl.create (List.length results) in
  List.iter (fun (sw, e, _) -> Hashtbl.replace entries sw e) results;
  let changes = List.map (fun (sw, _, c) -> (sw, c)) results in
  (* an unchanged switch kept its certificate iff its uid was reused *)
  let certified sw (e : entry) =
    match previous with
    | Some p ->
      (match Hashtbl.find_opt p.entries sw with
       | Some old -> old.uid = e.uid
       | None -> false)
    | None -> false
  in
  let skipped, rederived, n_adds, n_deletes =
    List.fold_left
      (fun (s, r, a, d) (sw, e, c) ->
        match c with
        | Unchanged -> ((if certified sw e then s + 1 else s), r, a, d)
        | Changed { adds; deletes; _ } ->
          (s, r + 1, a + List.length adds, d + List.length deletes))
      (0, 0, 0, 0) results
  in
  { snapshot = { fdd; entries }; changes; skipped; rederived; n_adds;
    n_deletes }

let compile_policy ?transform ?keep ~switches previous pol =
  compile ?transform ?keep ~switches previous (Fdd.of_policy pol)
