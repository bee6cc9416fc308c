exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Lexer *)

type token =
  | Word of string     (* identifier, keyword or literal *)
  | Plus
  | Semi
  | Star_tok
  | Lparen
  | Rparen
  | Assign
  | Equals
  | Eof

let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = ':'

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '+' then (toks := Plus :: !toks; incr i)
    else if c = ';' then (toks := Semi :: !toks; incr i)
    else if c = '*' then (toks := Star_tok :: !toks; incr i)
    else if c = '(' then (toks := Lparen :: !toks; incr i)
    else if c = ')' then (toks := Rparen :: !toks; incr i)
    else if c = '=' then (toks := Equals :: !toks; incr i)
    else if c = ':' && !i + 1 < n && s.[!i + 1] = '=' then begin
      toks := Assign :: !toks;
      i := !i + 2
    end
    else if is_word_char c then begin
      (* a word: stop before ":=" so "port:=1" lexes as three tokens *)
      let start = !i in
      while
        !i < n && is_word_char s.[!i]
        && not (s.[!i] = ':' && !i + 1 < n && s.[!i + 1] = '=')
      do
        incr i
      done;
      toks := Word (String.sub s start (!i - start)) :: !toks
    end
    else fail "unexpected character %C at offset %d" c !i
  done;
  List.rev (Eof :: !toks)

(* ------------------------------------------------------------------ *)
(* Values and fields *)

let contains s c = String.contains s c

let value_of_word w =
  if contains w ':' then Some (Packet.Mac.of_string w)
  else if contains w '.' then Some (Packet.Ipv4.of_string w)
  else
    match int_of_string_opt w (* handles 0x.. too *) with
    | Some v -> Some v
    | None -> None

let keywords =
  [ "id"; "drop"; "filter"; "if"; "then"; "else"; "true"; "false"; "and";
    "or"; "not" ]

let field_of_word w =
  if List.mem w keywords then None
  else match Packet.Fields.of_string w with
    | f -> Some f
    | exception Invalid_argument _ -> None

(* ------------------------------------------------------------------ *)
(* Recursive-descent parser over a mutable token stream *)

type stream = { mutable toks : token list }

let peek st = match st.toks with [] -> Eof | t :: _ -> t

let advance st =
  match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let expect st tok what =
  if peek st = tok then advance st else fail "expected %s" what

let parse_value st =
  match peek st with
  | Word w ->
    (match value_of_word w with
     | Some v -> advance st; v
     | None -> fail "expected a value, got %S" w)
  | _ -> fail "expected a value"

let rec parse_pred st = parse_or st

and parse_or st =
  let lhs = ref (parse_and st) in
  while peek st = Word "or" do
    advance st;
    lhs := Syntax.disj !lhs (parse_and st)
  done;
  !lhs

and parse_and st =
  let lhs = ref (parse_not st) in
  while peek st = Word "and" do
    advance st;
    lhs := Syntax.conj !lhs (parse_not st)
  done;
  !lhs

and parse_not st =
  match peek st with
  | Word "not" ->
    advance st;
    Syntax.neg (parse_not st)
  | _ -> parse_apred st

and parse_apred st =
  match peek st with
  | Word "true" -> advance st; Syntax.True
  | Word "false" -> advance st; Syntax.False
  | Lparen ->
    advance st;
    let p = parse_pred st in
    expect st Rparen "')'";
    p
  | Word w ->
    (match field_of_word w with
     | Some f ->
       advance st;
       expect st Equals "'='";
       Syntax.test f (parse_value st)
     | None -> fail "expected a predicate, got %S" w)
  | _ -> fail "expected a predicate"

let rec parse_pol st = parse_union st

and parse_union st =
  let lhs = ref (parse_seq st) in
  while peek st = Plus do
    advance st;
    lhs := Syntax.union !lhs (parse_seq st)
  done;
  !lhs

and parse_seq st =
  let lhs = ref (parse_star st) in
  while peek st = Semi do
    advance st;
    lhs := Syntax.seq !lhs (parse_star st)
  done;
  !lhs

and parse_star st =
  let p = ref (parse_apol st) in
  while peek st = Star_tok do
    advance st;
    p := Syntax.star !p
  done;
  !p

and parse_apol st =
  match peek st with
  | Word "id" -> advance st; Syntax.id
  | Word "drop" -> advance st; Syntax.drop
  | Word "filter" ->
    advance st;
    Syntax.filter (parse_not st)
  | Word "if" ->
    advance st;
    let pred = parse_pred st in
    expect st (Word "then") "'then'";
    let p = parse_pol st in
    expect st (Word "else") "'else'";
    let q = parse_pol st in
    Syntax.ite pred p q
  | Lparen ->
    advance st;
    let p = parse_pol st in
    expect st Rparen "')'";
    p
  | Word w ->
    (match field_of_word w with
     | Some f ->
       advance st;
       expect st Assign "':='";
       Syntax.modify f (parse_value st)
     | None -> fail "expected a policy, got %S" w)
  | _ -> fail "expected a policy"

let pol_of_string s =
  let st = { toks = tokenize s } in
  let p = parse_pol st in
  if peek st <> Eof then fail "trailing input after policy";
  p

let pred_of_string s =
  let st = { toks = tokenize s } in
  let p = parse_pred st in
  if peek st <> Eof then fail "trailing input after predicate";
  p
