(** Concrete syntax for policies and predicates.

    Grammar (precedence low to high; [+] and [;] associate left):
    {v
    pol  ::= pol "+" pol | pol ";" pol | pol "*"
              | "id" | "drop" | "filter" apred
              | field ":=" value
              | "if" pred "then" pol "else" pol
              | "(" pol ")"
    pred ::= pred "or" pred | pred "and" pred | "not" pred | apred
      apred ::= "true" | "false" | field "=" value | "(" pred ")"
      field ::= switch | port | ethSrc | ethDst | ethType | vlan
              | ipProto | ip4Src | ip4Dst | tpSrc | tpDst
      value ::= integer | 0xHEX | a.b.c.d | aa:bb:cc:dd:ee:ff
    v}

    {!Syntax.pol_to_string} output parses back to an equal policy. *)

exception Parse_error of string

(** Parses a policy. @raise Parse_error with a diagnostic on bad input. *)
val pol_of_string : string -> Syntax.pol

(** Parses a predicate. @raise Parse_error on bad input.  Test-only. *)
val pred_of_string : string -> Syntax.pred
