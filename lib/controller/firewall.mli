(** Proactive ACL firewall: compiles an access-control list composed
    with shortest-path routing ({!Netkat.Builder.firewall}) and installs
    the result.  Separated from {!Routing} so experiments can measure the
    cost of policy composition.

    The ACL is pushed once, at the first switch-up, through
    {!Netkat.Delta}, which full-replaces each switch's table. *)

type t

(** Test-only. *)
val create :
  ?default_allow:bool -> ?cookie:int -> Netkat.Builder.acl_entry list -> t

(** Test-only. *)
val app : t -> Api.app
