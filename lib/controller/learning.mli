(** The classic L2 learning switch — the canonical {e reactive} app.

    Every switch floods along spanning-tree ports until it has learned
    where a MAC lives (from the source address of a packet-in); known
    destinations get an exact-match rule with an idle timeout, so the
    table adapts to workload and forgets stale entries.  A packet-in
    that arrives while the same rule is in flight or installed (sent to
    the same port less than an idle timeout ago, and the switch not down
    since) is forwarded with no second install. *)

type t

(** Test-only. *)
val lookup : t -> switch_id:int -> Packet.Mac.t -> int option

val create : ?idle_timeout:float option -> unit -> t

val app : t -> Api.app

(** Test-only. *)
val installs : t -> int
