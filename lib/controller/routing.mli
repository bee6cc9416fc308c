(** Proactive shortest-path routing with failover — the canonical
    {e proactive} app.

    On startup the app compiles the network-wide destination-based
    routing policy ({!Netkat.Builder.routing_policy}) and pushes every
    switch's table.  On a port-status change it recomputes the policy
    over the surviving topology and pushes each changed switch its
    minimal delta ({!Api.push_delta}), counting the rule churn (E5
    measures convergence from these numbers).

    A [switch_down] report (the runtime's keepalive verdict)
    is treated as a topology event too: the dead switch's links are
    excluded from the next compile, so traffic reroutes around the
    crash instead of blackholing until an unrelated link flap forces a
    recompute.  When the switch re-handshakes it rejoins the topology
    and a fresh recompute restores its table. *)

type t

val create : ?use_ip:bool -> ?cookie:int -> unit -> t

val app : t -> Api.app

val installs : t -> int

val reinstalls : t -> int

val reroutes : t -> int

(** Test-only. *)
val dead_switches : t -> int list

val last_churn : t -> int
