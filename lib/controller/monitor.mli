(** Monitoring app: periodically polls port and table counters from
    every switch, maintaining per-port time series (from which link
    utilization and loss are derived) and the latest table statistics —
    including the dataplane flow-cache hit/miss/invalidation counters.
    The poll loop runs on simulated time via the controller context. *)

type t

val create : ?period:float -> unit -> t

val app : t -> Api.app

(** Test-only. *)
val polls : t -> int

(** Switch-down declarations observed (via the runtime's keepalive
    loop).
    Test-only. *)
val down_events : t -> int

(** Observed down → re-handshake durations, newest first.  Test-only. *)
val recoveries : t -> float list

(** Network-wide flow-cache totals across every polled switch:
    [(cache hits, cache misses, invalidations)]. *)
val cache_summary : t -> int * int * int

(** Utilization in [0, 1] of the link leaving [switch_id] via [port],
    relative to its capacity in the topology.
    Test-only. *)
val utilization :
  t -> Dataplane.Network.t -> switch_id:int -> port:int -> float

(** Most-utilized links first: [(switch, port, utilization)]. *)
val hot_links : t -> Dataplane.Network.t -> (int * int * float) list
