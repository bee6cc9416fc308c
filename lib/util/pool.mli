(** A reusable fixed-size pool of OCaml 5 domains.

    {!map} fans a list out over the pool's domains and returns the
    results in input order — the submitting domain participates in the
    work, so a pool of size [n] uses exactly [n] domains ([n - 1]
    spawned workers plus the caller).  A pool of size 1 runs everything
    inline with no spawning, no locking and no queueing: sequential
    callers pay nothing for the parallel capability.

    The default size is [Domain.recommended_domain_count].
    {!get_default} returns a lazily-created process-wide pool of that
    size, which the sharded simulator ({!Shard_sync}) runs its windows
    on.

    Scheduling is a single mutex-protected FIFO of jobs; workers park on
    a condition variable when it is empty.  That is deliberately simple:
    the intended grain is one simulation window per shard, where queue
    overhead is noise.  Exceptions raised by [f] are caught on the
    worker, and the first one is re-raised (with its backtrace) on the
    caller after the whole batch has settled. *)

type t

val size : t -> int

(** [create ?domains ()] builds a pool of [domains] total domains
    (default [Domain.recommended_domain_count ()]), spawning [domains - 1] workers.
    @raise Invalid_argument when [domains < 1]. *)
val create : ?domains:int -> unit -> t

(** [shutdown t] retires the worker domains after the queued jobs drain.
    Idempotent; {!map} on a shut-down pool runs inline. *)
val shutdown : t -> unit

(** [map t xs ~f] is [List.map f xs] with the applications distributed
    over the pool's domains.  Results keep input order.  The first
    exception raised by [f] (if any) is re-raised on the caller once
    every application has finished. *)
val map : t -> 'a list -> f:('a -> 'b) -> 'b list

(** The shared process-wide pool (created on first use, sized by
    [Domain.recommended_domain_count ()]).  Never shut this pool down. *)
val get_default : unit -> t
