(** Deterministic splitmix64 pseudo-random generator.

    Every stochastic component of the toolkit (workload generators, random
    topologies, benchmark inputs) draws from an explicit [Prng.t] so that
    simulations and experiments are exactly reproducible from a seed,
    independent of the global [Random] state. *)

type t

val create : int -> t

(** [int t bound] draws uniformly from [0, bound). [bound] must be positive. *)
val int : t -> int -> int

(** [float t bound] draws uniformly from [0, bound). *)
val float : t -> float -> float

val bool : t -> bool

(** Exponentially distributed sample with the given [mean] (inter-arrival
    times of Poisson processes). *)
val exponential : t -> mean:float -> float

(** [pick t arr] draws an element of [arr] uniformly. *)
val pick : t -> 'a array -> 'a

(** In-place Fisher-Yates shuffle.  Test-only. *)
val shuffle : t -> 'a array -> unit

(** [split t] derives an independent generator; the parent advances. *)
val split : t -> t
