(** Descriptive statistics used by the measurement apps and the benchmark
    harness: online mean/variance, percentiles, Jain's fairness index
    and time series. *)

(** Online mean and variance via Welford's algorithm. *)
module Online : sig
  type t

  val create : unit -> t

  val add : t -> float -> unit

  val count : t -> int

  (** [nan] before the first sample. *)
  val mean : t -> float

  (** Sample variance; 0 below two samples.  Test-only. *)
  val variance : t -> float

  (** [nan] before the first sample.  Test-only. *)
  val min_value : t -> float

  (** [nan] before the first sample. *)
  val max_value : t -> float
end

(** [percentile xs p] returns the [p]-th percentile (0..100) of [xs] using
    linear interpolation between closest ranks.  Sorting uses
    {!Float.compare}, so [-0.] and [0.] order deterministically; a nan
    sample has no defined rank and is rejected rather than silently
    landing wherever the sort left it.
    @raise Invalid_argument on an empty list, out-of-range [p], or a nan
    sample. *)
val percentile : float list -> float -> float

val mean : float list -> float

(** Jain's fairness index of an allocation vector: 1.0 is perfectly fair,
    1/n is maximally unfair.  Returns 1.0 for an all-zero vector. *)
val jain_fairness : float list -> float

(** A time series of (time, value) samples with simple aggregation,
    used by the monitoring app. *)
module Series : sig
  type t

  val create : unit -> t

  val add : t -> time:float -> value:float -> unit

  (** Test-only. *)
  val length : t -> int

  (** Average rate of change between first and last sample, or 0 when
      fewer than two samples exist. *)
  val rate : t -> float
end
