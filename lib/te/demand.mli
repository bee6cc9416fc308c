(** Traffic demands for the WAN experiments: a demand asks for [rate]
    bits/s from one switch (site) to another, with a priority class as in
    inter-datacenter TE systems (B4's copy/elastic/interactive split). *)

type t = {
  src : int;       (** source switch id *)
  dst : int;       (** destination switch id *)
  rate : float;    (** requested bits per second *)
  priority : int;  (** lower = more important; 0 is highest *)
}

(** Test-only. *)
val make : ?priority:int -> src:int -> dst:int -> rate:float -> unit -> t

val total : t list -> float

val scale : float -> t list -> t list

(** All-pairs uniform matrix at [rate] per pair.  Test-only. *)
val uniform : switches:int list -> rate:float -> t list

(** Gravity model: demand between two sites is proportional to the
    product of their (random) masses, scaled so the matrix totals
    [total_rate].  Priorities are drawn uniformly from [0, priorities). *)
val gravity :
  prng:Util.Prng.t ->
  switches:int list -> total_rate:float -> ?priorities:int -> unit -> t list
