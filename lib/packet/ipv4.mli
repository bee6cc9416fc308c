(** IPv4 addresses and CIDR prefixes, represented as 32-bit values in an
    OCaml [int]. *)

type t = int

val of_octets : int -> int -> int -> int -> t

val to_int : t -> int

(** Test-only. *)
val to_string : t -> string

(** Parses dotted-quad notation. @raise Invalid_argument on bad syntax. *)
val of_string : string -> t

val pp : Format.formatter -> t -> unit

(** CIDR prefixes, e.g. [10.0.0.0/8]. *)
module Prefix : sig
  type ipv4 := t

  type t

  val mask_of_length : int -> int

  (** [make addr len] normalizes [addr] by masking host bits away.
      @raise Invalid_argument when [len] is outside [0, 32]. *)
  val make : ipv4 -> int -> t

  val host : ipv4 -> t

  (** Test-only. *)
  val any : t

  (** The network address, host bits zeroed. *)
  val network : t -> ipv4

  val length : t -> int

  (** [matches p addr] tests whether [addr] falls inside [p]. *)
  val matches : t -> ipv4 -> bool

  (** [subset ~of_ p] is true when every address in [p] is also in [of_]. *)
  val subset : of_:t -> t -> bool

  (** Prefixes overlap iff one contains the other.  Test-only. *)
  val overlap : t -> t -> bool

  val to_string : t -> string

  (** Parses ["10.0.0.0/8"]; a bare address means a /32.  Test-only. *)
  val of_string : string -> t
end

(** Deterministic address for a synthesized host id, inside 10.0.0.0/8. *)
val of_host_id : int -> t
