(** Ethernet MAC addresses, represented as 48-bit values in an OCaml [int]. *)

type t = int

val broadcast : t

(** [of_octets a b c d e f] builds [a:b:c:d:e:f]; each octet must be in
    [0, 255].
    Test-only. *)
val of_octets : int -> int -> int -> int -> int -> int -> t

val to_int : t -> int

(** Conventional colon-separated lowercase hex rendering. *)
val to_string : t -> string

(** Parses ["aa:bb:cc:dd:ee:ff"]. @raise Invalid_argument on bad syntax. *)
val of_string : string -> t

val is_broadcast : t -> bool

(** Multicast bit: least-significant bit of the first octet. *)
val is_multicast : t -> bool

val pp : Format.formatter -> t -> unit

(** A deterministic locally-administered unicast address derived from a
    small integer id, used when synthesizing hosts. *)
val of_host_id : int -> t
