(** Header-space algebra: symbolic sets of packet headers represented as
    {e cubes} — per-field constraints that are either unconstrained, a
    finite value set, or the complement of a finite value set.  Cubes are
    closed under intersection; subtraction yields a union of cubes.

    The algebra covers exactly the patterns the local compiler emits
    (exact values or wildcards per field).  CIDR prefixes other than /0
    and /32 raise {!Unsupported}; verifying prefix-rich tables would need
    ternary bit-vector cubes, which this toolkit does not require. *)

open Packet

exception Unsupported of string

module IntSet : Set.S with type elt = int

type constr =
  | Any
  | In of IntSet.t      (** invariant: non-empty *)
  | Excl of IntSet.t    (** complement; invariant: non-empty *)

(** A cube maps each field to a constraint; absent fields are [Any].
    The [Switch] field is never constrained (location is tracked
    explicitly by the reachability walk). *)
type cube = (Fields.t * constr) list  (* sorted by field index *)

val top : cube

val set_constr :
  cube -> Fields.t -> constr -> cube

(** [inter a b] — cube intersection, [None] when empty. *)
val inter : cube -> cube -> cube option

(** [subtract a b] — the set [a \ b] as a union of disjoint cubes. *)
val subtract : cube -> cube -> cube list

(** [subsumes ~general c] — every header in [c] is in [general]. *)
val subsumes : general:cube -> cube -> bool

(** Singleton-value test constraint. *)
val eq : Fields.t -> int -> cube

(** Cube of all headers matching a flow-table pattern.
    @raise Unsupported on CIDR prefixes other than /0 and /32. *)
val of_pattern : Flow.Pattern.t -> cube

(** [rewrite c f v] — the image of [c] under the assignment [f := v]. *)
val rewrite :
  cube -> Fields.t -> int -> cube

(** [contains c h] — membership of concrete headers.  Test-only. *)
val contains : cube -> Headers.t -> bool

(** A concrete witness header inside the cube (fields left [Any] take
    defaults; [Excl] fields take the smallest non-excluded value).
    Test-only. *)
val witness : cube -> Headers.t
