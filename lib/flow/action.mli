(** Flow-rule actions.

    An {!atom} is a single primitive; a {!seq} applies atoms left to
    right to one copy of the packet; a {!group} is a multiset of
    sequences, each applied to its own copy (multicast).  The empty group
    drops the packet; the group containing one empty sequence would
    forward nowhere — sequences are only meaningful when they end in an
    [Output]. *)

open Packet

type port =
  | Physical of int      (** a concrete port number *)
  | In_port_out          (** send back through the ingress port *)
  | Flood                (** all ports except ingress (spanning-tree filtered by the switch) *)
  | Controller           (** punt to the controller as a packet-in *)

type atom =
  | Set_field of Fields.t * int
  | Output of port

type seq = atom list

type group = seq list

(** Test-only. *)
val drop : group

(** Forward unchanged through one physical port. *)
val forward : int -> group

val to_controller : group

(** Test-only. *)
val flood : group

(** [apply_seq h seq] threads headers through the sequence, returning the
    final headers and the output ports hit along the way (in order).
    Test-only. *)
val apply_seq : Headers.t -> seq -> Headers.t * port list

(** [iter_group f h g] calls [f h' p] once per copy the group emits, in
    order: each sequence replays from [h], and [h'] is the header state
    at its [Output p].  A copy no [Set_field] touched gets [h] itself
    (physically), so a caller can reuse whatever it built around [h].
    The switch interprets every group but a single [Output] with it;
    it builds no list. *)
val iter_group :
  (Headers.t -> port -> unit) -> Headers.t -> group -> unit

(** [apply_group h g] lists the [(headers, port)] pairs {!iter_group}
    visits: one per copy the group emits.
    Test-only. *)
val apply_group : Headers.t -> group -> (Headers.t * port) list

val pp_group : Format.formatter -> group -> unit

val group_to_string : group -> string
