(** Abstract syntax of the policy language — a NetKAT-style algebra of
    predicates and policies over the header fields of {!Packet.Fields}.

    A policy denotes a function from one packet to a {e set} of packets:
    [Filter] keeps or drops, [Mod] rewrites one field, [Union] copies the
    packet through both branches, [Seq] pipes, and [Star] iterates [Seq]
    to a fixpoint.  Forwarding is expressed by modifying the [In_port]
    field (the packet's location); network links are the derived form
    {!link}, which teleports packets between switch locations. *)

open Packet

type pred =
  | True
  | False
  | Test of Fields.t * int
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type pol =
  | Filter of pred
  | Mod of Fields.t * int
  | Union of pol * pol
  | Seq of pol * pol
  | Star of pol

(** The always-pass policy. *)
val id : pol

(** The drop-everything policy. *)
val drop : pol

val test : Fields.t -> int -> pred

val conj : pred -> pred -> pred

val disj : pred -> pred -> pred

val neg : pred -> pred

val filter : pred -> pol

val modify : Fields.t -> int -> pol

val union : pol -> pol -> pol

val seq : pol -> pol -> pol

val star : pol -> pol

(** n-ary unions/sequences (right-nested); empty union is [drop], empty
    sequence is [id]. *)
val big_union : pol list -> pol

val big_seq : pol list -> pol

(** [ite pred p q] — if [pred] then [p] else [q]. *)
val ite : pred -> pol -> pol -> pol

(** [at ~switch] restricts to packets located at the given switch. *)
val at : switch:int -> pol

(** [forward port] emits through [port] (a location modification). *)
val forward : int -> pol

(** [link (s1, p1) (s2, p2)] is the derived NetKAT link policy: packets
    sitting at port [p1] of switch [s1] move to port [p2] of switch [s2].
    Local (single-switch) compilation rejects policies containing links;
    the verifier interprets them via the topology instead. *)
val link : int * int -> int * int -> pol

val size : pol -> int

(** Test-only. *)
val uses_links : pol -> bool

(** Test-only. *)
val pred_to_string : pred -> string

(** Test-only. *)
val pol_to_string : pol -> string
