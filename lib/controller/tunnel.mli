(** Label-switched edge-to-edge tunnels (MPLS/segment-routing flavor,
    label carried in the VLAN field).

    Destination-based routing installs one rule {e per destination host}
    at {e every} switch on a path.  Label switching aggregates: an
    ingress edge switch classifies packets by destination onto the tunnel
    toward that destination's edge switch and pushes the tunnel label;
    {e core} switches forward on the label alone (one rule per tunnel
    through them, independent of host count); the egress edge pops the
    label and delivers.  Experiment E13 measures the resulting core-table
    compression.

    Tunnels are provisioned proactively between every pair of
    host-bearing switches along current shortest paths. *)

type lsp

type t

val create : unit -> t

val app : t -> Api.app

(** Test-only. *)
val lsps : t -> lsp list
