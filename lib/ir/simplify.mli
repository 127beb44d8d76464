(** Graph simplification: constant folding (over uniform-fill values),
    value-preserving algebraic identities, common subexpression
    elimination, dead-code elimination.

    Simplified graphs compute the same outputs as the originals. *)

type stats = { folded : int; identities : int; cse : int; dce : int }

val pp_stats : Format.formatter -> stats -> unit

val uniform_value : Graph.t -> Op.node_id -> float option
(** The single value filling the node's tensor, when statically known
    (a constant or a data-movement chain above one). *)

val dce : Graph.t -> Graph.t
(** Rebuild keeping only nodes reachable from the outputs. *)

val run : Graph.t -> Graph.t * stats
