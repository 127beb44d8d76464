(** Canonical structural fingerprints for graphs: with the arch and codec
    version, the key of a stored plan; also the identity of a
    [Batching] spec.

    The fingerprint is the digest of a canonical serialization of the
    {e live} graph, with nodes renumbered by a deterministic depth-first
    walk from the outputs.  It is therefore invariant under node
    renumbering and dead code, and sensitive to every semantic detail:
    operator kinds and static attributes, operand wiring, shapes, dtypes,
    parameter names and output order. *)

val canonical_text : Graph.t -> string
(** The canonical serialization itself (stable across sessions); exposed
    for tests and debugging.  [of_graph] digests exactly this string. *)

val of_graph : Graph.t -> string
(** Hex digest of {!canonical_text}; equal for structurally identical
    graphs regardless of node numbering or dead nodes. *)
