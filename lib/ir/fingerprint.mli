(** Canonical structural fingerprints for graphs: with the arch and codec
    version, the key of a stored plan.

    The fingerprint is the MD5 of the {e live} graph written in
    {!Op_format}'s graph format (the plan codec's graph section), with
    nodes renumbered by a deterministic depth-first walk from the
    outputs.  It is therefore invariant under node renumbering and dead
    code, and sensitive to every semantic detail the format carries:
    operator kinds and static attributes, constants bit for bit, operand
    wiring, shapes, dtypes, parameter names and output order. *)

val of_graph : Graph.t -> string
(** Hex digest; equal for structurally identical graphs regardless of
    node numbering or dead nodes. *)
