(** Versioned binary codec for {!Kernel_plan.t}: the persistence format
    behind the plan store.

    A kernel plan is pure data - graph nodes, compiled ops with their
    stitching schemes, placements (which drive the tape's storage roles)
    and thread mappings, launch configurations, and the optional
    batch-axis classification - so it serializes completely.  The codec
    is canonical and deterministic: [encode] of structurally identical
    plans yields identical bytes, which makes byte equality of encodings
    the plan bit-identity check the store's load gate relies on.

    Layout: a 4-byte magic, a version word, a length-prefixed payload
    and a trailing FNV-1a 64 checksum of the payload.  Decoding verifies
    magic, version, length and checksum before parsing, so a truncated
    or corrupted file surfaces as a structured {!error} - never as an
    escaping exception. *)

val version : int
(** Current codec version.  Bump on any layout change; the store keys
    saved plans by it, so old files are simply not loaded. *)

type error =
  | Bad_magic  (** not a plan file at all *)
  | Unsupported_version of int  (** encoded with a different codec *)
  | Truncated of { want : int; have : int }
      (** the file ends before [want] bytes are available *)
  | Checksum_mismatch  (** payload bytes were altered *)
  | Malformed of string
      (** structurally invalid payload: unknown tag, ill-formed graph,
          inconsistent geometry *)

val error_to_string : error -> string

exception Codec_error of error
(** Raised only by {!decode_exn}; {!decode} never raises. *)

val encode : Kernel_plan.t -> string
(** Canonical bytes for a plan.  Deterministic: structurally identical
    plans encode identically.  The graph section is
    {!Astitch_ir.Op_format.write_graph}'s bytes. *)

val decode : string -> (Kernel_plan.t, error) result
(** Parse [encode]'s output.  Never raises: corruption, truncation and
    version skew all come back as structured errors.  The decoded
    graph is re-validated node by node ({!Astitch_ir.Graph.of_nodes}),
    so a plan that decodes successfully is structurally well-formed. *)

val decode_exn : string -> Kernel_plan.t
(** @raise Codec_error on any decode failure. *)

val equal : Kernel_plan.t -> Kernel_plan.t -> bool
(** Structural plan equality via canonical encoding: true iff
    [encode a = encode b].  This is the bit-identity gate used when a
    deserialized plan is checked against a fresh compile. *)
