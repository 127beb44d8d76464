(** Per-element ("register") evaluation of graph ops for the fused
    execution engine, a tile at a time: one node becomes an element
    accessor over its output linear index plus a tile writer, both
    computed from operands of the same form with exactly the float
    operations - in exactly the order - of the matching
    {!Interp.eval_node_into} case, so filling a buffer tile by tile is
    bit-identical to materializing evaluation. *)

open Astitch_ir

exception Unsupported of string

val tile : int
(** The most elements one [fill] call writes: 256. *)

type t = {
  get : int -> float;  (** element [i] of the node's output *)
  fill : float array -> int -> int -> int -> unit;
      (** [fill dst off lo len] writes elements [lo .. lo+len-1] into
          [dst.(off) .. dst.(off+len-1)]; [len <= tile]. *)
  storage : (unit -> float array) option;
      (** the array holding every element, for values in full storage;
          read once per tile, so it may be rebound between runs *)
  slabs : int list;
      (** ids of the slabs an element read may visit: sources that
          count the order they are read in, such as the fused engine's
          per-block staging.  [fill] reads each slab in the same order
          as [get] over ascending elements would; a node whose tile
          writer could not keep that order fills element by element. *)
}

val storage : get:(int -> float) -> (unit -> float array) -> t
(** A value in full storage: [get] reads one element, the thunk returns
    the backing array, and [fill] copies from it. *)

val compile : Graph.t -> Graph.node -> operand:(Op.node_id -> t) -> t
(** [compile g nd ~operand] is [nd]'s accessor and tile writer over the
    operands [operand id].  Each node owns scratch for one operand tile
    (at most {!tile} elements, fewer when the node is smaller), so
    neither function is reentrant; operands of distinct nodes never
    recurse into each other (the graph is a DAG), so nesting is safe.
    Unary, binary and select ops, constants, reshapes, broadcasts,
    gathers, and dots and convolutions over full-storage operands
    carry their own tile writer, and a reduction over a trailing suffix
    of axes folds its operand tile by tile; every other op fills
    through its accessor.
    @raise Unsupported when [not (Op.scalarizable nd.op)]. *)
