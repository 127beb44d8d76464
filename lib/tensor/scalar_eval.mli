(** Per-element ("register") evaluation of graph ops for the fused
    execution engine, a tile at a time: one node becomes an element
    accessor over its output linear index plus a tile writer, both
    computed from operands of the same form with exactly the float
    operations - in exactly the order - of the matching
    {!Interp.eval_node} case, so filling a buffer tile by tile is
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
      (** ids of the multi-block slabs an element read may visit:
          sources that count the order they are read in, such as the
          fused engine's per-block staging.  [fill] over any range loads
          their blocks in the sequence [get] over the same elements,
          ascending, would; a node whose tile writer could not keep that
          order fills element by element. *)
  period : int;
      (** the window period: within each aligned window
          [[w * period, (w + 1) * period)] of elements, every read of a
          slab in [slabs] falls in one block, the same block whichever
          operand path reaches the slab.  [max_int] when [slabs] is
          empty or one window holds every element; [0] when no period
          is known.  Elementwise ops, reshapes, broadcasts that keep
          the input's axes leading and reductions over a trailing suffix
          of axes carry it from their operands; any other op reaching a
          slab has none. *)
  const_run : int;
      (** the run length over which the value is constant: within each
          aligned run [[w * const_run, (w + 1) * const_run)] every
          element is equal.  [max_int] for a constant; r * q for a
          broadcast that keeps its input's axes leading and copies each
          element of an input with runs of r q times; its operand's for
          a reshape; 1 otherwise.  A binary op applies an operand that
          reads no slab and is constant over the whole tile as its one
          element instead of filling a tile of copies. *)
}

val storage : get:(int -> float) -> (unit -> float array) -> t
(** A value in full storage: [get] reads one element, the thunk returns
    the backing array, and [fill] copies from it. *)

val staged :
  id:int ->
  block_elems:int ->
  total:int ->
  node:t ->
  get:(int -> float) ->
  fill:(float array -> int -> int -> int -> unit) ->
  t
(** A value staged in slab [id], [block_elems] of its [total] elements
    per block, each block refilled by running [node] (the staged op
    itself) over it; [get] and [fill] read the slab.  Adds the slab to
    [slabs] when it has more than one block, and derives the period:
    one block, when each block lies in one window of [node]. *)

val fill_range : t -> float array -> int -> int -> int -> unit
(** [fill_range t dst off lo hi] writes elements [lo .. hi-1] into
    [dst.(off) ..], one [fill] per tile of at most {!tile} elements,
    cutting tiles at multiples of [t.period] so no tile crosses a
    window. *)

val fmax : float -> float -> float
(** [Float.max], deciding ordered distinct operands by one comparison:
    the same bits for every pair, NaNs and signed zeros included. *)

val fmin : float -> float -> float
(** [Float.min], likewise. *)

val compile : Graph.t -> Graph.node -> operand:(Op.node_id -> t) -> t
(** [compile g nd ~operand] is [nd]'s accessor and tile writer over the
    operands [operand id].  Each node owns scratch for one operand tile
    (at most {!tile} elements, fewer when the node is smaller; up to a
    few tiles for strided gathers from computed operands), so neither
    function is reentrant; operands of distinct nodes never recurse
    into each other (the graph is a DAG), so nesting is safe.  Every op
    carries its own tile writer except iota, pad, and dots and
    convolutions whose operands are not both in full storage, which
    fill through their accessor; an op whose writer would read a slab
    out of order (see [slabs]) fills element by element too.
    @raise Unsupported when [not (Op.scalarizable nd.op)]. *)
