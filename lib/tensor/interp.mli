(** Reference graph interpreter — the semantic oracle.

    Direct per-op evaluation, no fusion.  Every compiled kernel plan must
    reproduce these values. *)

open Astitch_ir

exception Missing_parameter of string

val unary_fn : Op.unary_kind -> float -> float

val erf_tile : float array -> int -> int -> unit
(** [erf_tile a lo hi] replaces [a.(lo) .. a.(hi)] by their [Op.Erf]
    values: the float operations of [unary_fn Op.Erf], without boxing. *)

val binary_fn : Op.binary_kind -> float -> float -> float
val reduce_init : Op.reduce_kind -> float
val reduce_step : Op.reduce_kind -> float -> float -> float

val eval_node :
  Graph.t ->
  Tensor.t array ->
  params:(string * Tensor.t) list ->
  Graph.node ->
  Tensor.t
(** Evaluate one node given the values of all earlier nodes. *)

val eval_all : Graph.t -> params:(string * Tensor.t) list -> Tensor.t array
(** Values of every node, indexed by node id.
    @raise Missing_parameter if a graph parameter is unbound. *)

val run : Graph.t -> params:(string * Tensor.t) list -> Tensor.t list
(** Values of the graph outputs. *)
