(** Immutable computation graphs.

    Node ids are dense and assigned in construction order, so every operand
    id is smaller than its user's id: graphs are acyclic by construction
    and id order is a valid topological order. *)

type node = { id : Op.node_id; op : Op.t; shape : Shape.t; dtype : Dtype.t }
type t

exception Ill_formed of string

val ill_formed : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Ill_formed} with a formatted message. *)

val of_nodes : node array -> outputs:Op.node_id list -> t
(** @raise Ill_formed if ids are not dense/increasing, an operand is a
    forward reference, or the output list is empty/out of range. *)

val validate : t -> unit
(** Re-check every node against the shape-inference rules.
    @raise Ill_formed on any inconsistency. *)

val num_nodes : t -> int
val node : t -> Op.node_id -> node
val op : t -> Op.node_id -> Op.t
val shape : t -> Op.node_id -> Shape.t
val dtype : t -> Op.node_id -> Dtype.t
val outputs : t -> Op.node_id list
val is_output : t -> Op.node_id -> bool

val is_live : t -> Op.node_id -> bool
(** Reachable backwards from the outputs, computed once when the graph is
    built; backends never lower dead nodes (matching XLA/TF dead-code
    elimination). *)

val consumers : t -> Op.node_id -> Op.node_id list
val operands : t -> Op.node_id -> Op.node_id list
val topo_order : t -> Op.node_id list
val iter_nodes : (node -> unit) -> t -> unit
val fold_nodes : ('a -> node -> 'a) -> 'a -> t -> 'a
val num_elements : t -> Op.node_id -> int
val bytes : t -> Op.node_id -> int
val parameters : t -> Op.node_id list
val find_parameter : t -> string -> Op.node_id option
val memory_intensive_ids : t -> Op.node_id list
val compute_intensive_ids : t -> Op.node_id list

val pp_node : t -> Format.formatter -> Op.node_id -> unit
val pp : Format.formatter -> t -> unit

type stats = {
  total_ops : int;
  memory_intensive_ops : int;
  compute_intensive_ops : int;
  reduce_ops : int;
  broadcast_ops : int;
  heavy_elementwise_ops : int;
}

val stats : t -> stats
