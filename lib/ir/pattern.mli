(** Element-level dependency analysis along graph edges (paper Sec 2.3.1). *)

type edge_dep =
  | One_to_one  (** each consumer element reads at most one producer element *)
  | One_to_many  (** one producer element fans out to many consumer elements *)
  | Many_to_one  (** each consumer element reads many producer elements *)

val edge_dep :
  Graph.t -> producer:Op.node_id -> consumer:Op.node_id -> edge_dep
(** Dependency carried by the edge, from how the consumer indexes that
    operand. *)

val fanout : Graph.t -> producer:Op.node_id -> consumer:Op.node_id -> int
(** Consumer elements reading each producer element along the edge; the
    recompute factor paid by inline fusion of a one-to-many edge. *)

val is_pattern1_edge :
  Graph.t -> producer:Op.node_id -> consumer:Op.node_id -> bool
(** Paper pattern (1): reduce op feeding a consumer. *)

val is_pattern2_edge :
  Graph.t -> producer:Op.node_id -> consumer:Op.node_id -> bool
(** Paper pattern (2): heavy element-wise op followed by a broadcast. *)

val is_dominant_candidate : Graph.t -> Op.node_id -> bool
(** Sec 4.3 step 1 candidates: reduces, and heavy element-wise ops with a
    live one-to-many (broadcast) consumer. *)

type reduce_layout = Row_reduce | Column_reduce

val reduce_layout_opt : Graph.t -> Op.node_id -> reduce_layout option
(** [None] if the node is not a reduce; never raises. *)

val reduce_layout : Graph.t -> Op.node_id -> reduce_layout
(** @raise Invalid_argument if the node is not a reduce. *)

val reduce_geometry_opt : Graph.t -> Op.node_id -> (int * int) option
(** [(rows, row_length)] as for [reduce_geometry], or [None] if the node
    is not a reduce; never raises. *)

val reduce_geometry : Graph.t -> Op.node_id -> int * int
(** [(rows, row_length)]: independent reductions and elements per
    reduction.  @raise Invalid_argument if the node is not a reduce. *)
