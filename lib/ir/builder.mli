(** Mutable graph construction with on-the-fly shape inference.

    Every emit validates its operands, so {!finish} produces a well-formed
    {!Graph.t}.  Values ([v]) are node ids into the graph being built. *)

type t
type v = Op.node_id

val create : unit -> t
val shape_of : t -> v -> Shape.t
val dtype_of : t -> v -> Dtype.t
val op_of : t -> v -> Op.t
val num_nodes : t -> int

(** {2 Leaves} *)

val parameter : t -> ?dtype:Dtype.t -> string -> int list -> v
val constant : t -> ?dtype:Dtype.t -> ?dims:int list -> float -> v
val iota : t -> ?dtype:Dtype.t -> axis:int -> int list -> v

(** {2 Element-wise} *)

val unary : t -> Op.unary_kind -> v -> v
val neg : t -> v -> v
val abs : t -> v -> v
val sign : t -> v -> v
val relu : t -> v -> v
val rcp : t -> v -> v
val exp : t -> v -> v
val log : t -> v -> v
val tanh : t -> v -> v
val sigmoid : t -> v -> v
val sqrt : t -> v -> v
val rsqrt : t -> v -> v
val erf : t -> v -> v
val binary : t -> Op.binary_kind -> v -> v -> v
val add : t -> v -> v -> v
val sub : t -> v -> v -> v
val mul : t -> v -> v -> v
val div : t -> v -> v -> v
val max : t -> v -> v -> v
val min : t -> v -> v -> v
val pow : t -> v -> v -> v
val lt : t -> v -> v -> v
val gt : t -> v -> v -> v
val eq : t -> v -> v -> v
val select : t -> pred:v -> on_true:v -> on_false:v -> v

(** {2 Shape manipulation} *)

val broadcast : t -> v -> dims:int list -> int list -> v
(** [broadcast b x ~dims out] maps input axis [i] to output axis
    [List.nth dims i]; remaining output axes replicate. *)

val broadcast_scalar : t -> v -> int list -> v
val reduce : t -> Op.reduce_kind -> axes:int list -> v -> v
val reduce_sum : t -> axes:int list -> v -> v
val reduce_max : t -> axes:int list -> v -> v
val reduce_min : t -> axes:int list -> v -> v
val reduce_mean : t -> axes:int list -> v -> v
val reshape : t -> v -> int list -> v
val transpose : t -> v -> perm:int list -> v
val concat : t -> axis:int -> v list -> v
val slice : t -> v -> starts:int list -> stops:int list -> v
val pad : t -> v -> low:int list -> high:int list -> v

val gather : t -> v -> v -> v
(** [gather b params indices]: embedding lookup (indices clamp). *)

val scatter_add : t -> rows:int -> v -> v -> v
(** [scatter_add b ~rows indices updates]: gather's reverse. *)

val max_pool : t -> window:int -> stride:int -> v -> v

(** {2 Compute-intensive} *)

val dot : t -> v -> v -> v
val conv2d : t -> stride:int -> v -> v -> v

(** {2 Composites used by the workload generators} *)

val softmax : t -> v -> v
(** Numerically-stable softmax over the last axis. *)

val layer_norm : t -> ?eps:float -> v -> gamma:v -> beta:v -> v
val gelu : t -> v -> v

val finish : t -> outputs:v list -> Graph.t
(** Freeze and validate. *)
