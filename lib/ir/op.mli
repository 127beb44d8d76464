(** The operator algebra.

    Ops reference operands by node id; the surrounding {!Graph} owns the
    id->node mapping.  Binary ops require equal operand shapes: implicit
    broadcasting is not allowed, a [Broadcast] must be inserted explicitly
    (as in XLA HLO) so element-level dependencies stay visible to the
    stitching analysis. *)

type node_id = int

type unary_kind =
  | Neg
  | Abs
  | Sign
  | Relu
  | Rcp
  | Exp
  | Log
  | Tanh
  | Sigmoid
  | Sqrt
  | Rsqrt
  | Erf

type binary_kind = Add | Sub | Mul | Div | Max | Min | Pow | Lt | Gt | Eq
type reduce_kind = Sum | Max_r | Min_r | Mean

type t =
  | Parameter of { name : string }
  | Constant of { value : float }
  | Iota of { axis : int }
  | Unary of { kind : unary_kind; input : node_id }
  | Binary of { kind : binary_kind; lhs : node_id; rhs : node_id }
  | Broadcast of { input : node_id; dims : int array }
      (** [dims.(i)] is the output axis carrying input axis [i]; strictly
          increasing.  Other output axes replicate their data. *)
  | Reduce of { input : node_id; kind : reduce_kind; axes : int array }
  | Reshape of { input : node_id }
  | Transpose of { input : node_id; perm : int array }
  | Select of { pred : node_id; on_true : node_id; on_false : node_id }
  | Concat of { inputs : node_id list; axis : int }
  | Slice of { input : node_id; starts : int array; stops : int array }
  | Pad of { input : node_id; low : int array; high : int array }
  | Gather of { params : node_id; indices : node_id }
      (** Embedding lookup: [params [n; rest..] x indices [k] -> [k; rest..]];
          out-of-range indices clamp, as in XLA. *)
  | Scatter_add of { indices : node_id; updates : node_id; rows : int }
      (** Reverse of gather: zeros with [updates.(i)] added at row
          [indices.(i)] (clamped); lowers to atomics. *)
  | Max_pool of { input : node_id; window : int; stride : int }
      (** NHWC max pooling, VALID padding. *)
  | Dot of { lhs : node_id; rhs : node_id }
      (** Batched matmul: [[...,m,k] x [...,k,n] -> [...,m,n]]. *)
  | Conv2d of { input : node_id; filter : node_id; stride : int }
      (** NHWC input x [[kh,kw,c,oc]] filter, VALID padding. *)

val operands : t -> node_id list
val map_operands : (node_id -> node_id) -> t -> t

(** {2 Classification (paper Sec 2.1)} *)

type op_class = Compute_intensive | Memory_intensive

val classify : t -> op_class

type weight = Light | Heavy

val unary_weight : unary_kind -> weight
val binary_weight : binary_kind -> weight

val weight : t -> weight
(** Per-element arithmetic weight; structural data movement is [Light]. *)

val fp32_insts_per_element : t -> int
(** FP32 instructions per produced element (the [inst_fp_32] counter);
    [Reduce]/[Dot]/[Conv2d] values are per consumed element and get scaled
    by the reduction width in the cost model. *)

val mnemonic : t -> string
val unary_to_string : unary_kind -> string
val binary_to_string : binary_kind -> string
val reduce_to_string : reduce_kind -> string
val is_reduce : t -> bool

(** Reduces and windowed reductions (max-pool): inlining them into a
    consumer re-runs the whole reduction per element. *)
val is_reduce_like : t -> bool

val is_broadcast : t -> bool
val is_parameter : t -> bool

val scalarizable : t -> bool
(** Ops whose output element is a pure function of operand elements,
    which the fused engine can recompute inside a consumer's loop.
    [Scatter_add] (input-driven writes) and [Parameter] (external
    storage) are not. *)
