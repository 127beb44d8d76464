(* The operator algebra.

   Ops reference their operands by node id; the surrounding graph owns the
   id -> node mapping.  Binary ops require equal operand shapes — implicit
   numpy-style broadcasting is not allowed, a Broadcast node must be
   inserted explicitly (as in XLA HLO).  This keeps element-level
   dependencies visible to the stitching analysis. *)

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
      (* [dims.(i)] is the output axis carrying input axis [i]; strictly
         increasing.  All other output axes replicate. *)
  | Reduce of { input : node_id; kind : reduce_kind; axes : int array }
  | Reshape of { input : node_id }
  | Transpose of { input : node_id; perm : int array }
  | Select of { pred : node_id; on_true : node_id; on_false : node_id }
  | Concat of { inputs : node_id list; axis : int }
  | Slice of { input : node_id; starts : int array; stops : int array }
  | Pad of { input : node_id; low : int array; high : int array }
  | Gather of { params : node_id; indices : node_id }
      (* Embedding lookup: params [n; rest..] x indices [k] -> [k; rest..].
         Out-of-range indices clamp, as in XLA. *)
  | Scatter_add of { indices : node_id; updates : node_id; rows : int }
      (* Reverse of gather: zeros [rows; rest..] with updates[i] added at
         row indices[i] (clamped); lowers to atomics on GPUs. *)
  | Max_pool of { input : node_id; window : int; stride : int }
      (* NHWC max pooling, VALID padding. *)
  | Dot of { lhs : node_id; rhs : node_id }
      (* Batched matmul: [...,m,k] x [...,k,n] -> [...,m,n]. *)
  | Conv2d of { input : node_id; filter : node_id; stride : int }
      (* NHWC x [kh,kw,c,oc], VALID padding. *)

let operands = function
  | Parameter _ | Constant _ | Iota _ -> []
  | Unary { input; _ } | Broadcast { input; _ } | Reduce { input; _ }
  | Reshape { input } | Transpose { input; _ }
  | Slice { input; _ } | Pad { input; _ } ->
      [ input ]
  | Binary { lhs; rhs; _ } | Dot { lhs; rhs } -> [ lhs; rhs ]
  | Gather { params; indices } -> [ params; indices ]
  | Scatter_add { indices; updates; _ } -> [ indices; updates ]
  | Max_pool { input; _ } -> [ input ]
  | Conv2d { input; filter; _ } -> [ input; filter ]
  | Select { pred; on_true; on_false } -> [ pred; on_true; on_false ]
  | Concat { inputs; _ } -> inputs

let map_operands f op =
  match op with
  | Parameter _ | Constant _ | Iota _ -> op
  | Unary u -> Unary { u with input = f u.input }
  | Binary b -> Binary { b with lhs = f b.lhs; rhs = f b.rhs }
  | Broadcast b -> Broadcast { b with input = f b.input }
  | Reduce r -> Reduce { r with input = f r.input }
  | Reshape { input } -> Reshape { input = f input }
  | Transpose t -> Transpose { t with input = f t.input }
  | Select s ->
      Select
        { pred = f s.pred; on_true = f s.on_true; on_false = f s.on_false }
  | Concat c -> Concat { c with inputs = List.map f c.inputs }
  | Slice s -> Slice { s with input = f s.input }
  | Pad p -> Pad { p with input = f p.input }
  | Gather gth -> Gather { params = f gth.params; indices = f gth.indices }
  | Scatter_add sc ->
      Scatter_add { sc with indices = f sc.indices; updates = f sc.updates }
  | Max_pool mp -> Max_pool { mp with input = f mp.input }
  | Dot d -> Dot { lhs = f d.lhs; rhs = f d.rhs }
  | Conv2d c -> Conv2d { c with input = f c.input; filter = f c.filter }

(* --- Classification (Sec 2.1 of the paper) --------------------------- *)

type op_class = Compute_intensive | Memory_intensive

let classify = function
  | Dot _ | Conv2d _ -> Compute_intensive
  | Parameter _ | Constant _ | Iota _ | Unary _ | Binary _ | Broadcast _
  | Reduce _ | Reshape _ | Transpose _ | Select _ | Concat _ | Slice _
  | Pad _ | Gather _ | Scatter_add _ | Max_pool _ ->
      Memory_intensive

type weight = Light | Heavy

let unary_weight = function
  | Neg | Abs | Sign | Relu | Rcp -> Light
  | Exp | Log | Tanh | Sigmoid | Sqrt | Rsqrt | Erf -> Heavy

let binary_weight = function
  | Add | Sub | Mul | Div | Max | Min | Lt | Gt | Eq -> Light
  | Pow -> Heavy

(* Weight of the computation performed per output element; structural ops
   move data without arithmetic. *)
let weight = function
  | Unary { kind; _ } -> unary_weight kind
  | Binary { kind; _ } -> binary_weight kind
  | Parameter _ | Constant _ | Iota _ | Broadcast _ | Reduce _ | Reshape _
  | Transpose _ | Select _ | Concat _ | Slice _ | Pad _ | Dot _ | Conv2d _
  | Gather _ | Scatter_add _ | Max_pool _ ->
      Light

(* FP32 instructions issued per produced element — the [inst_fp_32]
   counter of Table 5.  Values approximate what nvcc emits for the CUDA
   device functions (transcendentals expand to polynomial sequences). *)
let fp32_insts_per_element = function
  | Parameter _ | Constant _ | Iota _ -> 0
  | Unary { kind; _ } -> (
      match kind with
      | Neg | Abs | Sign -> 1
      | Relu -> 2
      | Rcp -> 5
      | Sqrt -> 8
      | Rsqrt -> 8
      | Exp -> 16
      | Log -> 20
      | Sigmoid -> 20
      | Tanh -> 28
      | Erf -> 36)
  | Binary { kind; _ } -> (
      match kind with
      | Add | Sub | Mul | Max | Min | Lt | Gt | Eq -> 1
      | Div -> 6
      | Pow -> 40)
  | Select _ -> 1
  | Broadcast _ | Reshape _ | Transpose _ | Concat _ | Slice _ | Pad _
  | Gather _ ->
      0
  | Scatter_add _ -> 1 (* one atomic add per update element *)
  | Max_pool _ -> 1 (* one compare per window element; scaled by window^2 *)
  | Reduce _ -> 1 (* one accumulate per consumed element; scaled by the
                     reduction width in the cost model *)
  | Dot _ | Conv2d _ -> 2 (* per multiply-accumulate; scaled by k *)

let unary_to_string = function
  | Neg -> "neg"
  | Abs -> "abs"
  | Sign -> "sign"
  | Relu -> "relu"
  | Rcp -> "rcp"
  | Exp -> "exp"
  | Log -> "log"
  | Tanh -> "tanh"
  | Sigmoid -> "sigmoid"
  | Sqrt -> "sqrt"
  | Rsqrt -> "rsqrt"
  | Erf -> "erf"

let binary_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "multiply"
  | Div -> "divide"
  | Max -> "maximum"
  | Min -> "minimum"
  | Pow -> "power"
  | Lt -> "less"
  | Gt -> "greater"
  | Eq -> "equal"

let reduce_to_string = function
  | Sum -> "sum"
  | Max_r -> "max"
  | Min_r -> "min"
  | Mean -> "mean"

let mnemonic = function
  | Parameter { name } -> "parameter:" ^ name
  | Constant { value } -> Printf.sprintf "constant:%g" value
  | Iota { axis } -> Printf.sprintf "iota:%d" axis
  | Unary { kind; _ } -> unary_to_string kind
  | Binary { kind; _ } -> binary_to_string kind
  | Broadcast _ -> "broadcast"
  | Reduce { kind; _ } -> "reduce-" ^ reduce_to_string kind
  | Reshape _ -> "reshape"
  | Transpose _ -> "transpose"
  | Select _ -> "select"
  | Concat _ -> "concatenate"
  | Slice _ -> "slice"
  | Pad _ -> "pad"
  | Gather _ -> "gather"
  | Scatter_add _ -> "scatter-add"
  | Max_pool { window; _ } -> Printf.sprintf "max-pool:%d" window
  | Dot _ -> "dot"
  | Conv2d _ -> "convolution"

let is_reduce = function Reduce _ -> true | _ -> false

(* Windowed reductions share the reduce ops' fusion behaviour: inlining
   them into consumers re-runs the whole window per element. *)
let is_reduce_like = function Reduce _ | Max_pool _ -> true | _ -> false
let is_broadcast = function Broadcast _ -> true | _ -> false
let is_parameter = function Parameter _ -> true | _ -> false

let scalarizable = function
  | Parameter _ | Scatter_add _ -> false
  | _ -> true
