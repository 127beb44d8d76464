(* Mutable graph construction.  Shapes/dtypes are inferred as nodes are
   appended, so building is its own validation. *)

type v = Op.node_id

type t = { mutable nodes : Graph.node array; mutable next : int }

let dummy_node = { Graph.id = -1; op = Op.Constant { value = 0. }; shape = Shape.scalar; dtype = Dtype.F32 }

let create () = { nodes = Array.make 64 dummy_node; next = 0 }

let push b op shape dtype =
  let id = b.next in
  if id >= Array.length b.nodes then begin
    let bigger = Array.make (2 * Array.length b.nodes) dummy_node in
    Array.blit b.nodes 0 bigger 0 id;
    b.nodes <- bigger
  end;
  b.nodes.(id) <- { Graph.id; op; shape; dtype };
  b.next <- id + 1;
  id

let node b id =
  if id < 0 || id >= b.next then
    Graph.ill_formed "builder: unknown node id %d" id;
  b.nodes.(id)

let shape_of b id = (node b id).shape
let dtype_of b id = (node b id).dtype
let op_of b id = (node b id).op
let num_nodes b = b.next

let infer b op =
  Shape_infer.infer ~shape_of:(shape_of b) ~dtype_of:(dtype_of b) op

let emit b op =
  let shape, dtype = infer b op in
  push b op shape dtype

(* --- Leaves ------------------------------------------------------------ *)

let parameter b ?(dtype = Dtype.F32) name dims =
  push b (Op.Parameter { name }) (Shape.of_list dims) dtype

let constant b ?(dtype = Dtype.F32) ?(dims = []) value =
  push b (Op.Constant { value }) (Shape.of_list dims) dtype

let iota b ?(dtype = Dtype.F32) ~axis dims =
  let shape = Shape.of_list dims in
  if axis < 0 || axis >= Shape.rank shape then
    Graph.ill_formed "iota: axis %d out of rank %d" axis (Shape.rank shape);
  push b (Op.Iota { axis }) shape dtype

(* --- Element-wise ------------------------------------------------------ *)

let unary b kind x = emit b (Op.Unary { kind; input = x })
let neg b x = unary b Op.Neg x
let abs b x = unary b Op.Abs x
let sign b x = unary b Op.Sign x
let relu b x = unary b Op.Relu x
let rcp b x = unary b Op.Rcp x
let exp b x = unary b Op.Exp x
let log b x = unary b Op.Log x
let tanh b x = unary b Op.Tanh x
let sigmoid b x = unary b Op.Sigmoid x
let sqrt b x = unary b Op.Sqrt x
let rsqrt b x = unary b Op.Rsqrt x
let erf b x = unary b Op.Erf x

let binary b kind lhs rhs = emit b (Op.Binary { kind; lhs; rhs })
let add b x y = binary b Op.Add x y
let sub b x y = binary b Op.Sub x y
let mul b x y = binary b Op.Mul x y
let div b x y = binary b Op.Div x y
let max b x y = binary b Op.Max x y
let min b x y = binary b Op.Min x y
let pow b x y = binary b Op.Pow x y
let lt b x y = binary b Op.Lt x y
let gt b x y = binary b Op.Gt x y
let eq b x y = binary b Op.Eq x y

let select b ~pred ~on_true ~on_false =
  emit b (Op.Select { pred; on_true; on_false })

(* --- Shape manipulation ------------------------------------------------ *)

let broadcast b x ~dims out_dims =
  let out_shape = Shape.of_list out_dims in
  let dims = Array.of_list dims in
  Shape_infer.validate_broadcast ~input_shape:(shape_of b x) ~dims
    ~output_shape:out_shape;
  push b (Op.Broadcast { input = x; dims }) out_shape (dtype_of b x)

(* Broadcast a scalar (rank 0) to the given shape. *)
let broadcast_scalar b x out_dims =
  if Shape.rank (shape_of b x) <> 0 then
    Graph.ill_formed "broadcast_scalar: input is not a scalar";
  broadcast b x ~dims:[] out_dims

let reduce b kind ~axes x =
  emit b (Op.Reduce { input = x; kind; axes = Array.of_list axes })

let reduce_sum b ~axes x = reduce b Op.Sum ~axes x
let reduce_max b ~axes x = reduce b Op.Max_r ~axes x
let reduce_min b ~axes x = reduce b Op.Min_r ~axes x
let reduce_mean b ~axes x = reduce b Op.Mean ~axes x

let reshape b x out_dims =
  let out_shape = Shape.of_list out_dims in
  let s = shape_of b x in
  if Shape.num_elements s <> Shape.num_elements out_shape then
    Graph.ill_formed "reshape: element count mismatch %s -> %s"
      (Shape.to_string s) (Shape.to_string out_shape);
  push b (Op.Reshape { input = x }) out_shape (dtype_of b x)

let transpose b x ~perm =
  emit b (Op.Transpose { input = x; perm = Array.of_list perm })

let concat b ~axis inputs = emit b (Op.Concat { inputs; axis })

let slice b x ~starts ~stops =
  emit b
    (Op.Slice
       { input = x; starts = Array.of_list starts; stops = Array.of_list stops })

let pad b x ~low ~high =
  emit b (Op.Pad { input = x; low = Array.of_list low; high = Array.of_list high })

(* --- Compute-intensive -------------------------------------------------- *)

let gather b params indices = emit b (Op.Gather { params; indices })

let scatter_add b ~rows indices updates =
  emit b (Op.Scatter_add { indices; updates; rows })

let max_pool b ~window ~stride x =
  emit b (Op.Max_pool { input = x; window; stride })

let dot b x y = emit b (Op.Dot { lhs = x; rhs = y })
let conv2d b ~stride x filter = emit b (Op.Conv2d { input = x; filter; stride })

(* --- Composite helpers shared by the workload generators ---------------- *)

(* Numerically-stable softmax over the last axis. *)
let softmax b x =
  let s = shape_of b x in
  let r = Shape.rank s in
  let last = r - 1 in
  let dims_all = Shape.to_list s in
  let keep_dims = List.init (r - 1) Fun.id in
  let m = reduce_max b ~axes:[ last ] x in
  let m_b = broadcast b m ~dims:keep_dims dims_all in
  let shifted = sub b x m_b in
  let e = exp b shifted in
  let z = reduce_sum b ~axes:[ last ] e in
  let z_b = broadcast b z ~dims:keep_dims dims_all in
  div b e z_b

(* Layer normalization over the last axis, with learned scale/offset. *)
let layer_norm b ?(eps = 1e-5) x ~gamma ~beta =
  let s = shape_of b x in
  let r = Shape.rank s in
  let last = r - 1 in
  let dims_all = Shape.to_list s in
  let keep_dims = List.init (r - 1) Fun.id in
  let mean = reduce_mean b ~axes:[ last ] x in
  let mean_b = broadcast b mean ~dims:keep_dims dims_all in
  let centered = sub b x mean_b in
  let var = reduce_mean b ~axes:[ last ] (mul b centered centered) in
  let eps_c = constant b eps in
  let eps_b = broadcast_scalar b eps_c (Shape.to_list (shape_of b var)) in
  let inv_std = rsqrt b (add b var eps_b) in
  let inv_std_b = broadcast b inv_std ~dims:keep_dims dims_all in
  let normalized = mul b centered inv_std_b in
  let gamma_b = broadcast b gamma ~dims:[ last ] dims_all in
  let beta_b = broadcast b beta ~dims:[ last ] dims_all in
  add b (mul b normalized gamma_b) beta_b

(* GELU via erf, as in BERT. *)
let gelu b x =
  let s = Shape.to_list (shape_of b x) in
  let half = broadcast_scalar b (constant b 0.5) s in
  let inv_sqrt2 = broadcast_scalar b (constant b 0.7071067811865476) s in
  let one = broadcast_scalar b (constant b 1.0) s in
  mul b (mul b x half) (add b one (erf b (mul b x inv_sqrt2)))

let finish b ~outputs =
  let nodes = Array.sub b.nodes 0 b.next in
  let g = Graph.of_nodes nodes ~outputs in
  Graph.validate g;
  g
