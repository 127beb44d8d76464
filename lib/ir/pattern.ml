(* Element-level dependency analysis along graph edges (paper Sec 2.3.1).

   The fusion/stitching decisions hinge on how each consumer op reads its
   producer: one-to-one reads can be inlined into per-thread registers,
   while one-to-many (broadcast) and many-to-one (reduce) reads force
   either recomputation or cross-thread data exchange. *)

type edge_dep =
  | One_to_one (* each consumer element reads at most one producer element *)
  | One_to_many (* one producer element fans out to many consumer elements *)
  | Many_to_one (* each consumer element reads many producer elements *)

(* Dependency carried by the edge [producer -> consumer], looking at how
   the consumer op indexes that particular operand. *)
let edge_dep g ~producer ~consumer =
  let cop = Graph.op g consumer in
  match cop with
  | Op.Broadcast { input; dims } ->
      assert (input = producer);
      if Array.length dims = Shape.rank (Graph.shape g consumer) then One_to_one
      else One_to_many
  | Op.Reduce { input; _ } ->
      assert (input = producer);
      if Graph.num_elements g consumer = Graph.num_elements g producer then
        One_to_one (* degenerate reduce over size-1 axes *)
      else Many_to_one
  | Op.Dot _ | Op.Conv2d _ -> Many_to_one
  | Op.Max_pool _ -> Many_to_one
  | Op.Gather { params; indices } ->
      (* each output element reads one params element; each index is
         re-read once per trailing element *)
      if producer = params && producer <> indices then One_to_one
      else One_to_many
  | Op.Scatter_add { indices; updates; _ } ->
      if producer = updates && producer <> indices then One_to_one
      else One_to_many
  | Op.Parameter _ | Op.Constant _ | Op.Iota _ ->
      invalid_arg "edge_dep: leaf op has no operands"
  | Op.Unary _ | Op.Binary _ | Op.Reshape _ | Op.Transpose _ | Op.Select _
  | Op.Concat _ | Op.Slice _ | Op.Pad _ ->
      One_to_one

(* How many consumer elements read each producer element along this edge
   (>= 1 only for one-to-many edges; 1 otherwise, and irrelevant for
   many-to-one edges). *)
let fanout g ~producer ~consumer =
  match edge_dep g ~producer ~consumer with
  | One_to_many ->
      let out = Graph.num_elements g consumer in
      let inp = Graph.num_elements g producer in
      if inp = 0 then 1 else Stdlib.max 1 (out / inp)
  | One_to_one | Many_to_one -> 1

(* Paper pattern (1): a reduce op together with its consumers.  The edge
   from a reduce to anything downstream cannot be handled by per-element
   inlining without recomputing the whole reduction per consumer thread. *)
let is_pattern1_edge g ~producer ~consumer:_ =
  Op.is_reduce_like (Graph.op g producer)

(* Paper pattern (2): a costly element-wise op followed by a broadcast.
   Inline fusion recomputes the expensive producer once per broadcast
   replica (the power<2> - broadcast<2,128> - add<2,128> example). *)
let is_pattern2_edge g ~producer ~consumer =
  (match Graph.op g producer with
  | Op.Unary _ | Op.Binary _ -> Op.weight (Graph.op g producer) = Op.Heavy
  | _ -> false)
  && edge_dep g ~producer ~consumer = One_to_many

(* Candidate dominant ops (Sec 4.3 step 1): reduces (scatter-add is an
   atomic one), and heavy element-wise ops followed by a live broadcast
   (a dead consumer is never lowered, so it steers nothing).  Output
   nodes of a stitch scope are added by the caller, which knows the
   scope boundary. *)
let is_dominant_candidate g id =
  let op = Graph.op g id in
  Op.is_reduce_like op
  || (match op with Op.Scatter_add _ -> true | _ -> false)
  || (match op with
     | Op.Unary _ | Op.Binary _ -> Op.weight op = Op.Heavy
     | _ -> false)
     && List.exists
          (fun c -> Graph.is_live g c && edge_dep g ~producer:id ~consumer:c = One_to_many)
          (Graph.consumers g id)

(* Is the reduce a row-reduce (contiguous elements, one thread block per
   row) or a column-reduce (strided, needs atomics)?  Paper Sec 2.1. *)
type reduce_layout = Row_reduce | Column_reduce

let reduce_layout_opt g id =
  match Graph.op g id with
  | Op.Reduce { input; axes; _ } ->
      let s = Graph.shape g input in
      Some (if Shape.axes_are_suffix s axes then Row_reduce else Column_reduce)
  | _ -> None

let reduce_layout g id =
  match reduce_layout_opt g id with
  | Some l -> l
  | None -> invalid_arg "reduce_layout: not a reduce"

(* Geometry of a reduce: (rows, row_length) where [rows] is the number of
   independent reductions and [row_length] the elements per reduction. *)
let reduce_geometry_opt g id =
  match Graph.op g id with
  | Op.Reduce { input; axes; _ } ->
      let s = Graph.shape g input in
      let row_length = Shape.elements_along s axes in
      let rows = Shape.num_elements s / Stdlib.max 1 row_length in
      Some (rows, row_length)
  | _ -> None

let reduce_geometry g id =
  match reduce_geometry_opt g id with
  | Some geom -> geom
  | None -> invalid_arg "reduce_geometry: not a reduce"
