(* Graph simplification: constant folding, algebraic identities, common
   subexpression elimination and (by construction) dead-code elimination.

   The pass rebuilds the graph through the builder, walking the original
   nodes in topological order and mapping each to a replacement value.
   Only value-preserving rules are applied - rules that could change
   IEEE semantics on non-finite inputs (like x - x -> 0) are left out so
   simplified graphs stay bit-compatible with the reference interpreter
   on ordinary inputs. *)

type stats = {
  folded : int; (* constant-folding rewrites *)
  identities : int; (* algebraic identity rewrites *)
  cse : int; (* nodes deduplicated *)
  dce : int; (* dead nodes dropped *)
}

let pp_stats fmt s =
  Format.fprintf fmt "folded=%d identities=%d cse=%d dce=%d" s.folded
    s.identities s.cse s.dce

(* A node whose elements are all the same known value: a constant, or a
   pure data-movement chain above one. *)
let rec uniform_value g id =
  match Graph.op g id with
  | Op.Constant { value } -> Some value
  | Op.Broadcast { input; _ }
  | Op.Reshape { input }
  | Op.Transpose { input; _ } ->
      uniform_value g input
  | _ -> None

let apply_unary kind v =
  match (kind : Op.unary_kind) with
  | Op.Neg -> Some (-.v)
  | Op.Abs -> Some (Float.abs v)
  | Op.Sign -> Some (if v > 0. then 1. else if v < 0. then -1. else 0.)
  | Op.Relu -> Some (Float.max 0. v)
  | Op.Rcp -> Some (1. /. v)
  | Op.Exp -> Some (Stdlib.exp v)
  | Op.Log -> Some (Stdlib.log v)
  | Op.Tanh -> Some (Stdlib.tanh v)
  | Op.Sigmoid -> Some (1. /. (1. +. Stdlib.exp (-.v)))
  | Op.Sqrt -> Some (Stdlib.sqrt v)
  | Op.Rsqrt -> Some (1. /. Stdlib.sqrt v)
  | Op.Erf -> None (* interpreter uses a polynomial; avoid drift *)

let apply_binary kind a b =
  match (kind : Op.binary_kind) with
  | Op.Add -> Some (a +. b)
  | Op.Sub -> Some (a -. b)
  | Op.Mul -> Some (a *. b)
  | Op.Div -> Some (a /. b)
  | Op.Max -> Some (Float.max a b)
  | Op.Min -> Some (Float.min a b)
  | Op.Pow -> Some (a ** b)
  | Op.Lt -> Some (if a < b then 1. else 0.)
  | Op.Gt -> Some (if a > b then 1. else 0.)
  | Op.Eq -> Some (if a = b then 1. else 0.)

(* CSE key: the op with operands replaced by their new ids, plus the
   output shape (reshape/broadcast targets are not captured by the op
   record alone). *)
let cse_key op shape = (op, Shape.to_list shape)

(* Rebuild keeping only nodes reachable from the outputs. *)
let dce g =
  let b = Builder.create () in
  let mapping = Hashtbl.create 64 in
  Graph.iter_nodes
    (fun nd ->
      if Graph.is_live g nd.id then begin
        let op = Op.map_operands (Hashtbl.find mapping) nd.op in
        let v =
          match op with
          | Op.Parameter { name } ->
              Builder.parameter b ~dtype:nd.dtype name (Shape.to_list nd.shape)
          | Op.Constant { value } ->
              Builder.constant b ~dtype:nd.dtype ~dims:(Shape.to_list nd.shape)
                value
          | Op.Iota { axis } ->
              Builder.iota b ~dtype:nd.dtype ~axis (Shape.to_list nd.shape)
          | Op.Broadcast { input; dims } ->
              Builder.broadcast b input ~dims:(Array.to_list dims)
                (Shape.to_list nd.shape)
          | Op.Reshape { input } ->
              Builder.reshape b input (Shape.to_list nd.shape)
          | Op.Unary { kind; input } -> Builder.unary b kind input
          | Op.Binary { kind; lhs; rhs } -> Builder.binary b kind lhs rhs
          | Op.Reduce { input; kind; axes } ->
              Builder.reduce b kind ~axes:(Array.to_list axes) input
          | Op.Transpose { input; perm } ->
              Builder.transpose b input ~perm:(Array.to_list perm)
          | Op.Select { pred; on_true; on_false } ->
              Builder.select b ~pred ~on_true ~on_false
          | Op.Concat { inputs; axis } -> Builder.concat b ~axis inputs
          | Op.Slice { input; starts; stops } ->
              Builder.slice b input ~starts:(Array.to_list starts)
                ~stops:(Array.to_list stops)
          | Op.Pad { input; low; high } ->
              Builder.pad b input ~low:(Array.to_list low)
                ~high:(Array.to_list high)
          | Op.Gather { params; indices } -> Builder.gather b params indices
          | Op.Scatter_add { indices; updates; rows } ->
              Builder.scatter_add b ~rows indices updates
          | Op.Max_pool { input; window; stride } ->
              Builder.max_pool b ~window ~stride input
          | Op.Dot { lhs; rhs } -> Builder.dot b lhs rhs
          | Op.Conv2d { input; filter; stride } ->
              Builder.conv2d b ~stride input filter
        in
        Hashtbl.replace mapping nd.id v
      end)
    g;
  Builder.finish b ~outputs:(List.map (Hashtbl.find mapping) (Graph.outputs g))

let run g =
  let b = Builder.create () in
  let mapping : (Op.node_id, Builder.v) Hashtbl.t = Hashtbl.create 64 in
  let table : (Op.t * int list, Builder.v) Hashtbl.t = Hashtbl.create 64 in
  let folded = ref 0 and identities = ref 0 and cse = ref 0 in
  let new_id id = Hashtbl.find mapping id in
  let uniform_fill shape v =
    let c = Builder.constant b v in
    if Shape.rank shape = 0 then c
    else Builder.broadcast_scalar b c (Shape.to_list shape)
  in
  let emit_mapped nd_id (op : Op.t) shape dtype =
    (* CSE, then emit *)
    let key = cse_key op shape in
    match Hashtbl.find_opt table key with
    | Some v ->
        incr cse;
        Hashtbl.replace mapping nd_id v
    | None ->
        let v =
          match op with
          | Op.Parameter { name } ->
              Builder.parameter b ~dtype name (Shape.to_list shape)
          | Op.Constant { value } ->
              Builder.constant b ~dtype ~dims:(Shape.to_list shape) value
          | Op.Iota { axis } -> Builder.iota b ~dtype ~axis (Shape.to_list shape)
          | Op.Broadcast { input; dims } ->
              Builder.broadcast b input ~dims:(Array.to_list dims)
                (Shape.to_list shape)
          | Op.Reshape { input } -> Builder.reshape b input (Shape.to_list shape)
          | Op.Unary { kind; input } -> Builder.unary b kind input
          | Op.Binary { kind; lhs; rhs } -> Builder.binary b kind lhs rhs
          | Op.Reduce { input; kind; axes } ->
              Builder.reduce b kind ~axes:(Array.to_list axes) input
          | Op.Transpose { input; perm } ->
              Builder.transpose b input ~perm:(Array.to_list perm)
          | Op.Select { pred; on_true; on_false } ->
              Builder.select b ~pred ~on_true ~on_false
          | Op.Concat { inputs; axis } -> Builder.concat b ~axis inputs
          | Op.Slice { input; starts; stops } ->
              Builder.slice b input ~starts:(Array.to_list starts)
                ~stops:(Array.to_list stops)
          | Op.Pad { input; low; high } ->
              Builder.pad b input ~low:(Array.to_list low)
                ~high:(Array.to_list high)
          | Op.Gather { params; indices } -> Builder.gather b params indices
          | Op.Scatter_add { indices; updates; rows } ->
              Builder.scatter_add b ~rows indices updates
          | Op.Max_pool { input; window; stride } ->
              Builder.max_pool b ~window ~stride input
          | Op.Dot { lhs; rhs } -> Builder.dot b lhs rhs
          | Op.Conv2d { input; filter; stride } ->
              Builder.conv2d b ~stride input filter
        in
        Hashtbl.replace table key v;
        Hashtbl.replace mapping nd_id v
  in
  Graph.iter_nodes
    (fun nd ->
      if Graph.is_live g nd.id then begin
        let shape = nd.shape in
        let remapped = Op.map_operands new_id nd.op in
        let uniform_of v =
          (* uniform value of a node in the NEW builder *)
          let rec go v =
            match Builder.op_of b v with
            | Op.Constant { value } -> Some value
            | Op.Broadcast { input; _ }
            | Op.Reshape { input }
            | Op.Transpose { input; _ } ->
                go input
            | _ -> None
          in
          go v
        in
        let folded_value =
          match remapped with
          | Op.Unary { kind; input } -> (
              match uniform_of input with
              | Some v -> apply_unary kind v
              | None -> None)
          | Op.Binary { kind; lhs; rhs } -> (
              match (uniform_of lhs, uniform_of rhs) with
              | Some a, Some v -> apply_binary kind a v
              | _ -> None)
          | Op.Reduce { input; kind; axes } -> (
              match uniform_of input with
              | Some v -> (
                  let n = Shape.elements_along (Builder.shape_of b input) axes in
                  match kind with
                  | Op.Sum -> Some (v *. float_of_int n)
                  | Op.Mean | Op.Max_r | Op.Min_r -> Some v)
              | None -> None)
          | _ -> None
        in
        match folded_value with
        | Some v ->
            incr folded;
            Hashtbl.replace mapping nd.id (uniform_fill shape v)
        | None -> (
            (* algebraic identities *)
            let identity =
              match remapped with
              | Op.Binary { kind = Op.Add; lhs; rhs } -> (
                  match (uniform_of lhs, uniform_of rhs) with
                  | _, Some 0. -> Some lhs
                  | Some 0., _ -> Some rhs
                  | _ -> None)
              | Op.Binary { kind = Op.Sub; lhs; rhs } -> (
                  match uniform_of rhs with Some 0. -> Some lhs | _ -> None)
              | Op.Binary { kind = Op.Mul; lhs; rhs } -> (
                  match (uniform_of lhs, uniform_of rhs) with
                  | _, Some 1. -> Some lhs
                  | Some 1., _ -> Some rhs
                  | _ -> None)
              | Op.Binary { kind = Op.Div; lhs; rhs } -> (
                  match uniform_of rhs with Some 1. -> Some lhs | _ -> None)
              | Op.Binary { kind = Op.Pow; lhs; rhs } -> (
                  match uniform_of rhs with Some 1. -> Some lhs | _ -> None)
              | Op.Unary { kind = Op.Neg; input } -> (
                  match Builder.op_of b input with
                  | Op.Unary { kind = Op.Neg; input = inner } -> Some inner
                  | _ -> None)
              | Op.Unary { kind = Op.Abs; input } -> (
                  match Builder.op_of b input with
                  | Op.Unary { kind = Op.Abs | Op.Relu | Op.Exp; _ } ->
                      Some input
                  | _ -> None)
              | Op.Unary { kind = Op.Relu; input } -> (
                  match Builder.op_of b input with
                  | Op.Unary { kind = Op.Relu | Op.Abs | Op.Exp | Op.Sigmoid; _ }
                    ->
                      Some input
                  | _ -> None)
              | Op.Reshape { input } ->
                  if Shape.equal (Builder.shape_of b input) shape then
                    Some input
                  else None
              | Op.Transpose { input; perm } ->
                  if Array.to_list perm = List.init (Array.length perm) Fun.id
                  then Some input
                  else None
              | _ -> None
            in
            match identity with
            | Some v ->
                incr identities;
                Hashtbl.replace mapping nd.id v
            | None -> emit_mapped nd.id remapped shape nd.dtype)
      end)
    g;
  let outputs = List.map new_id (Graph.outputs g) in
  let g' = Builder.finish b ~outputs in
  (* rewrites strand their old operands (e.g. the zero a removed add was
     fed); a final dead-code sweep drops them *)
  let g'' = dce g' in
  let dce_count = Graph.num_nodes g - Graph.num_nodes g'' in
  (g'', { folded = !folded; identities = !identities; cse = !cse; dce = Stdlib.max 0 dce_count })
