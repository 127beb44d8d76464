(* Reference graph interpreter: direct, per-op evaluation, no fusion.

   This is the semantic oracle — every compiled kernel plan, whichever
   backend produced it, must compute the same values (see the runtime
   executor and the property tests). *)

open Astitch_ir

exception Missing_parameter of string

(* Abramowitz & Stegun 7.1.26 (Horner form), ~1e-7 absolute error —
   comparable to a GPU erf intrinsic, within test tolerance. *)
let[@inline] erf x =
  let sign = if x < 0. then -1. else 1. in
  let ax = Float.abs x in
  let t = 1. /. (1. +. (0.3275911 *. ax)) in
  let poly =
    t
    *. (0.254829592
       +. t
          *. (-0.284496736
             +. t *. (1.421413741 +. (t *. (-1.453152027 +. (t *. 1.061405429))))))
  in
  sign *. (1. -. (poly *. Stdlib.exp (-.ax *. ax)))

(* [erf] in place over a.(lo) .. a.(hi): the same polynomial inlined into
   one loop, so the tile path neither boxes nor copies it *)
let erf_tile (a : float array) lo hi =
  for k = lo to hi do
    a.(k) <- erf a.(k)
  done

let unary_fn : Op.unary_kind -> float -> float = function
  | Op.Neg -> fun x -> -.x
  | Op.Abs -> Float.abs
  | Op.Sign -> fun x -> if x > 0. then 1. else if x < 0. then -1. else 0.
  | Op.Relu -> fun x -> Float.max 0. x
  | Op.Rcp -> fun x -> 1. /. x
  | Op.Exp -> Stdlib.exp
  | Op.Log -> Stdlib.log
  | Op.Tanh -> Stdlib.tanh
  | Op.Sigmoid -> fun x -> 1. /. (1. +. Stdlib.exp (-.x))
  | Op.Sqrt -> Stdlib.sqrt
  | Op.Rsqrt -> fun x -> 1. /. Stdlib.sqrt x
  | Op.Erf -> erf

let binary_fn : Op.binary_kind -> float -> float -> float = function
  | Op.Add -> ( +. )
  | Op.Sub -> ( -. )
  | Op.Mul -> ( *. )
  | Op.Div -> ( /. )
  | Op.Max -> Float.max
  | Op.Min -> Float.min
  | Op.Pow -> ( ** )
  | Op.Lt -> fun a b -> if a < b then 1. else 0.
  | Op.Gt -> fun a b -> if a > b then 1. else 0.
  | Op.Eq -> fun a b -> if a = b then 1. else 0.

let reduce_init = function
  | Op.Sum | Op.Mean -> 0.
  | Op.Max_r -> Float.neg_infinity
  | Op.Min_r -> Float.infinity

let reduce_step = function
  | Op.Sum | Op.Mean -> ( +. )
  | Op.Max_r -> Float.max
  | Op.Min_r -> Float.min

(* Evaluate one node into a fresh tensor, every element in ascending
   linear order.  [Parameter] returns the bound tensor and [Reshape] a
   view of its operand's data. *)
let eval_node _g (values : Tensor.t array) ~params (nd : Graph.node) :
    Tensor.t =
  let v id = values.(id) in
  let out_shape = nd.shape in
  let target () = Tensor.zeros out_shape in
  (* fill [target] element by element in ascending linear order *)
  let tabulate f =
    let out = target () in
    for i = 0 to Tensor.num_elements out - 1 do
      Tensor.set_linear out i (f i)
    done;
    out
  in
  match nd.op with
  | Op.Parameter { name } -> (
      match List.assoc_opt name params with
      | None -> raise (Missing_parameter name)
      | Some t ->
          if not (Shape.equal (Tensor.shape t) out_shape) then
            Tensor.mismatch "parameter %s: bound shape %s, declared %s" name
              (Shape.to_string (Tensor.shape t))
              (Shape.to_string out_shape);
          t)
  | Op.Constant { value } -> tabulate (fun _ -> value)
  | Op.Iota { axis } ->
      tabulate (fun i ->
          float_of_int (Shape.multi_index out_shape i).(axis))
  | Op.Unary { kind; input } ->
      Tensor.map_into (unary_fn kind) (v input) ~dst:(target ())
  | Op.Binary { kind; lhs; rhs } ->
      Tensor.map2_into (binary_fn kind) (v lhs) (v rhs) ~dst:(target ())
  | Op.Broadcast { input; dims } ->
      (* Precompute the output-linear -> input-linear stride table once:
         output axis [dims.(a)] advances the input by the input's stride
         of axis [a], replicated axes advance it by 0.  The per-element
         work is then one div/mod walk over the output strides instead of
         materializing a multi-index and re-deriving strides per element. *)
      let in_t = v input in
      let rank = Shape.rank out_shape in
      let out_strides = Shape.strides out_shape in
      let in_strides = Shape.strides (Tensor.shape in_t) in
      let bstride = Array.make rank 0 in
      Array.iteri (fun a d -> bstride.(d) <- in_strides.(a)) dims;
      tabulate (fun i ->
          let rem = ref i and src = ref 0 in
          for d = 0 to rank - 1 do
            src := !src + (!rem / out_strides.(d) * bstride.(d));
            rem := !rem mod out_strides.(d)
          done;
          Tensor.get_linear in_t !src)
  | Op.Reduce { input; kind; axes } ->
      let in_t = v input in
      let in_shape = Tensor.shape in_t in
      let out = target () in
      for j = 0 to Tensor.num_elements out - 1 do
        Tensor.set_linear out j (reduce_init kind)
      done;
      let step = reduce_step kind in
      let n_in = Tensor.num_elements in_t in
      for i = 0 to n_in - 1 do
        let idx = Shape.multi_index in_shape i in
        let out_idx = Array.of_list (
          List.filteri (fun ax _ -> not (Array.exists (fun a -> a = ax) axes))
            (Array.to_list idx))
        in
        let j = if Shape.rank out_shape = 0 then 0
                else Shape.linear_index out_shape out_idx in
        Tensor.set_linear out j (step (Tensor.get_linear out j) (Tensor.get_linear in_t i))
      done;
      if kind = Op.Mean then begin
        let n = float_of_int (Shape.elements_along in_shape axes) in
        for j = 0 to Tensor.num_elements out - 1 do
          Tensor.set_linear out j (Tensor.get_linear out j /. n)
        done
      end;
      out
  | Op.Reshape { input } -> Tensor.reshape (v input) out_shape
  | Op.Transpose { input; perm } ->
      let in_t = v input in
      let in_shape = Tensor.shape in_t in
      tabulate (fun i ->
          let out_idx = Shape.multi_index out_shape i in
          let in_idx = Array.make (Shape.rank in_shape) 0 in
          Array.iteri (fun oi p -> in_idx.(p) <- out_idx.(oi)) perm;
          Tensor.get in_t in_idx)
  | Op.Select { pred; on_true; on_false } ->
      let p = v pred and t = v on_true and f = v on_false in
      tabulate (fun i ->
          if Tensor.get_linear p i <> 0. then Tensor.get_linear t i
          else Tensor.get_linear f i)
  | Op.Concat { inputs; axis } ->
      let tensors = List.map v inputs in
      tabulate (fun i ->
          let idx = Shape.multi_index out_shape i in
          let rec pick offset = function
            | [] -> assert false
            | t :: rest ->
                let d = Shape.dim (Tensor.shape t) axis in
                if idx.(axis) < offset + d then begin
                  let local = Array.copy idx in
                  local.(axis) <- idx.(axis) - offset;
                  Tensor.get t local
                end
                else pick (offset + d) rest
          in
          pick 0 tensors)
  | Op.Slice { input; starts; stops = _ } ->
      let in_t = v input in
      tabulate (fun i ->
          let idx = Shape.multi_index out_shape i in
          let src = Array.mapi (fun d x -> x + starts.(d)) idx in
          Tensor.get in_t src)
  | Op.Pad { input; low; high = _ } ->
      let in_t = v input in
      let in_shape = Tensor.shape in_t in
      tabulate (fun i ->
          let idx = Shape.multi_index out_shape i in
          let src = Array.mapi (fun d x -> x - low.(d)) idx in
          let inside =
            Array.for_all2 (fun x bound -> x >= 0 && x < bound) src
              (in_shape :> int array)
          in
          if inside then Tensor.get in_t src else 0.)
  | Op.Gather { params; indices } ->
      let p = v params and idx = v indices in
      let ps = Tensor.shape p in
      let n = Shape.dim ps 0 in
      let row = Shape.num_elements ps / n in
      let clamp i = Stdlib.max 0 (Stdlib.min (n - 1) i) in
      tabulate (fun i ->
          let r = i / row and off = i mod row in
          let src = clamp (int_of_float (Tensor.get_linear idx r)) in
          Tensor.get_linear p ((src * row) + off))
  | Op.Scatter_add { indices; updates; rows } ->
      let idx = v indices and u = v updates in
      let us = Tensor.shape u in
      let k = Shape.dim us 0 in
      let row = Shape.num_elements us / k in
      let clamp i = Stdlib.max 0 (Stdlib.min (rows - 1) i) in
      let out = target () in
      for j = 0 to Tensor.num_elements out - 1 do
        Tensor.set_linear out j 0.
      done;
      for r = 0 to k - 1 do
        let dst = clamp (int_of_float (Tensor.get_linear idx r)) in
        for off = 0 to row - 1 do
          let j = (dst * row) + off in
          Tensor.set_linear out j
            (Tensor.get_linear out j +. Tensor.get_linear u ((r * row) + off))
        done
      done;
      out
  | Op.Max_pool { input; window; stride } ->
      let x = v input in
      tabulate (fun i ->
          let idx = Shape.multi_index out_shape i in
          let nb = idx.(0) and oy = idx.(1) and ox = idx.(2) and cc = idx.(3) in
          let best = ref Float.neg_infinity in
          for wy = 0 to window - 1 do
            for wx = 0 to window - 1 do
              let v =
                Tensor.get x
                  [| nb; (oy * stride) + wy; (ox * stride) + wx; cc |]
              in
              if v > !best then best := v
            done
          done;
          !best)
  | Op.Dot { lhs; rhs } ->
      let a = v lhs and b = v rhs in
      let ashape = Tensor.shape a in
      let r = Shape.rank ashape in
      let m = ashape.(r - 2) and k = ashape.(r - 1) in
      let n = (Tensor.shape b).(r - 1) in
      let batch = Shape.num_elements ashape / (m * k) in
      let out = target () in
      for bt = 0 to batch - 1 do
        for i = 0 to m - 1 do
          for j = 0 to n - 1 do
            let acc = ref 0. in
            for kk = 0 to k - 1 do
              acc :=
                !acc
                +. Tensor.get_linear a ((bt * m * k) + (i * k) + kk)
                   *. Tensor.get_linear b ((bt * k * n) + (kk * n) + j)
            done;
            Tensor.set_linear out ((bt * m * n) + (i * n) + j) !acc
          done
        done
      done;
      out
  | Op.Conv2d { input; filter; stride } ->
      let x = v input and w = v filter in
      let xs = Tensor.shape x and ws = Tensor.shape w in
      let h = xs.(1) and wdt = xs.(2) and c = xs.(3) in
      let kh = ws.(0) and kw = ws.(1) in
      let oh = out_shape.(1) and ow = out_shape.(2) in
      ignore wdt;
      tabulate (fun i ->
          let idx = Shape.multi_index out_shape i in
          let nb = idx.(0) and oy = idx.(1) and ox = idx.(2) and oz = idx.(3) in
          let acc = ref 0. in
          for ky = 0 to kh - 1 do
            for kx = 0 to kw - 1 do
              for ci = 0 to c - 1 do
                let iy = (oy * stride) + ky and ix = (ox * stride) + kx in
                acc :=
                  !acc
                  +. Tensor.get x [| nb; iy; ix; ci |]
                     *. Tensor.get w [| ky; kx; ci; oz |]
              done
            done
          done;
          ignore (h, oh, ow);
          !acc)

let eval_all g ~params =
  let values = Array.make (Graph.num_nodes g) (Tensor.scalar 0.) in
  Graph.iter_nodes
    (fun nd -> values.(nd.id) <- eval_node g values ~params nd)
    g;
  values

let run g ~params =
  let values = eval_all g ~params in
  List.map (fun id -> values.(id)) (Graph.outputs g)
