(* Unit tests for the IR: shapes, builder inference, graph validation,
   pattern analysis, autodiff vs finite differences. *)

open Astitch_ir

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_raises_any name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected an exception" name
  | exception _ -> ()

(* --- Shape -------------------------------------------------------------- *)

let test_shape_basics () =
  let s = Shape.of_list [ 2; 3; 4 ] in
  check_int "rank" 3 (Shape.rank s);
  check_int "elements" 24 (Shape.num_elements s);
  Alcotest.(check (list int)) "strides" [ 12; 4; 1 ] (Array.to_list (Shape.strides s));
  check_int "linear" 23 (Shape.linear_index s [| 1; 2; 3 |]);
  Alcotest.(check (list int)) "multi" [ 1; 2; 3 ]
    (Array.to_list (Shape.multi_index s 23));
  check "equal" true (Shape.equal s (Shape.of_list [ 2; 3; 4 ]));
  check "not equal" false (Shape.equal s (Shape.of_list [ 2; 3 ]))

let test_shape_axes () =
  let s = Shape.of_list [ 2; 3; 4 ] in
  Alcotest.(check (list int)) "remove middle" [ 2; 4 ]
    (Array.to_list (Shape.remove_axes s [| 1 |]));
  check_int "along" 12 (Shape.elements_along s [| 1; 2 |]);
  check "suffix yes" true (Shape.axes_are_suffix s [| 2 |]);
  check "suffix yes 2" true (Shape.axes_are_suffix s [| 1; 2 |]);
  check "suffix no" false (Shape.axes_are_suffix s [| 0 |]);
  check "suffix no 2" false (Shape.axes_are_suffix s [| 0; 2 |])

let test_shape_invalid () =
  check_raises_any "zero dim" (fun () -> Shape.of_list [ 2; 0 ]);
  check_raises_any "negative dim" (fun () -> Shape.of_list [ -1 ]);
  check_raises_any "oob index" (fun () ->
      Shape.linear_index (Shape.of_list [ 2 ]) [| 5 |])

(* --- Builder / shape inference ------------------------------------------ *)

let test_builder_elementwise () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 2; 3 ] in
  let y = Builder.parameter b "y" [ 2; 3 ] in
  let z = Builder.add b x y in
  Alcotest.(check string) "shape" "<2,3>" (Shape.to_string (Builder.shape_of b z));
  let p = Builder.lt b x y in
  check "pred dtype" true (Dtype.equal (Builder.dtype_of b p) Dtype.Pred)

let test_builder_mismatch () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 2; 3 ] in
  let y = Builder.parameter b "y" [ 3; 2 ] in
  check_raises_any "binary shape mismatch" (fun () -> Builder.add b x y)

let test_builder_broadcast () =
  let b = Builder.create () in
  let v = Builder.parameter b "v" [ 4 ] in
  let m = Builder.broadcast b v ~dims:[ 1 ] [ 3; 4 ] in
  Alcotest.(check string) "bshape" "<3,4>" (Shape.to_string (Builder.shape_of b m));
  check_raises_any "wrong dims" (fun () ->
      Builder.broadcast b v ~dims:[ 0 ] [ 3; 4 ]);
  check_raises_any "decreasing dims" (fun () ->
      let u = Builder.parameter b "u" [ 3; 4 ] in
      Builder.broadcast b u ~dims:[ 1; 0 ] [ 4; 3 ])

let test_builder_reduce_dot () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 2; 5 ] in
  let r = Builder.reduce_sum b ~axes:[ 1 ] x in
  Alcotest.(check string) "reduced" "<2>" (Shape.to_string (Builder.shape_of b r));
  let w = Builder.parameter b "w" [ 5; 7 ] in
  let d = Builder.dot b x w in
  Alcotest.(check string) "dot" "<2,7>" (Shape.to_string (Builder.shape_of b d));
  check_raises_any "dot mismatch" (fun () -> Builder.dot b x x);
  check_raises_any "dup axes" (fun () -> Builder.reduce_sum b ~axes:[ 1; 1 ] x)

let test_graph_validate () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 2; 2 ] in
  let y = Builder.tanh b x in
  let g = Builder.finish b ~outputs:[ y ] in
  Graph.validate g;
  check_int "nodes" 2 (Graph.num_nodes g);
  Alcotest.(check (list int)) "consumers of x" [ 1 ] (Graph.consumers g x);
  check "x memory intensive" true
    (Op.classify (Graph.op g x) = Op.Memory_intensive)

let test_graph_stats () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 2; 4 ] in
  let s = Builder.softmax b x in
  let w = Builder.parameter b "w" [ 4; 4 ] in
  let d = Builder.dot b s w in
  let g = Builder.finish b ~outputs:[ d ] in
  let st = Graph.stats g in
  check_int "compute intensive" 1 st.compute_intensive_ops;
  check_int "reduces" 2 st.reduce_ops;
  check_int "broadcasts" 2 st.broadcast_ops;
  check "total" true (st.total_ops = Graph.num_nodes g)

(* --- Pattern analysis ---------------------------------------------------- *)

let fig5_graph () =
  (* power<2> - broadcast<2,128> - add<2,128>: the TVM redundancy example *)
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 2 ] in
  let e = Builder.parameter b "e" [ 2 ] in
  let p = Builder.pow b x e in
  let bc = Builder.broadcast b p ~dims:[ 0 ] [ 2; 128 ] in
  let other = Builder.parameter b "other" [ 2; 128 ] in
  let a = Builder.add b bc other in
  (Builder.finish b ~outputs:[ a ], p, bc, a)

let test_edge_deps () =
  let g, p, bc, a = fig5_graph () in
  check "pow->bc one-to-many" true
    (Pattern.edge_dep g ~producer:p ~consumer:bc = Pattern.One_to_many);
  check "bc->add one-to-one" true
    (Pattern.edge_dep g ~producer:bc ~consumer:a = Pattern.One_to_one);
  check_int "fanout" 128 (Pattern.fanout g ~producer:p ~consumer:bc);
  check "pattern2" true (Pattern.is_pattern2_edge g ~producer:p ~consumer:bc);
  check "dominant candidate" true (Pattern.is_dominant_candidate g p)

let test_reduce_patterns () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 6; 8 ] in
  let row = Builder.reduce_sum b ~axes:[ 1 ] x in
  let col = Builder.reduce_sum b ~axes:[ 0 ] x in
  let y = Builder.add b row (Builder.reduce_max b ~axes:[ 1 ] x) in
  let g = Builder.finish b ~outputs:[ y; col ] in
  check "row layout" true (Pattern.reduce_layout g row = Pattern.Row_reduce);
  check "col layout" true (Pattern.reduce_layout g col = Pattern.Column_reduce);
  Alcotest.(check (pair int int)) "row geometry" (6, 8) (Pattern.reduce_geometry g row);
  Alcotest.(check (pair int int)) "col geometry" (8, 6) (Pattern.reduce_geometry g col);
  check "pattern1" true (Pattern.is_pattern1_edge g ~producer:row ~consumer:y);
  check "reduce is candidate" true (Pattern.is_dominant_candidate g row)

(* --- Autodiff ------------------------------------------------------------ *)

open Astitch_tensor

(* Finite-difference check of d(sum(f(x)))/dx for a builder function. *)
let finite_diff_check ?(eps = 1e-4) ?(tol = 2e-2) name build dims =
  let make () =
    let b = Builder.create () in
    let x = Builder.parameter b "x" dims in
    let y = build b x in
    (b, x, y)
  in
  let b, x, y = make () in
  let grads = Autodiff.gradients b ~output:y ~wrt:[ x ] in
  let gx = match grads with [ g ] -> g | _ -> assert false in
  let g = Builder.finish b ~outputs:[ y; gx ] in
  let x0 = Tensor.random ~seed:7 (Shape.of_list dims) in
  (* keep values in a numerically friendly band *)
  let x0 = Tensor.map (fun v -> (0.4 *. v) +. 1.2) x0 in
  let outputs = Interp.run g ~params:[ ("x", x0) ] in
  let grad = match outputs with [ _; gt ] -> gt | _ -> assert false in
  let loss_at xt =
    let outs = Interp.run g ~params:[ ("x", xt) ] in
    match outs with
    | yv :: _ -> Array.fold_left ( +. ) 0. (Tensor.data yv)
    | [] -> assert false
  in
  let n = Tensor.num_elements x0 in
  for i = 0 to Stdlib.min (n - 1) 7 do
    let bump delta =
      let d = Tensor.create (Tensor.shape x0) (Array.copy (Tensor.data x0)) in
      Tensor.set_linear d i (Tensor.get_linear d i +. delta);
      d
    in
    let numeric = (loss_at (bump eps) -. loss_at (bump (-.eps))) /. (2. *. eps) in
    let analytic = Tensor.get_linear grad i in
    let scale = Float.max 1. (Float.abs numeric) in
    if Float.abs (numeric -. analytic) > tol *. scale then
      Alcotest.failf "%s grad[%d]: analytic %g vs numeric %g" name i analytic
        numeric
  done

let test_autodiff_elementwise () =
  finite_diff_check "tanh" (fun b x -> Builder.reduce_sum b ~axes:[ 0; 1 ] (Builder.tanh b x)) [ 2; 3 ];
  finite_diff_check "sigmoid*x"
    (fun b x ->
      Builder.reduce_sum b ~axes:[ 0; 1 ] (Builder.mul b x (Builder.sigmoid b x)))
    [ 2; 3 ];
  finite_diff_check "exp-log"
    (fun b x ->
      Builder.reduce_sum b ~axes:[ 0; 1 ] (Builder.log b (Builder.exp b x)))
    [ 2; 2 ]

let test_autodiff_softmax () =
  finite_diff_check "softmax"
    (fun b x ->
      let s = Builder.softmax b x in
      Builder.reduce_sum b ~axes:[ 0; 1 ] (Builder.mul b s s))
    [ 3; 4 ]

let test_autodiff_layernorm () =
  finite_diff_check "layer_norm"
    (fun b x ->
      let gamma = Builder.constant b 1.5 ~dims:[ 4 ] in
      let beta = Builder.constant b 0.1 ~dims:[ 4 ] in
      let ln = Builder.layer_norm b x ~gamma ~beta in
      Builder.reduce_sum b ~axes:[ 0; 1 ] (Builder.mul b ln ln))
    [ 3; 4 ]

let test_autodiff_matmul () =
  finite_diff_check "dot"
    (fun b x ->
      let w = Builder.constant b 0.5 ~dims:[ 3; 2 ] in
      let y = Builder.dot b x w in
      Builder.reduce_sum b ~axes:[ 0; 1 ] (Builder.mul b y y))
    [ 2; 3 ]

let test_autodiff_broadcast_reduce () =
  finite_diff_check "broadcast+reduce"
    (fun b x ->
      let r = Builder.reduce_mean b ~axes:[ 1 ] x in
      let bc = Builder.broadcast b r ~dims:[ 0 ] [ 2; 3 ] in
      Builder.reduce_sum b ~axes:[ 0; 1 ] (Builder.mul b bc x))
    [ 2; 3 ]

(* --- Shape-inference error paths, per op ------------------------------- *)

let test_inference_errors () =
  let b () = Builder.create () in
  (* transpose *)
  check_raises_any "perm rank" (fun () ->
      let b = b () in
      Builder.transpose b (Builder.parameter b "x" [ 2; 3 ]) ~perm:[ 0 ]);
  check_raises_any "perm dup" (fun () ->
      let b = b () in
      Builder.transpose b (Builder.parameter b "x" [ 2; 3 ]) ~perm:[ 0; 0 ]);
  (* select *)
  check_raises_any "select pred dtype" (fun () ->
      let b = b () in
      let x = Builder.parameter b "x" [ 2 ] in
      Builder.select b ~pred:x ~on_true:x ~on_false:x);
  check_raises_any "select shapes" (fun () ->
      let b = b () in
      let x = Builder.parameter b "x" [ 2 ] in
      let y = Builder.parameter b "y" [ 3 ] in
      let p = Builder.gt b x x in
      Builder.select b ~pred:p ~on_true:x ~on_false:y);
  (* concat *)
  check_raises_any "concat empty" (fun () ->
      let b = b () in
      Builder.concat b ~axis:0 []);
  check_raises_any "concat dim mismatch" (fun () ->
      let b = b () in
      let x = Builder.parameter b "x" [ 2; 3 ] in
      let y = Builder.parameter b "y" [ 2; 4 ] in
      Builder.concat b ~axis:0 [ x; y ]);
  (* slice *)
  check_raises_any "slice bounds" (fun () ->
      let b = b () in
      Builder.slice b (Builder.parameter b "x" [ 4 ]) ~starts:[ 2 ] ~stops:[ 5 ]);
  check_raises_any "slice empty" (fun () ->
      let b = b () in
      Builder.slice b (Builder.parameter b "x" [ 4 ]) ~starts:[ 2 ] ~stops:[ 2 ]);
  (* pad *)
  check_raises_any "pad negative" (fun () ->
      let b = b () in
      Builder.pad b (Builder.parameter b "x" [ 4 ]) ~low:[ -1 ] ~high:[ 0 ]);
  (* reshape *)
  check_raises_any "reshape count" (fun () ->
      let b = b () in
      Builder.reshape b (Builder.parameter b "x" [ 4 ]) [ 5 ]);
  (* conv *)
  check_raises_any "conv channels" (fun () ->
      let b = b () in
      let img = Builder.parameter b "i" [ 1; 8; 8; 3 ] in
      let f = Builder.parameter b "f" [ 3; 3; 4; 8 ] in
      Builder.conv2d b ~stride:1 img f);
  check_raises_any "conv kernel too big" (fun () ->
      let b = b () in
      let img = Builder.parameter b "i" [ 1; 2; 2; 1 ] in
      let f = Builder.parameter b "f" [ 3; 3; 1; 1 ] in
      Builder.conv2d b ~stride:1 img f);
  (* iota *)
  check_raises_any "iota axis" (fun () ->
      let b = b () in
      Builder.iota b ~axis:2 [ 2; 3 ]);
  (* dot batch mismatch *)
  check_raises_any "dot batch" (fun () ->
      let b = b () in
      let x = Builder.parameter b "x" [ 2; 3; 4 ] in
      let y = Builder.parameter b "y" [ 5; 4; 3 ] in
      Builder.dot b x y)

let test_op_tables () =
  (* classification *)
  check "dot compute" true
    (Op.classify (Op.Dot { lhs = 0; rhs = 1 }) = Op.Compute_intensive);
  check "reduce memory" true
    (Op.classify (Op.Reduce { input = 0; kind = Op.Sum; axes = [| 0 |] })
    = Op.Memory_intensive);
  (* the paper's light/heavy split *)
  List.iter
    (fun k -> check "light" true (Op.unary_weight k = Op.Light))
    [ Op.Neg; Op.Abs; Op.Sign; Op.Relu; Op.Rcp ];
  List.iter
    (fun k -> check "heavy" true (Op.unary_weight k = Op.Heavy))
    [ Op.Exp; Op.Log; Op.Tanh; Op.Sigmoid; Op.Sqrt; Op.Rsqrt; Op.Erf ];
  check "pow heavy" true (Op.binary_weight Op.Pow = Op.Heavy);
  check "add light" true (Op.binary_weight Op.Add = Op.Light);
  (* transcendentals cost more instructions than arithmetic *)
  let insts k = Op.fp32_insts_per_element (Op.Unary { kind = k; input = 0 }) in
  check "tanh > exp > neg" true (insts Op.Tanh > insts Op.Exp && insts Op.Exp > insts Op.Neg);
  check "structural ops free" true
    (Op.fp32_insts_per_element (Op.Broadcast { input = 0; dims = [| 0 |] }) = 0)

let test_map_operands () =
  let op = Op.Select { pred = 1; on_true = 2; on_false = 3 } in
  let mapped = Op.map_operands (fun i -> i * 10) op in
  Alcotest.(check (list int)) "remapped" [ 10; 20; 30 ] (Op.operands mapped);
  let c = Op.Concat { inputs = [ 4; 5 ]; axis = 0 } in
  Alcotest.(check (list int)) "concat remap" [ 40; 50 ]
    (Op.operands (Op.map_operands (fun i -> i * 10) c))

let test_liveness () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 2 ] in
  let live = Builder.tanh b x in
  let dead = Builder.sigmoid b x in
  let deader = Builder.neg b dead in
  let g = Builder.finish b ~outputs:[ live ] in
  check "x live" true (Graph.is_live g x);
  check "tanh live" true (Graph.is_live g live);
  check "sigmoid dead" false (Graph.is_live g dead);
  check "neg dead" false (Graph.is_live g deader)

(* --- More autodiff rules ------------------------------------------------- *)

let test_autodiff_minmax_select () =
  finite_diff_check "max"
    (fun b x ->
      let y = Builder.constant b 1.3 ~dims:[ 2; 3 ] in
      Builder.reduce_sum b ~axes:[ 0; 1 ] (Builder.max b x y))
    [ 2; 3 ];
  finite_diff_check "select"
    (fun b x ->
      let zero = Builder.constant b 1.0 ~dims:[ 2; 3 ] in
      let p = Builder.gt b x zero in
      Builder.reduce_sum b ~axes:[ 0; 1 ]
        (Builder.select b ~pred:p ~on_true:(Builder.mul b x x) ~on_false:x))
    [ 2; 3 ]

let test_autodiff_reduce_max () =
  finite_diff_check "reduce max"
    (fun b x ->
      let m = Builder.reduce_max b ~axes:[ 1 ] x in
      Builder.reduce_sum b ~axes:[ 0 ] (Builder.mul b m m))
    [ 3; 4 ]

let test_autodiff_layout_ops () =
  finite_diff_check "transpose"
    (fun b x ->
      let t = Builder.transpose b x ~perm:[ 1; 0 ] in
      Builder.reduce_sum b ~axes:[ 0; 1 ] (Builder.mul b t t))
    [ 2; 3 ];
  finite_diff_check "slice+pad"
    (fun b x ->
      let s = Builder.slice b x ~starts:[ 0; 1 ] ~stops:[ 2; 3 ] in
      let p = Builder.pad b s ~low:[ 0; 0 ] ~high:[ 0; 1 ] in
      Builder.reduce_sum b ~axes:[ 0; 1 ] (Builder.mul b p p))
    [ 2; 3 ];
  finite_diff_check "concat"
    (fun b x ->
      let c = Builder.concat b ~axis:1 [ x; x ] in
      Builder.reduce_sum b ~axes:[ 0; 1 ] (Builder.mul b c c))
    [ 2; 3 ];
  finite_diff_check "reshape"
    (fun b x ->
      let r = Builder.reshape b x [ 6 ] in
      Builder.reduce_sum b ~axes:[ 0 ] (Builder.mul b r r))
    [ 2; 3 ]

let test_autodiff_heavy_ops () =
  finite_diff_check "erf"
    (fun b x -> Builder.reduce_sum b ~axes:[ 0; 1 ] (Builder.erf b x))
    [ 2; 2 ];
  finite_diff_check "rsqrt"
    (fun b x -> Builder.reduce_sum b ~axes:[ 0; 1 ] (Builder.rsqrt b x))
    [ 2; 2 ];
  finite_diff_check "sqrt"
    (fun b x -> Builder.reduce_sum b ~axes:[ 0; 1 ] (Builder.sqrt b x))
    [ 2; 2 ];
  finite_diff_check "pow"
    (fun b x ->
      let e = Builder.constant b 2.5 ~dims:[ 2; 2 ] in
      Builder.reduce_sum b ~axes:[ 0; 1 ] (Builder.pow b x e))
    [ 2; 2 ];
  finite_diff_check "div"
    (fun b x ->
      let d = Builder.constant b 1.7 ~dims:[ 2; 2 ] in
      Builder.reduce_sum b ~axes:[ 0; 1 ] (Builder.div b d x))
    [ 2; 2 ]

let test_autodiff_unsupported_conv () =
  let b = Builder.create () in
  let img = Builder.parameter b "i" [ 1; 4; 4; 1 ] in
  let f = Builder.parameter b "f" [ 2; 2; 1; 1 ] in
  let c = Builder.conv2d b ~stride:1 img f in
  let loss = Builder.reduce_sum b ~axes:[ 0; 1; 2; 3 ] c in
  match Autodiff.gradients b ~output:loss ~wrt:[ f ] with
  | _ -> Alcotest.fail "conv gradient should be unsupported"
  | exception Autodiff.Unsupported _ -> ()

let test_autodiff_unused_param_zero_grad () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 2 ] in
  let unused = Builder.parameter b "unused" [ 3 ] in
  let loss = Builder.reduce_sum b ~axes:[ 0 ] x in
  match Autodiff.gradients b ~output:loss ~wrt:[ x; unused ] with
  | [ _; gz ] ->
      let g = Builder.finish b ~outputs:[ gz ] in
      let out =
        Astitch_tensor.Interp.run g
          ~params:
            [
              ("x", Astitch_tensor.Tensor.ones (Shape.of_list [ 2 ]));
              ("unused", Astitch_tensor.Tensor.ones (Shape.of_list [ 3 ]));
            ]
      in
      check "zero grad" true
        (Astitch_tensor.Tensor.equal_approx (List.hd out)
           (Astitch_tensor.Tensor.zeros (Shape.of_list [ 3 ])))
  | _ -> Alcotest.fail "expected two gradients"

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let test_dot_export () =
  let g, _, _, _ = fig5_graph () in
  let dot = Dot.to_string g in
  check "has digraph" true (String.length dot > 7 && String.sub dot 0 7 = "digraph");
  check "mentions power" true (contains dot "power");
  check "mentions broadcast" true (contains dot "broadcast")

let () =
  Alcotest.run "ir"
    [
      ( "shape",
        [
          Alcotest.test_case "basics" `Quick test_shape_basics;
          Alcotest.test_case "axes" `Quick test_shape_axes;
          Alcotest.test_case "invalid" `Quick test_shape_invalid;
        ] );
      ( "builder",
        [
          Alcotest.test_case "elementwise" `Quick test_builder_elementwise;
          Alcotest.test_case "mismatch" `Quick test_builder_mismatch;
          Alcotest.test_case "broadcast" `Quick test_builder_broadcast;
          Alcotest.test_case "reduce+dot" `Quick test_builder_reduce_dot;
          Alcotest.test_case "validate" `Quick test_graph_validate;
          Alcotest.test_case "stats" `Quick test_graph_stats;
        ] );
      ( "pattern",
        [
          Alcotest.test_case "edge deps" `Quick test_edge_deps;
          Alcotest.test_case "reduce patterns" `Quick test_reduce_patterns;
        ] );
      ("dot", [ Alcotest.test_case "export" `Quick test_dot_export ]);
      ( "inference errors",
        [
          Alcotest.test_case "per-op errors" `Quick test_inference_errors;
          Alcotest.test_case "op tables" `Quick test_op_tables;
          Alcotest.test_case "map_operands" `Quick test_map_operands;
          Alcotest.test_case "liveness" `Quick test_liveness;
        ] );
      ( "autodiff extended",
        [
          Alcotest.test_case "min/max/select" `Quick test_autodiff_minmax_select;
          Alcotest.test_case "reduce max" `Quick test_autodiff_reduce_max;
          Alcotest.test_case "layout ops" `Quick test_autodiff_layout_ops;
          Alcotest.test_case "heavy ops" `Quick test_autodiff_heavy_ops;
          Alcotest.test_case "conv unsupported" `Quick test_autodiff_unsupported_conv;
          Alcotest.test_case "unused param" `Quick test_autodiff_unused_param_zero_grad;
        ] );
      ( "autodiff",
        [
          Alcotest.test_case "elementwise" `Quick test_autodiff_elementwise;
          Alcotest.test_case "softmax" `Quick test_autodiff_softmax;
          Alcotest.test_case "layer_norm" `Quick test_autodiff_layernorm;
          Alcotest.test_case "matmul" `Quick test_autodiff_matmul;
          Alcotest.test_case "broadcast+reduce" `Quick
            test_autodiff_broadcast_reduce;
        ] );
    ]
