(* Tensor arithmetic and reference-interpreter semantics. *)

open Astitch_ir
open Astitch_tensor

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let test_tensor_basics () =
  let t = Tensor.of_list [ 2; 3 ] [ 1.; 2.; 3.; 4.; 5.; 6. ] in
  checkf "get" 6. (Tensor.get t [| 1; 2 |]);
  checkf "get_linear" 4. (Tensor.get_linear t 3);
  let sq = Tensor.map (fun x -> x *. x) t in
  checkf "map" 36. (Tensor.get sq [| 1; 2 |]);
  let s = Tensor.map2 ( +. ) t t in
  checkf "map2" 12. (Tensor.get s [| 1; 2 |]);
  check "equal_approx self" true (Tensor.equal_approx t t);
  check "inf equal" true
    (Tensor.equal_approx (Tensor.scalar infinity) (Tensor.scalar infinity));
  check "nan equal" true
    (Tensor.equal_approx (Tensor.scalar nan) (Tensor.scalar nan));
  check "not equal" false (Tensor.equal_approx t sq);
  (* bit equality tells apart what a zero tolerance lets through *)
  let zero = Tensor.scalar 0. and neg_zero = Tensor.scalar (-0.) in
  check "signed zeros within eps 0" true
    (Tensor.equal_approx ~eps:0. zero neg_zero);
  check "signed zeros differ in bits" false (Tensor.equal_bits zero neg_zero);
  let other_nan =
    Tensor.scalar (Int64.float_of_bits 0x7ff8_dead_beef_0001L)
  in
  check "nan payloads differ in bits" false
    (Tensor.equal_bits (Tensor.scalar nan) other_nan);
  check "equal_bits self" true (Tensor.equal_bits t (Tensor.copy t))

let test_random_deterministic () =
  let a = Tensor.random ~seed:3 (Shape.of_list [ 10 ]) in
  let b = Tensor.random ~seed:3 (Shape.of_list [ 10 ]) in
  check "same seed same data" true (Tensor.equal_approx a b);
  let c = Tensor.random ~seed:4 (Shape.of_list [ 10 ]) in
  check "diff seed diff data" false (Tensor.equal_approx a c);
  check "bounded" true
    (Array.for_all (fun x -> x >= -1. && x <= 1.) (Tensor.data a))

let run1 build params =
  let b = Builder.create () in
  let out = build b in
  let g = Builder.finish b ~outputs:[ out ] in
  match Interp.run g ~params with [ t ] -> t | _ -> assert false

let test_interp_elementwise () =
  let t =
    run1
      (fun b ->
        let x = Builder.parameter b "x" [ 4 ] in
        Builder.relu b (Builder.neg b x))
      [ ("x", Tensor.of_list [ 4 ] [ -2.; -0.5; 0.; 3. ]) ]
  in
  check "relu(neg)" true
    (Tensor.equal_approx t (Tensor.of_list [ 4 ] [ 2.; 0.5; 0.; 0. ]))

let test_interp_softmax () =
  let t =
    run1
      (fun b ->
        let x = Builder.parameter b "x" [ 1; 3 ] in
        Builder.softmax b x)
      [ ("x", Tensor.of_list [ 1; 3 ] [ 1.; 2.; 3. ]) ]
  in
  let z = exp 1. +. exp 2. +. exp 3. in
  let expected = Tensor.of_list [ 1; 3 ] [ exp 1. /. z; exp 2. /. z; exp 3. /. z ] in
  check "softmax" true (Tensor.equal_approx t expected);
  (* rows sum to one *)
  let sum = Array.fold_left ( +. ) 0. (Tensor.data t) in
  checkf "sums to one" 1. (Float.round (sum *. 1e9) /. 1e9)

let test_interp_reduce () =
  let x = Tensor.of_list [ 2; 3 ] [ 1.; 2.; 3.; 4.; 5.; 6. ] in
  let row =
    run1
      (fun b ->
        Builder.reduce_sum b ~axes:[ 1 ] (Builder.parameter b "x" [ 2; 3 ]))
      [ ("x", x) ]
  in
  check "row sums" true (Tensor.equal_approx row (Tensor.of_list [ 2 ] [ 6.; 15. ]));
  let col =
    run1
      (fun b ->
        Builder.reduce_max b ~axes:[ 0 ] (Builder.parameter b "x" [ 2; 3 ]))
      [ ("x", x) ]
  in
  check "col maxes" true
    (Tensor.equal_approx col (Tensor.of_list [ 3 ] [ 4.; 5.; 6. ]));
  let mean =
    run1
      (fun b ->
        Builder.reduce_mean b ~axes:[ 0; 1 ] (Builder.parameter b "x" [ 2; 3 ]))
      [ ("x", x) ]
  in
  check "mean" true (Tensor.equal_approx mean (Tensor.scalar 3.5))

let test_interp_broadcast () =
  let v = Tensor.of_list [ 2 ] [ 10.; 20. ] in
  let t =
    run1
      (fun b ->
        Builder.broadcast b (Builder.parameter b "v" [ 2 ]) ~dims:[ 0 ] [ 2; 3 ])
      [ ("v", v) ]
  in
  check "broadcast rows" true
    (Tensor.equal_approx t (Tensor.of_list [ 2; 3 ] [ 10.; 10.; 10.; 20.; 20.; 20. ]));
  let t2 =
    run1
      (fun b ->
        Builder.broadcast b (Builder.parameter b "v" [ 2 ]) ~dims:[ 1 ] [ 3; 2 ])
      [ ("v", v) ]
  in
  check "broadcast cols" true
    (Tensor.equal_approx t2 (Tensor.of_list [ 3; 2 ] [ 10.; 20.; 10.; 20.; 10.; 20. ]))

let test_interp_layout_ops () =
  let x = Tensor.of_list [ 2; 3 ] [ 1.; 2.; 3.; 4.; 5.; 6. ] in
  let tr =
    run1
      (fun b ->
        Builder.transpose b (Builder.parameter b "x" [ 2; 3 ]) ~perm:[ 1; 0 ])
      [ ("x", x) ]
  in
  check "transpose" true
    (Tensor.equal_approx tr (Tensor.of_list [ 3; 2 ] [ 1.; 4.; 2.; 5.; 3.; 6. ]));
  let sl =
    run1
      (fun b ->
        Builder.slice b (Builder.parameter b "x" [ 2; 3 ]) ~starts:[ 0; 1 ]
          ~stops:[ 2; 3 ])
      [ ("x", x) ]
  in
  check "slice" true
    (Tensor.equal_approx sl (Tensor.of_list [ 2; 2 ] [ 2.; 3.; 5.; 6. ]));
  let pd =
    run1
      (fun b ->
        Builder.pad b (Builder.parameter b "v" [ 2 ]) ~low:[ 1 ] ~high:[ 1 ])
      [ ("v", Tensor.of_list [ 2 ] [ 7.; 8. ]) ]
  in
  check "pad" true (Tensor.equal_approx pd (Tensor.of_list [ 4 ] [ 0.; 7.; 8.; 0. ]));
  let cc =
    run1
      (fun b ->
        let x1 = Builder.parameter b "a" [ 2 ] in
        let x2 = Builder.parameter b "b" [ 3 ] in
        Builder.concat b ~axis:0 [ x1; x2 ])
      [ ("a", Tensor.of_list [ 2 ] [ 1.; 2. ]); ("b", Tensor.of_list [ 3 ] [ 3.; 4.; 5. ]) ]
  in
  check "concat" true
    (Tensor.equal_approx cc (Tensor.of_list [ 5 ] [ 1.; 2.; 3.; 4.; 5. ]))

let test_interp_dot_conv () =
  let a = Tensor.of_list [ 2; 2 ] [ 1.; 2.; 3.; 4. ] in
  let bm = Tensor.of_list [ 2; 2 ] [ 5.; 6.; 7.; 8. ] in
  let d =
    run1
      (fun b ->
        Builder.dot b (Builder.parameter b "a" [ 2; 2 ]) (Builder.parameter b "b" [ 2; 2 ]))
      [ ("a", a); ("b", bm) ]
  in
  check "matmul" true
    (Tensor.equal_approx d (Tensor.of_list [ 2; 2 ] [ 19.; 22.; 43.; 50. ]));
  (* 2x2 conv over 3x3 image of ones with filter of ones = 4s *)
  let img = Tensor.ones (Shape.of_list [ 1; 3; 3; 1 ]) in
  let filt = Tensor.ones (Shape.of_list [ 2; 2; 1; 1 ]) in
  let c =
    run1
      (fun b ->
        Builder.conv2d b ~stride:1
          (Builder.parameter b "img" [ 1; 3; 3; 1 ])
          (Builder.parameter b "f" [ 2; 2; 1; 1 ]))
      [ ("img", img); ("f", filt) ]
  in
  check "conv" true (Tensor.equal_approx c (Tensor.full (Shape.of_list [ 1; 2; 2; 1 ]) 4.))

let test_interp_select_iota () =
  let t =
    run1
      (fun b ->
        let x = Builder.parameter b "x" [ 4 ] in
        let zero = Builder.broadcast_scalar b (Builder.constant b 0.) [ 4 ] in
        Builder.select b ~pred:(Builder.gt b x zero) ~on_true:x ~on_false:zero)
      [ ("x", Tensor.of_list [ 4 ] [ -1.; 2.; -3.; 4. ]) ]
  in
  check "select = relu" true
    (Tensor.equal_approx t (Tensor.of_list [ 4 ] [ 0.; 2.; 0.; 4. ]));
  let i =
    run1
      (fun b -> Builder.iota b ~axis:1 [ 2; 3 ])
      []
  in
  check "iota" true
    (Tensor.equal_approx i (Tensor.of_list [ 2; 3 ] [ 0.; 1.; 2.; 0.; 1.; 2. ]))

let test_interp_gather_scatter () =
  let table = Tensor.of_list [ 3; 2 ] [ 1.; 2.; 3.; 4.; 5.; 6. ] in
  let g =
    run1
      (fun b ->
        let t = Builder.parameter b "t" [ 3; 2 ] in
        let ids = Builder.parameter b "ids" [ 4 ] in
        Builder.gather b t ids)
      [ ("t", table); ("ids", Tensor.of_list [ 4 ] [ 2.; 0.; 1.; 9. ]) ]
  in
  (* index 9 clamps to the last row *)
  check "gather" true
    (Tensor.equal_approx g
       (Tensor.of_list [ 4; 2 ] [ 5.; 6.; 1.; 2.; 3.; 4.; 5.; 6. ]));
  let s =
    run1
      (fun b ->
        let ids = Builder.parameter b "ids" [ 3 ] in
        let ups = Builder.parameter b "ups" [ 3; 2 ] in
        Builder.scatter_add b ~rows:2 ids ups)
      [
        ("ids", Tensor.of_list [ 3 ] [ 0.; 1.; 0. ]);
        ("ups", Tensor.of_list [ 3; 2 ] [ 1.; 1.; 2.; 2.; 4.; 4. ]);
      ]
  in
  (* rows 0 and 2 accumulate into output row 0 *)
  check "scatter-add" true
    (Tensor.equal_approx s (Tensor.of_list [ 2; 2 ] [ 5.; 5.; 2.; 2. ]))

let test_interp_max_pool () =
  let img =
    Tensor.of_list [ 1; 4; 4; 1 ]
      [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10.; 11.; 12.; 13.; 14.; 15.; 16. ]
  in
  let p =
    run1
      (fun b ->
        Builder.max_pool b ~window:2 ~stride:2 (Builder.parameter b "x" [ 1; 4; 4; 1 ]))
      [ ("x", img) ]
  in
  check "2x2 pool" true
    (Tensor.equal_approx p (Tensor.of_list [ 1; 2; 2; 1 ] [ 6.; 8.; 14.; 16. ]))

let test_gather_grad_is_scatter () =
  (* d(sum(gather(t, ids) * w)) / dt accumulates w into the gathered rows *)
  let b = Builder.create () in
  let t = Builder.parameter b "t" [ 3; 2 ] in
  let ids = Builder.parameter b "ids" [ 2 ] in
  let gth = Builder.gather b t ids in
  let loss = Builder.reduce_sum b ~axes:[ 0; 1 ] gth in
  let grads = Autodiff.gradients b ~output:loss ~wrt:[ t ] in
  let g = Builder.finish b ~outputs:grads in
  let out =
    Interp.run g
      ~params:
        [
          ("t", Tensor.of_list [ 3; 2 ] [ 0.; 0.; 0.; 0.; 0.; 0. ]);
          ("ids", Tensor.of_list [ 2 ] [ 1.; 1. ]);
        ]
  in
  check "grad accumulates on row 1" true
    (Tensor.equal_approx (List.hd out)
       (Tensor.of_list [ 3; 2 ] [ 0.; 0.; 2.; 2.; 0.; 0. ]))

let test_missing_parameter () =
  match
    run1 (fun b -> Builder.parameter b "absent" [ 1 ]) []
  with
  | _ -> Alcotest.fail "expected Missing_parameter"
  | exception Interp.Missing_parameter "absent" -> ()

(* --- Mathematical identities of the op implementations ----------------------- *)

let close ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps

let test_unary_identities () =
  let f = Interp.unary_fn in
  check "sigmoid(0)=1/2" true (close (f Op.Sigmoid 0.) 0.5);
  check "tanh odd" true (close (f Op.Tanh (-0.7)) (-.f Op.Tanh 0.7));
  check "erf(0)=0" true (close (f Op.Erf 0.) 0.);
  check "erf(inf)~1" true (close (f Op.Erf 6.) 1. ~eps:1e-6);
  check "erf odd" true (close (f Op.Erf (-1.3)) (-.f Op.Erf 1.3));
  check "exp(log x)=x" true (close (f Op.Exp (f Op.Log 3.7)) 3.7 ~eps:1e-9);
  check "rsqrt = 1/sqrt" true
    (close (f Op.Rsqrt 2.) (1. /. f Op.Sqrt 2.) ~eps:1e-12);
  check "rcp" true (close (f Op.Rcp 4.) 0.25);
  check "relu clamps" true (f Op.Relu (-3.) = 0. && f Op.Relu 3. = 3.);
  check "sign" true
    (f Op.Sign (-2.) = -1. && f Op.Sign 0. = 0. && f Op.Sign 9. = 1.);
  check "abs" true (f Op.Abs (-2.5) = 2.5)

(* the tile form of erf applies the same polynomial: equal bits over a
   sweep of values, and it leaves the rest of the array alone *)
let test_erf_tile () =
  let xs = Array.init 2001 (fun i -> float_of_int (i - 1000) /. 250.) in
  let a = Array.append [| 42. |] (Array.append xs [| -42. |]) in
  Interp.erf_tile a 1 (Array.length xs);
  check "ends untouched" true (a.(0) = 42. && a.(Array.length a - 1) = -42.);
  Array.iteri
    (fun i x ->
      check
        (Printf.sprintf "erf %g bitwise" x)
        true
        (Int64.equal
           (Int64.bits_of_float a.(i + 1))
           (Int64.bits_of_float (Interp.unary_fn Op.Erf x))))
    xs

let test_binary_identities () =
  let f = Interp.binary_fn in
  check "pow" true (close (f Op.Pow 2. 10.) 1024.);
  check "max/min" true (f Op.Max 2. 3. = 3. && f Op.Min 2. 3. = 2.);
  check "comparisons" true
    (f Op.Lt 1. 2. = 1. && f Op.Gt 1. 2. = 0. && f Op.Eq 2. 2. = 1.);
  check "div" true (close (f Op.Div 1. 8.) 0.125)

let test_reduce_identities () =
  check "sum init" true (Interp.reduce_init Op.Sum = 0.);
  check "max init" true (Interp.reduce_init Op.Max_r = Float.neg_infinity);
  check "min init" true (Interp.reduce_init Op.Min_r = Float.infinity);
  check "steps" true
    (Interp.reduce_step Op.Sum 1. 2. = 3.
    && Interp.reduce_step Op.Max_r 1. 2. = 2.
    && Interp.reduce_step Op.Min_r 1. 2. = 1.)

let test_dtype_table () =
  let open Astitch_ir.Dtype in
  check "sizes" true
    (size_bytes F32 = 4 && size_bytes F16 = 2 && size_bytes I32 = 4
   && size_bytes Pred = 1);
  check "floating" true
    (is_floating F32 && is_floating F16 && (not (is_floating I32))
    && not (is_floating Pred));
  check "names" true
    (to_string F32 = "f32" && to_string F16 = "f16" && to_string I32 = "i32"
   && to_string Pred = "pred")

let test_shape_strides_roundtrip () =
  let s = Shape.of_list [ 3; 4; 5 ] in
  for i = 0 to Shape.num_elements s - 1 do
    if Shape.linear_index s (Shape.multi_index s i) <> i then
      Alcotest.failf "strides roundtrip broke at %d" i
  done

let () =
  Alcotest.run "tensor"
    [
      ( "tensor",
        [
          Alcotest.test_case "basics" `Quick test_tensor_basics;
          Alcotest.test_case "random" `Quick test_random_deterministic;
        ] );
      ( "interp",
        [
          Alcotest.test_case "elementwise" `Quick test_interp_elementwise;
          Alcotest.test_case "softmax" `Quick test_interp_softmax;
          Alcotest.test_case "reduce" `Quick test_interp_reduce;
          Alcotest.test_case "broadcast" `Quick test_interp_broadcast;
          Alcotest.test_case "layout" `Quick test_interp_layout_ops;
          Alcotest.test_case "dot+conv" `Quick test_interp_dot_conv;
          Alcotest.test_case "select+iota" `Quick test_interp_select_iota;
          Alcotest.test_case "gather+scatter" `Quick test_interp_gather_scatter;
          Alcotest.test_case "max pool" `Quick test_interp_max_pool;
          Alcotest.test_case "gather grad" `Quick test_gather_grad_is_scatter;
          Alcotest.test_case "missing param" `Quick test_missing_parameter;
        ] );
      ( "identities",
        [
          Alcotest.test_case "unary" `Quick test_unary_identities;
          Alcotest.test_case "erf tile" `Quick test_erf_tile;
          Alcotest.test_case "binary" `Quick test_binary_identities;
          Alcotest.test_case "reduce" `Quick test_reduce_identities;
          Alcotest.test_case "dtype table" `Quick test_dtype_table;
          Alcotest.test_case "strides roundtrip" `Quick test_shape_strides_roundtrip;
        ] );
    ]
