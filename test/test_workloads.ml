(* Workload generators: graphs validate, have the structure the paper
   describes, and their tiny variants execute correctly under every
   backend. *)

open Astitch_ir
open Astitch_simt
open Astitch_plan
open Astitch_runtime
open Astitch_workloads

let check = Alcotest.(check bool)

let backends =
  [
    Astitch_backends.Tf_backend.backend;
    Astitch_backends.Xla_backend.backend;
    Astitch_backends.Tvm_backend.backend;
    Astitch_core.Astitch.full_backend;
  ]

let exec_tiny name g =
  Graph.validate g;
  let params = Session.random_params g in
  List.iter
    (fun (b : Backend_intf.t) ->
      match Session.run b Arch.v100 g ~params with
      | _ -> ()
      | exception e ->
          Alcotest.failf "%s tiny on %s: %s" name b.name (Printexc.to_string e))
    backends

let test_tiny_execution () =
  List.iter (fun (e : Zoo.entry) -> exec_tiny e.name (e.tiny ())) Zoo.all

let test_tiny_training_execution () =
  List.iter
    (fun (e : Zoo.entry) ->
      Option.iter
        (fun build -> exec_tiny (e.name ^ "-train") (build ()))
        e.tiny_training)
    Zoo.all

let test_full_graphs_validate () =
  List.iter
    (fun (e : Zoo.entry) ->
      let g = e.inference () in
      Graph.validate g;
      let st = Graph.stats g in
      check (e.name ^ " mostly memory-intensive") true
        (st.memory_intensive_ops > st.compute_intensive_ops))
    Zoo.all

let test_transformer_reduce_heavy () =
  let g = Transformer.inference () in
  let st = Graph.stats g in
  (* the paper: reduces are ~10% of Transformer's ops *)
  let frac = float_of_int st.reduce_ops /. float_of_int st.total_ops in
  check "reduce fraction > 4%" true (frac > 0.04)

let test_dien_irregular_shape () =
  let g = Dien.inference () in
  let has_pool_reduce =
    Graph.fold_nodes
      (fun acc nd ->
        acc
        || (Op.is_reduce nd.op
           && Pattern.reduce_geometry g nd.id = (750_000, 32)))
      false g
  in
  check "contains <750000,32> reduce" true has_pool_reduce

let test_transformer_vocab_softmax () =
  let g = Transformer.inference () in
  let has_vocab_reduce =
    Graph.fold_nodes
      (fun acc nd ->
        acc
        || (Op.is_reduce nd.op
           && snd (Pattern.reduce_geometry g nd.id) = 30_000))
      false g
  in
  check "contains <*,30000> reduce" true has_vocab_reduce

let test_training_graphs_bigger () =
  let infer = Graph.num_nodes (Bert.inference ~config:Bert.tiny_config ()) in
  let train = Graph.num_nodes (Bert.training ~config:Bert.tiny_config ()) in
  check "training adds backward graph" true (train > 2 * infer)

let test_synthetic_deterministic () =
  let g1 = Synthetic.random_graph ~seed:5 ~nodes:60 () in
  let g2 = Synthetic.random_graph ~seed:5 ~nodes:60 () in
  Alcotest.(check int) "same size" (Graph.num_nodes g1) (Graph.num_nodes g2);
  let g3 = Synthetic.random_graph ~seed:6 ~nodes:60 () in
  Graph.validate g1;
  Graph.validate g3;
  check "at least requested nodes" true (Graph.num_nodes g1 >= 60)

let test_synthetic_scales () =
  let g = Synthetic.random_graph ~seed:1 ~nodes:2000 () in
  Graph.validate g;
  check "big" true (Graph.num_nodes g >= 2000)

(* --- Registry and configs ---------------------------------------------------- *)

let test_zoo_registry () =
  Alcotest.(check int) "five models" 5 (List.length Zoo.all);
  check "find case-insensitive" true (Zoo.find "bert" <> None);
  check "find exact" true (Zoo.find "Transformer" <> None);
  check "unknown" true (Zoo.find "resnet" = None);
  (* Table 2 batch sizes *)
  let batch name =
    let e = Option.get (Zoo.find name) in
    (e.infer_batch, e.train_batch)
  in
  check "crnn" true (batch "CRNN" = (1, None));
  check "asr" true (batch "ASR" = (1, None));
  check "bert" true (batch "BERT" = (200, Some 12));
  check "transformer" true (batch "Transformer" = (1, Some 4096));
  check "dien" true (batch "DIEN" = (256, Some 256))

let test_gradients_per_parameter () =
  (* a training graph outputs the loss plus one gradient per parameter *)
  let g = Bert.training ~config:Bert.tiny_config () in
  let fwd_params =
    (* parameters of the forward part only: count from the inference graph *)
    List.length (Graph.parameters (Bert.inference ~config:Bert.tiny_config ()))
  in
  Alcotest.(check int) "loss + grads" (1 + fwd_params)
    (List.length (Graph.outputs g))

let test_crnn_contains_norm_reduces () =
  (* the instance-norm column reduces XLA materializes around *)
  let g = Crnn.inference () in
  let column_reduces =
    Graph.fold_nodes
      (fun acc nd ->
        if
          Op.is_reduce nd.op
          && Pattern.reduce_layout g nd.id = Pattern.Column_reduce
        then acc + 1
        else acc)
      0 g
  in
  check "has column reduces" true (column_reduces >= 4)

let test_asr_has_convs_and_encoder () =
  let g = Asr.inference () in
  let convs =
    Graph.fold_nodes
      (fun acc nd -> match nd.op with Op.Conv2d _ -> acc + 1 | _ -> acc)
      0 g
  in
  Alcotest.(check int) "two conv layers" 2 convs;
  let st = Graph.stats g in
  check "attention reduces present" true (st.reduce_ops > 10)

let test_blocks_gru_shapes () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 4; 8 ] in
  let h = Builder.parameter b "h" [ 4; 16 ] in
  let h' = Blocks.gru_cell b ~name:"cell" ~x ~h ~batch:4 ~hidden:16 in
  Alcotest.(check string) "state shape" "<4,16>"
    (Shape.to_string (Builder.shape_of b h'));
  (* gru gates: 3 gates x (2 matmuls) = 6 dots *)
  let g = Builder.finish b ~outputs:[ h' ] in
  let dots =
    Graph.fold_nodes
      (fun acc nd -> match nd.op with Op.Dot _ -> acc + 1 | _ -> acc)
      0 g
  in
  Alcotest.(check int) "six gate matmuls" 6 dots

let test_blocks_attention_shapes () =
  let b = Builder.create () in
  let q = Builder.parameter b "q" [ 6; 10; 16 ] in
  let k = Builder.parameter b "k" [ 6; 10; 16 ] in
  let v = Builder.parameter b "v" [ 6; 10; 16 ] in
  let out = Blocks.attention b ~q ~k ~v ~mask:None ~scale:0.25 in
  Alcotest.(check string) "context shape" "<6,10,16>"
    (Shape.to_string (Builder.shape_of b out))

let test_dtype_uniform_f32 () =
  List.iter
    (fun (e : Zoo.entry) ->
      let g = e.tiny () in
      Graph.iter_nodes
        (fun nd ->
          match nd.dtype with
          | Astitch_ir.Dtype.F32 | Astitch_ir.Dtype.Pred -> ()
          | other ->
              Alcotest.failf "%s: unexpected dtype %s" e.name
                (Astitch_ir.Dtype.to_string other))
        g)
    Zoo.all

let () =
  Alcotest.run "workloads"
    [
      ( "execution",
        [
          Alcotest.test_case "tiny inference" `Slow test_tiny_execution;
          Alcotest.test_case "tiny training" `Slow test_tiny_training_execution;
        ] );
      ( "structure",
        [
          Alcotest.test_case "full graphs validate" `Quick test_full_graphs_validate;
          Alcotest.test_case "transformer reduces" `Quick test_transformer_reduce_heavy;
          Alcotest.test_case "dien irregular" `Quick test_dien_irregular_shape;
          Alcotest.test_case "transformer vocab" `Quick test_transformer_vocab_softmax;
          Alcotest.test_case "training bigger" `Quick test_training_graphs_bigger;
        ] );
      ( "synthetic",
        [
          Alcotest.test_case "deterministic" `Quick test_synthetic_deterministic;
          Alcotest.test_case "scales" `Quick test_synthetic_scales;
        ] );
      ( "registry",
        [
          Alcotest.test_case "zoo" `Quick test_zoo_registry;
          Alcotest.test_case "grads per param" `Quick test_gradients_per_parameter;
          Alcotest.test_case "crnn norms" `Quick test_crnn_contains_norm_reduces;
          Alcotest.test_case "asr structure" `Quick test_asr_has_convs_and_encoder;
          Alcotest.test_case "gru shapes" `Quick test_blocks_gru_shapes;
          Alcotest.test_case "attention shapes" `Quick test_blocks_attention_shapes;
          Alcotest.test_case "dtypes" `Quick test_dtype_uniform_f32;
        ] );
    ]
