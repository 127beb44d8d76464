(* Runtime: every backend's plan executes to the reference interpreter's
   values, and the simulated profiles have the paper's shape (AStitch:
   fewer kernels, less DRAM write traffic, faster). *)

open Astitch_ir
open Astitch_simt
open Astitch_plan
open Astitch_runtime

let check = Alcotest.(check bool)

let all_backends =
  [
    Astitch_backends.Tf_backend.backend;
    Astitch_backends.Xla_backend.backend;
    Astitch_backends.Tvm_backend.backend;
    Astitch_backends.Tvm_backend.ansor;
    Astitch_backends.Trt_backend.backend;
    Astitch_core.Astitch.full_backend;
    Astitch_core.Astitch.atm_backend;
    Astitch_core.Astitch.hdm_backend;
  ]

let check_all_backends name g =
  let params = Session.random_params g in
  List.iter
    (fun (b : Backend_intf.t) ->
      match Session.run b Arch.v100 g ~params with
      | _ -> ()
      | exception e ->
          Alcotest.failf "%s on %s: %s" b.name name (Printexc.to_string e))
    all_backends

let softmax_graph () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 4; 8 ] in
  Builder.finish b ~outputs:[ Builder.softmax b x ]

let layernorm_graph () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 3; 16 ] in
  let gamma = Builder.parameter b "gamma" [ 16 ] in
  let beta = Builder.parameter b "beta" [ 16 ] in
  Builder.finish b ~outputs:[ Builder.layer_norm b x ~gamma ~beta ]

let attention_graph () =
  let b = Builder.create () in
  let q = Builder.parameter b "q" [ 2; 4; 8 ] in
  let k = Builder.parameter b "k" [ 2; 4; 8 ] in
  let v = Builder.parameter b "v" [ 2; 4; 8 ] in
  let out = Astitch_workloads.Blocks.attention b ~q ~k ~v ~mask:None ~scale:0.35 in
  Builder.finish b ~outputs:[ out ]

let test_softmax_equivalence () = check_all_backends "softmax" (softmax_graph ())
let test_layernorm_equivalence () = check_all_backends "layernorm" (layernorm_graph ())
let test_attention_equivalence () = check_all_backends "attention" (attention_graph ())

(* [plan] reads a value it never computed: a one-shot run and a stitched
   context both raise [Execution_error], whichever of creating and
   running the context finds it. *)
let expect_execution_error plan =
  let params = [ ("x", Astitch_tensor.Tensor.ones (Shape.of_list [ 4 ])) ] in
  List.iter
    (fun (what, f) ->
      match f () with
      | _ -> Alcotest.failf "%s: expected Execution_error" what
      | exception Executor.Execution_error _ -> ())
    [
      ("Executor.run", fun () -> Executor.run plan ~params);
      ( "fused context",
        fun () ->
          Executor.run_context
            (Executor.create_context ~fused:true plan)
            ~params );
    ]

let test_executor_rejects_bad_plan () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 4 ] in
  let t = Builder.tanh b x in
  let r = Builder.neg b t in
  let g = Builder.finish b ~outputs:[ r ] in
  let mapping = Thread_mapping.Elementwise { elements = 4; block = 32; grid = 1; rows = None } in
  let k =
    {
      Kernel_plan.name = "bad";
      kind = Kernel_plan.Codegen;
      ops =
        [
          {
            Kernel_plan.id = r;
            scheme = Scheme.Local;
            placement = Kernel_plan.Device_mem;
            mapping;
            recompute = 1;
            group = 0;
          };
        ];
      launch = Launch.make ~grid:1 ~block:32 ();
      barriers = 0;
      scratch_bytes = 0;
    }
  in
  let plan =
    { Kernel_plan.arch = Arch.v100; graph = g; kernels = [ k ];
      memcpys = 0; memsets = 0; memcpy_bytes = 0; batch = None }
  in
  expect_execution_error plan

(* --- Profile shape ---------------------------------------------------------- *)

let profiles g =
  let xla = Session.compile Astitch_backends.Xla_backend.backend Arch.v100 g in
  let astitch = Session.compile Astitch_core.Astitch.full_backend Arch.v100 g in
  (xla, astitch)

let big_softmax_graph () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 512; 1024 ] in
  let s = Builder.softmax b x in
  let gamma = Builder.parameter b "gamma" [ 1024 ] in
  let beta = Builder.parameter b "beta" [ 1024 ] in
  Builder.finish b ~outputs:[ Builder.layer_norm b s ~gamma ~beta ]

let test_profile_astitch_wins () =
  let g = big_softmax_graph () in
  let xla, astitch = profiles g in
  check "fewer kernels" true
    (Profile.mem_kernel_count astitch.profile < Profile.mem_kernel_count xla.profile);
  check "faster" true
    (astitch.profile.Profile.total_time_us < xla.profile.Profile.total_time_us);
  let cx = Profile.mem_counters xla.profile in
  let ca = Profile.mem_counters astitch.profile in
  check "fewer dram writes" true
    (ca.dram_write_transactions < cx.dram_write_transactions)

let test_profile_components_positive () =
  let g = big_softmax_graph () in
  let _, astitch = profiles g in
  let p = astitch.profile in
  check "total positive" true (p.total_time_us > 0.);
  check "mem positive" true (p.mem_time_us > 0.);
  check "overhead positive" true (p.overhead_us > 0.);
  check "sum" true
    (abs_float (p.total_time_us -. (p.mem_time_us +. p.compute_time_us +. p.overhead_us))
    < 1e-6)

let test_top_mem_kernels () =
  let g = big_softmax_graph () in
  let xla, _ = profiles g in
  let top = Profile.top_mem_kernels ~frac:0.8 xla.profile in
  check "nonempty" true (top <> []);
  check "subset" true
    (List.length top <= List.length (Profile.mem_kernels_by_time xla.profile));
  let occ = Profile.avg_occupancy top in
  check "occ in [0,1]" true (occ >= 0. && occ <= 1.)

let test_tf_overhead_dominates () =
  let g = softmax_graph () in
  let tf = Session.compile Astitch_backends.Tf_backend.backend Arch.v100 g in
  (* tiny tensors: TF's per-op framework overhead must dominate *)
  check "overhead > mem" true
    (tf.profile.Profile.overhead_us > tf.profile.Profile.mem_time_us)

(* --- Sessions ----------------------------------------------------------------- *)

let test_random_params () =
  let g = softmax_graph () in
  let p1 = Session.random_params g in
  let p2 = Session.random_params g in
  check "deterministic" true
    (List.for_all2
       (fun (n1, t1) (n2, t2) ->
         n1 = n2 && Astitch_tensor.Tensor.equal_approx t1 t2)
       p1 p2);
  let p3 = Session.random_params ~seed:99 g in
  check "seed changes data" false
    (List.for_all2
       (fun (_, t1) (_, t2) -> Astitch_tensor.Tensor.equal_approx t1 t2)
       p1 p3)

let test_compare_backends_order () =
  let g = softmax_graph () in
  let results =
    Session.compare_backends
      [ Astitch_backends.Tf_backend.backend; Astitch_core.Astitch.full_backend ]
      Arch.v100 g
  in
  Alcotest.(check (list string)) "input order"
    [ "TensorFlow"; "AStitch" ]
    (List.map (fun (r : Session.result) -> r.backend_name) results);
  match results with
  | [ tf; astitch ] ->
      check "speedup > 1" true (Session.speedup ~baseline:tf ~contender:astitch > 1.)
  | _ -> Alcotest.fail "two results expected"

(* --- Counters and profile internals --------------------------------------------- *)

let test_mem_counters_exclude_library () =
  (* Table 5 counts memory-intensive kernels only: a GEMM-dominated graph
     must show tiny counters *)
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 64; 64 ] in
  let w = Builder.parameter b "w" [ 64; 64 ] in
  let d = Builder.dot b x w in
  let out = Builder.neg b d in
  let g = Builder.finish b ~outputs:[ out ] in
  let r = Session.compile Astitch_backends.Xla_backend.backend Arch.v100 g in
  let c = Profile.mem_counters r.profile in
  (* the neg kernel reads+writes 16KB: 512 transactions each way; the
     GEMM's far larger traffic must not appear *)
  check "reads bounded" true (c.dram_read_transactions <= 1200);
  check "insts exclude matmul" true (c.inst_fp32 <= 64 * 64 * 2)

let test_library_kernels_faster_on_a100 () =
  (* TF32 tensor cores: the same GEMM costs less on A100 *)
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 1024; 1024 ] in
  let w = Builder.parameter b "w" [ 1024; 1024 ] in
  let g = Builder.finish b ~outputs:[ Builder.dot b x w ] in
  let time arch =
    let r = Session.compile Astitch_backends.Xla_backend.backend arch g in
    r.profile.Profile.compute_time_us
  in
  check "a100 much faster" true (time Arch.v100 /. time Arch.a100 > 3.)

let test_copy_kernels_costed_as_memcpy () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 64; 64 ] in
  let w = Builder.parameter b "w" [ 64; 64 ] in
  let d = Builder.dot b x w in
  let rs = Builder.reshape b d [ 4096 ] in
  let g = Builder.finish b ~outputs:[ rs ] in
  let r = Session.compile Astitch_backends.Xla_backend.backend Arch.v100 g in
  let copy =
    List.find
      (fun (kp : Profile.kernel_profile) -> kp.kernel.kind = Kernel_plan.Copy)
      r.profile.kernels
  in
  check "latency-floor cost" true (copy.estimate.Cost_model.time_us >= 6.0)

let test_executor_kernel_order_enforced () =
  (* kernels out of dependency order must be rejected by the executor *)
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 4 ] in
  let t = Builder.tanh b x in
  let r = Builder.neg b t in
  let g = Builder.finish b ~outputs:[ r ] in
  let mapping = Thread_mapping.Elementwise { elements = 4; block = 32; grid = 1; rows = None } in
  let mk name id =
    {
      Kernel_plan.name;
      kind = Kernel_plan.Codegen;
      ops =
        [
          {
            Kernel_plan.id;
            scheme = Scheme.Local;
            placement = Kernel_plan.Device_mem;
            mapping;
            recompute = 1;
            group = 0;
          };
        ];
      launch = Launch.make ~grid:1 ~block:32 ();
      barriers = 0;
      scratch_bytes = 0;
    }
  in
  let plan =
    { Kernel_plan.arch = Arch.v100; graph = g;
      kernels = [ mk "second" r; mk "first" t ];
      memcpys = 0; memsets = 0; memcpy_bytes = 0; batch = None }
  in
  expect_execution_error plan

let () =
  Alcotest.run "runtime"
    [
      ( "equivalence",
        [
          Alcotest.test_case "softmax" `Quick test_softmax_equivalence;
          Alcotest.test_case "layernorm" `Quick test_layernorm_equivalence;
          Alcotest.test_case "attention" `Quick test_attention_equivalence;
          Alcotest.test_case "bad plan rejected" `Quick test_executor_rejects_bad_plan;
        ] );
      ( "profile",
        [
          Alcotest.test_case "astitch wins" `Quick test_profile_astitch_wins;
          Alcotest.test_case "components" `Quick test_profile_components_positive;
          Alcotest.test_case "top kernels" `Quick test_top_mem_kernels;
          Alcotest.test_case "tf overhead" `Quick test_tf_overhead_dominates;
        ] );
      ( "session",
        [
          Alcotest.test_case "random params" `Quick test_random_params;
          Alcotest.test_case "compare backends" `Quick test_compare_backends_order;
        ] );
      ( "internals",
        [
          Alcotest.test_case "on-chip values die with kernel" `Quick
            (fun () ->
              (* a register value read by a LATER kernel must be rejected
                 by the executor, not just by the static checker *)
              let b = Builder.create () in
              let x = Builder.parameter b "x" [ 4 ] in
              let t = Builder.tanh b x in
              let r = Builder.neg b t in
              let g = Builder.finish b ~outputs:[ r ] in
              let mapping =
                Thread_mapping.Elementwise
                  { elements = 4; block = 32; grid = 1; rows = None }
              in
              let mk name id placement =
                {
                  Kernel_plan.name;
                  kind = Kernel_plan.Codegen;
                  ops =
                    [
                      {
                        Kernel_plan.id;
                        scheme = Scheme.Local;
                        placement;
                        mapping;
                        recompute = 1;
                        group = 0;
                      };
                    ];
                  launch = Launch.make ~grid:1 ~block:32 ();
                  barriers = 0;
                  scratch_bytes = 0;
                }
              in
              let plan =
                {
                  Kernel_plan.arch = Arch.v100;
                  graph = g;
                  kernels =
                    [
                      mk "producer" t Kernel_plan.Register;
                      mk "consumer" r Kernel_plan.Device_mem;
                    ];
                  memcpys = 0;
                  memsets = 0;
                  memcpy_bytes = 0;
                  batch = None;
                }
              in
              expect_execution_error plan);
          Alcotest.test_case "counters scope" `Quick test_mem_counters_exclude_library;
          Alcotest.test_case "a100 tensor cores" `Quick test_library_kernels_faster_on_a100;
          Alcotest.test_case "copy cost" `Quick test_copy_kernels_costed_as_memcpy;
          Alcotest.test_case "kernel order" `Quick test_executor_kernel_order_enforced;
        ] );
    ]
