(* Property-based tests (qcheck):
   - THE invariant: any random graph, any backend -> plan passes all
     structural checks and executes to the reference interpreter's values;
   - occupancy-calculator algebra;
   - adaptive-mapping geometry always covers all rows within one wave;
   - scratch allocator never aliases live buffers. *)

open Astitch_simt
open Astitch_plan
open Astitch_runtime

let backends =
  [
    ("tf", Astitch_backends.Tf_backend.backend);
    ("xla", Astitch_backends.Xla_backend.backend);
    ("tvm", Astitch_backends.Tvm_backend.backend);
    ("ansor", Astitch_backends.Tvm_backend.ansor);
    ("trt", Astitch_backends.Trt_backend.backend);
    ("astitch", Astitch_core.Astitch.full_backend);
    ("atm", Astitch_core.Astitch.atm_backend);
    ("hdm", Astitch_core.Astitch.hdm_backend);
  ]

let prop_backend_equivalence =
  QCheck2.Test.make ~name:"all backends match the interpreter" ~count:60
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 20 80))
    (fun (seed, nodes) ->
      let g = Astitch_workloads.Synthetic.random_graph ~seed ~nodes () in
      let params = Session.random_params g in
      List.for_all
        (fun (name, b) ->
          match Session.run ~check:true b Arch.v100 g ~params with
          | _ -> true
          | exception e ->
              QCheck2.Test.fail_reportf "backend %s failed on seed %d: %s"
                name seed (Printexc.to_string e))
        backends)

let prop_plans_structurally_valid =
  QCheck2.Test.make ~name:"plans pass invariants" ~count:60
    QCheck2.Gen.(pair (int_range 10_001 20_000) (int_range 30 120))
    (fun (seed, nodes) ->
      let g = Astitch_workloads.Synthetic.random_graph ~seed ~nodes () in
      List.for_all
        (fun (name, (b : Backend_intf.t)) ->
          let plan = b.compile Arch.v100 g in
          match Kernel_plan.check plan with
          | () -> true
          | exception e ->
              QCheck2.Test.fail_reportf "plan check %s failed on seed %d: %s"
                name seed (Printexc.to_string e))
        backends)

let prop_astitch_never_more_kernels =
  QCheck2.Test.make
    ~name:"astitch never launches more memory-intensive kernels than XLA"
    ~count:60
    QCheck2.Gen.(pair (int_range 20_001 30_000) (int_range 30 120))
    (fun (seed, nodes) ->
      let g = Astitch_workloads.Synthetic.random_graph ~seed ~nodes () in
      let count (b : Backend_intf.t) =
        List.length (Kernel_plan.memory_intensive_kernels (b.compile Arch.v100 g))
      in
      count Astitch_core.Astitch.full_backend
      <= count Astitch_backends.Xla_backend.backend)

let prop_occupancy_bounds =
  QCheck2.Test.make ~name:"occupancy in [0,1], waves cover grid" ~count:200
    QCheck2.Gen.(
      triple (int_range 1 100_000) (int_range 1 32) (int_range 16 64))
    (fun (grid, warps, regs) ->
      let block = warps * 32 in
      let l = Launch.make ~regs_per_thread:regs ~grid ~block () in
      let occ = Occupancy.achieved_occupancy Arch.v100 l in
      let bpw = Occupancy.blocks_per_wave Arch.v100 l in
      let w = Occupancy.waves Arch.v100 l in
      occ >= 0. && occ <= 1. && w * bpw >= grid && (w - 1) * bpw < grid)

let prop_occupancy_monotone_regs =
  QCheck2.Test.make ~name:"more registers never increase occupancy" ~count:100
    QCheck2.Gen.(pair (int_range 1 8) (int_range 16 120))
    (fun (warps, regs) ->
      let block = warps * 32 in
      let occ r =
        Occupancy.theoretical_occupancy Arch.v100
          (Launch.make ~regs_per_thread:r ~grid:1000 ~block ())
      in
      occ regs >= occ (regs + 16))

let prop_adaptive_mapping_covers =
  QCheck2.Test.make ~name:"adaptive row-reduce covers rows within a wave"
    ~count:300
    QCheck2.Gen.(pair (int_range 1 1_000_000) (int_range 1 100_000))
    (fun (rows, row_length) ->
      let tm = Astitch_core.Adaptive_mapping.row_reduce Arch.v100 ~rows ~row_length in
      Thread_mapping.validate tm;
      let bpw = Astitch_core.Adaptive_mapping.blocks_per_wave Arch.v100 in
      match tm with
      | Thread_mapping.Row_reduce m ->
          let grid = Thread_mapping.grid tm in
          grid <= bpw
          && Thread_mapping.block tm <= 1024
          && (if m.split > 1 then grid = rows * m.split
              else grid * m.rows_per_block * m.row_groups_per_block >= rows)
      | _ -> false)

let prop_scratch_no_alias =
  QCheck2.Test.make ~name:"scratch allocator never aliases live buffers"
    ~count:200
    QCheck2.Gen.(
      list_size (int_range 1 20)
        (triple (int_range 1 5000) (int_range 0 30) (int_range 0 10)))
    (fun entries ->
      let entries =
        List.mapi
          (fun i (size, def, extra) -> (i, size, def, def + extra))
          entries
      in
      let allocations, total = Astitch_core.Mem_planner.plan_scratch entries in
      match Astitch_core.Mem_planner.check_no_aliasing allocations with
      | () ->
          (* arena never exceeds sum of aligned sizes *)
          let sum =
            List.fold_left
              (fun acc (_, s, _, _) -> acc + ((s + 255) / 256 * 256))
              0 entries
          in
          total <= sum
      | exception Compile_error.Error _ -> false)

let prop_fit_shared_fits =
  QCheck2.Test.make ~name:"shared-memory demotion always fits the budget"
    ~count:200
    QCheck2.Gen.(
      pair (int_range 0 100_000)
        (list_size (int_range 0 12) (int_range 1 50_000)))
    (fun (budget, sizes) ->
      let entries = List.mapi (fun i s -> (i, s)) sizes in
      let kept, demoted = Astitch_core.Mem_planner.fit_shared ~budget entries in
      let total = List.fold_left (fun a (_, b) -> a + b) 0 kept in
      (total <= budget || kept = [])
      && List.length kept + List.length demoted = List.length entries)

let prop_transactions =
  QCheck2.Test.make ~name:"transactions round up to 32B sectors" ~count:200
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun bytes ->
      let t = Cost_model.transactions bytes in
      t * 32 >= bytes && (t = 0 || (t - 1) * 32 < bytes))

(* --- Compiler-pass properties -------------------------------------------- *)

let prop_simplify_preserves_values =
  QCheck2.Test.make ~name:"simplification preserves outputs" ~count:80
    QCheck2.Gen.(pair (int_range 30_001 40_000) (int_range 20 100))
    (fun (seed, nodes) ->
      let g = Astitch_workloads.Synthetic.random_graph ~seed ~nodes () in
      let g', _ = Astitch_ir.Simplify.run g in
      Astitch_ir.Graph.validate g';
      let params = Session.random_params g in
      let a = Astitch_tensor.Interp.run g ~params in
      let b = Astitch_tensor.Interp.run g' ~params in
      List.for_all2
        (fun x y -> Astitch_tensor.Tensor.equal_approx ~eps:1e-5 x y)
        a b)

let prop_simplify_never_grows =
  QCheck2.Test.make ~name:"simplification never grows the graph" ~count:80
    QCheck2.Gen.(pair (int_range 40_001 50_000) (int_range 20 100))
    (fun (seed, nodes) ->
      let g = Astitch_workloads.Synthetic.random_graph ~seed ~nodes () in
      let g', _ = Astitch_ir.Simplify.run g in
      Astitch_ir.Graph.num_nodes g' <= Astitch_ir.Graph.num_nodes g)

(* A dead consumer is never lowered, so it steers no compile decision: a
   graph and its dead-code-eliminated copy compile to the same kernel
   count and per-op (mnemonic, shape, placement, scheme, recompute)
   multiset under full, HDM and ATM, and on a 128 B-shared-memory V100. *)
let prop_dead_code_steers_nothing =
  let module Config = Astitch_core.Config in
  let configs =
    [
      (Config.full, Arch.v100);
      (Config.no_dominant_merging, Arch.v100);
      (Config.atm_only, Arch.v100);
      (Config.full, { Arch.v100 with shared_mem_per_block = 128 });
    ]
  in
  let summary config arch g =
    match Astitch_core.Fallback.compile config arch g with
    | Error e -> Error (Compile_error.to_string e)
    | Ok ((plan : Kernel_plan.t), _) ->
        let op (o : Kernel_plan.compiled_op) =
          ( Astitch_ir.Op.mnemonic (Astitch_ir.Graph.op plan.graph o.id),
            Astitch_ir.Graph.shape plan.graph o.id,
            o.placement,
            o.scheme,
            o.recompute )
        in
        Ok
          ( List.length plan.kernels,
            List.sort compare
              (List.concat_map (fun (k : Kernel_plan.kernel) -> List.map op k.ops) plan.kernels) )
  in
  QCheck2.Test.make ~name:"dead code steers no compile decision" ~count:200
    QCheck2.Gen.(pair (int_range 60_001 70_000) (int_range 10 70))
    (fun (seed, nodes) ->
      let g = Astitch_workloads.Synthetic.random_graph ~seed ~nodes () in
      let live = Astitch_ir.Simplify.dce g in
      List.for_all (fun (config, arch) -> summary config arch g = summary config arch live) configs)

let prop_text_roundtrip =
  QCheck2.Test.make ~name:"textual IR round-trips" ~count:80
    QCheck2.Gen.(pair (int_range 50_001 60_000) (int_range 20 100))
    (fun (seed, nodes) ->
      let g = Astitch_workloads.Synthetic.random_graph ~seed ~nodes () in
      let text = Astitch_ir.Text_format.to_string g in
      let g2 = Astitch_ir.Text_format.parse text in
      Astitch_ir.Text_format.to_string g2 = text)

let prop_clusters_single_depth =
  QCheck2.Test.make ~name:"clusters never span compute depths" ~count:100
    QCheck2.Gen.(pair (int_range 60_001 70_000) (int_range 20 120))
    (fun (seed, nodes) ->
      let g = Astitch_workloads.Synthetic.random_graph ~seed ~nodes () in
      let depth = Clustering.compute_depths g in
      List.for_all
        (fun (c : Clustering.cluster) ->
          match c.nodes with
          | [] -> false
          | first :: rest -> List.for_all (fun n -> depth.(n) = depth.(first)) rest)
        (Clustering.clusters g))

let prop_kernel_dag_schedulable =
  QCheck2.Test.make
    ~name:"every backend's kernel list is already a valid schedule" ~count:80
    QCheck2.Gen.(pair (int_range 70_001 80_000) (int_range 20 120))
    (fun (seed, nodes) ->
      let g = Astitch_workloads.Synthetic.random_graph ~seed ~nodes () in
      List.for_all
        (fun (_, (b : Backend_intf.t)) ->
          let plan = b.compile Arch.v100 g in
          (* replaying toposort must keep a valid order (idempotent up to
             dependency-respecting permutation; check = full validation) *)
          let resorted =
            Kernel_plan.toposort_kernels g plan.kernels
          in
          Kernel_plan.check { plan with kernels = resorted };
          true)
        backends)

let prop_amp_never_slower =
  QCheck2.Test.make ~name:"AMP (f16) never increases simulated time" ~count:50
    QCheck2.Gen.(pair (int_range 80_001 90_000) (int_range 20 80))
    (fun (seed, nodes) ->
      let g = Astitch_workloads.Synthetic.random_graph ~seed ~nodes () in
      let gh = Astitch_ir.Amp.to_half g in
      let time graph =
        let plan = Astitch_core.Astitch.compile Arch.v100 graph in
        (Profile.profile plan).Profile.total_time_us
      in
      time gh <= time g +. 1e-6)

let prop_achieved_le_theoretical =
  QCheck2.Test.make ~name:"achieved occupancy <= theoretical" ~count:200
    QCheck2.Gen.(
      triple (int_range 1 100_000) (int_range 1 32) (int_range 16 64))
    (fun (grid, warps, regs) ->
      let l = Launch.make ~regs_per_thread:regs ~grid ~block:(warps * 32) () in
      Occupancy.achieved_occupancy Arch.v100 l
      <= Occupancy.theoretical_occupancy Arch.v100 l +. 1e-9)

let prop_launch_config_preserves_wave =
  QCheck2.Test.make
    ~name:"assume-relax-apply keeps the assumed blocks-per-wave" ~count:100
    QCheck2.Gen.(pair (int_range 1 48) (int_range 0 48))
    (fun (warps, smem_kb) ->
      let block = Stdlib.min 1024 (warps * 32) in
      let budget = Astitch_core.Launch_config.shared_mem_budget Arch.v100 in
      let smem = Stdlib.min budget (smem_kb * 1024) in
      let lc = Astitch_core.Launch_config.plan Arch.v100 ~block ~shared_mem_per_block:smem in
      lc.regs_per_thread >= Astitch_core.Adaptive_mapping.assumed_regs
      && (block < 1024
         || lc.blocks_per_wave >= Astitch_core.Adaptive_mapping.blocks_per_wave Arch.v100))

let prop_scatter_gather_mass =
  QCheck2.Test.make
    ~name:"scatter_add(ids, gather(t, ids)) preserves summed mass" ~count:100
    QCheck2.Gen.(pair (int_range 1 10) (int_range 1 12))
    (fun (rows, k) ->
      let open Astitch_ir in
      let b = Builder.create () in
      let t = Builder.parameter b "t" [ rows; 3 ] in
      let ids = Builder.parameter b "ids" [ k ] in
      let gathered = Builder.gather b t ids in
      let scattered = Builder.scatter_add b ~rows ids gathered in
      let total = Builder.reduce_sum b ~axes:[ 0; 1 ] scattered in
      let per_pick = Builder.reduce_sum b ~axes:[ 0; 1 ] gathered in
      let g = Builder.finish b ~outputs:[ total; per_pick ] in
      let params =
        [
          ("t", Astitch_tensor.Tensor.random ~seed:(rows + (17 * k)) (Shape.of_list [ rows; 3 ]));
          ( "ids",
            Astitch_tensor.Tensor.init (Shape.of_list [ k ]) (fun i ->
                float_of_int ((i * 7) mod rows)) );
        ]
      in
      match Astitch_tensor.Interp.run g ~params with
      | [ a; b2 ] ->
          Float.abs
            (Astitch_tensor.Tensor.get_linear a 0
            -. Astitch_tensor.Tensor.get_linear b2 0)
          < 1e-6
      | _ -> false)

let prop_max_pool_dominates_members =
  QCheck2.Test.make ~name:"max-pool output >= every window member" ~count:100
    QCheck2.Gen.(pair (int_range 2 6) (int_range 0 10_000))
    (fun (hw, seed) ->
      let open Astitch_ir in
      let b = Builder.create () in
      let x = Builder.parameter b "x" [ 1; hw; hw; 2 ] in
      let p = Builder.max_pool b ~window:2 ~stride:1 x in
      let g = Builder.finish b ~outputs:[ p ] in
      let xt = Astitch_tensor.Tensor.random ~seed (Shape.of_list [ 1; hw; hw; 2 ]) in
      match Astitch_tensor.Interp.run g ~params:[ ("x", xt) ] with
      | [ pt ] ->
          let ps = Astitch_tensor.Tensor.shape pt in
          let ok = ref true in
          for i = 0 to Astitch_tensor.Tensor.num_elements pt - 1 do
            let idx = Shape.multi_index ps i in
            let v = Astitch_tensor.Tensor.get_linear pt i in
            for wy = 0 to 1 do
              for wx = 0 to 1 do
                let m =
                  Astitch_tensor.Tensor.get xt
                    [| 0; idx.(1) + wy; idx.(2) + wx; idx.(3) |]
                in
                if m > v then ok := false
              done
            done
          done;
          !ok
      | _ -> false)

let prop_autodiff_matches_finite_diff =
  QCheck2.Test.make
    ~name:"autodiff matches finite differences on random smooth graphs"
    ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let open Astitch_ir in
      (* a small random smooth elementwise+reduce pipeline *)
      let rng = ref (seed lxor 0x5bd1e995) in
      let next n = rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF; !rng mod n in
      let b = Builder.create () in
      let x = Builder.parameter b "x" [ 2; 3 ] in
      let v = ref x in
      for _ = 1 to 1 + next 4 do
        v :=
          (match next 4 with
          | 0 -> Builder.tanh b !v
          | 1 -> Builder.sigmoid b !v
          | 2 -> Builder.mul b !v !v
          | _ -> Builder.add b !v (Builder.constant b 0.3 ~dims:[ 2; 3 ]))
      done;
      let loss = Builder.reduce_sum b ~axes:[ 0; 1 ] !v in
      let grads = Autodiff.gradients b ~output:loss ~wrt:[ x ] in
      let g = Builder.finish b ~outputs:(loss :: grads) in
      let x0 =
        Astitch_tensor.Tensor.map
          (fun t -> (0.3 *. t) +. 0.7)
          (Astitch_tensor.Tensor.random ~seed:(seed + 3) (Shape.of_list [ 2; 3 ]))
      in
      let loss_at xt =
        match Astitch_tensor.Interp.run g ~params:[ ("x", xt) ] with
        | l :: _ -> Astitch_tensor.Tensor.get_linear l 0
        | [] -> assert false
      in
      let grad =
        match Astitch_tensor.Interp.run g ~params:[ ("x", x0) ] with
        | [ _; gt ] -> gt
        | _ -> assert false
      in
      let eps = 1e-4 in
      let i = next 6 in
      let bump delta =
        let d = Astitch_tensor.Tensor.create (Astitch_tensor.Tensor.shape x0)
            (Array.copy (Astitch_tensor.Tensor.data x0)) in
        Astitch_tensor.Tensor.set_linear d i
          (Astitch_tensor.Tensor.get_linear d i +. delta);
        d
      in
      let numeric = (loss_at (bump eps) -. loss_at (bump (-.eps))) /. (2. *. eps) in
      let analytic = Astitch_tensor.Tensor.get_linear grad i in
      Float.abs (numeric -. analytic) <= 2e-2 *. Float.max 1. (Float.abs numeric))

let prop_astitch_barriers_always_legal =
  QCheck2.Test.make ~name:"stitch kernels' barriers are always legal"
    ~count:80
    QCheck2.Gen.(pair (int_range 90_001 100_000) (int_range 20 120))
    (fun (seed, nodes) ->
      let g = Astitch_workloads.Synthetic.random_graph ~seed ~nodes () in
      let plan = Astitch_core.Astitch.compile Arch.v100 g in
      List.for_all
        (fun (k : Kernel_plan.kernel) ->
          k.barriers = 0 || Barrier.is_legal Arch.v100 k.launch)
        plan.kernels)

let suite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "properties"
    [
      suite "semantics" [ prop_backend_equivalence; prop_plans_structurally_valid ];
      suite "kernels" [ prop_astitch_never_more_kernels ];
      suite "occupancy" [ prop_occupancy_bounds; prop_occupancy_monotone_regs ];
      suite "mapping" [ prop_adaptive_mapping_covers ];
      suite "memory" [ prop_scratch_no_alias; prop_fit_shared_fits ];
      suite "counters" [ prop_transactions ];
      suite "passes"
        [
          prop_simplify_preserves_values;
          prop_simplify_never_grows;
          prop_text_roundtrip;
          prop_dead_code_steers_nothing;
        ];
      suite "structure"
        [ prop_clusters_single_depth; prop_kernel_dag_schedulable ];
      suite "model"
        [
          prop_amp_never_slower;
          prop_achieved_le_theoretical;
          prop_launch_config_preserves_wave;
          prop_astitch_barriers_always_legal;
        ];
      suite "ops"
        [
          prop_scatter_gather_mass;
          prop_max_pool_dominates_members;
          prop_autodiff_matches_finite_diff;
        ];
    ]
