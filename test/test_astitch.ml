(* The AStitch compiler: adaptive mapping, dominants, locality, memory
   planning, launch configuration, whole-cluster stitching. *)

open Astitch_ir
open Astitch_simt
open Astitch_plan
open Astitch_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Adaptive thread mapping (Fig 8) ------------------------------------- *)

let test_packing_750000x32 () =
  match Adaptive_mapping.row_reduce Arch.v100 ~rows:750_000 ~row_length:32 with
  | Thread_mapping.Row_reduce m as tm ->
      Thread_mapping.validate tm;
      check_int "horizontal packing" 32 m.rows_per_block;
      check_int "block 1024" 1024 (Thread_mapping.block tm);
      check "vertical packing engaged" true (m.row_groups_per_block > 1);
      check "grid within a wave" true
        (Thread_mapping.grid tm <= Adaptive_mapping.blocks_per_wave Arch.v100);
      (* all rows covered *)
      check "covers rows" true
        (Thread_mapping.grid tm * m.rows_per_block * m.row_groups_per_block
         >= 750_000)
  | _ -> Alcotest.fail "expected row-reduce"

let test_splitting_64x30000 () =
  match Adaptive_mapping.row_reduce Arch.v100 ~rows:64 ~row_length:30_000 with
  | Thread_mapping.Row_reduce m as tm ->
      Thread_mapping.validate tm;
      check "splits" true (m.split > 1);
      check "atomics" true (Thread_mapping.uses_atomics tm);
      check "more blocks than rows" true (Thread_mapping.grid tm > 64);
      check "grid within a wave" true
        (Thread_mapping.grid tm <= Adaptive_mapping.blocks_per_wave Arch.v100)
  | _ -> Alcotest.fail "expected row-reduce"

let test_elementwise_capped () =
  let tm = Adaptive_mapping.elementwise Arch.v100 ~elements:100_000_000 ~rows:None in
  check "grid within a wave" true
    (Thread_mapping.grid tm <= Adaptive_mapping.blocks_per_wave Arch.v100)

let test_bpw_reference () =
  check_int "v100 wave" 160 (Adaptive_mapping.blocks_per_wave Arch.v100)

(* --- Dominants (Fig 9) ---------------------------------------------------- *)

(* a Figure 7(a)-like chain: add -> reduce.1 -> broadcast -> divide ->
   power -> broadcast -> reduce.2 -> ... -> multiply output *)
let fig7_graph () =
  let b = Builder.create () in
  let p1 = Builder.parameter b "p1" [ 8; 16 ] in
  let p2 = Builder.parameter b "p2" [ 8; 16 ] in
  let add1 = Builder.add b p1 p2 in
  let reduce1 = Builder.reduce_sum b ~axes:[ 1 ] add1 in
  let bc1 = Builder.broadcast b reduce1 ~dims:[ 0 ] [ 8; 16 ] in
  let div1 = Builder.div b p2 bc1 in
  let pow1 =
    Builder.pow b div1 (Builder.broadcast_scalar b (Builder.constant b 2.) [ 8; 16 ])
  in
  let reduce2 = Builder.reduce_sum b ~axes:[ 1 ] pow1 in
  let bc2 = Builder.broadcast b reduce2 ~dims:[ 0 ] [ 8; 16 ] in
  let mul1 = Builder.mul b bc2 add1 in
  (Builder.finish b ~outputs:[ mul1 ], reduce1, pow1, reduce2, mul1)

let test_dominant_candidates () =
  let g, reduce1, _pow1, reduce2, mul1 = fig7_graph () in
  let nodes =
    List.filter (Clustering.is_clusterable g) (Graph.topo_order g)
  in
  let escaping id = Graph.is_output g id in
  let cands = Dominant.candidates g ~nodes ~escaping in
  check "reduce1 candidate" true (List.mem reduce1 cands);
  check "reduce2 candidate" true (List.mem reduce2 cands);
  check "output candidate" true (List.mem mul1 cands)

let test_groups_merged_vs_not () =
  let g, _, _, _, _ = fig7_graph () in
  let nodes = List.filter (Clustering.is_clusterable g) (Graph.topo_order g) in
  let escaping id = Graph.is_output g id in
  let merged = Dominant.group_ops ~merging:true g ~nodes ~escaping in
  let unmerged = Dominant.group_ops ~merging:false g ~nodes ~escaping in
  check "merging reduces group count" true
    (List.length merged <= List.length unmerged);
  (* merged groups partition the nodes *)
  let covered = List.concat_map (fun (grp : Dominant.group) -> grp.members) merged in
  check_int "partition" (List.length nodes) (List.length covered);
  (* unmerged cones may duplicate shared producers *)
  let occurrences = Dominant.occurrences unmerged in
  check "some node shared" true (List.exists (fun id -> occurrences id > 1) nodes);
  (* every group's dominant is a member *)
  List.iter
    (fun (grp : Dominant.group) ->
      check "dominant in members" true (List.mem grp.dominant grp.members))
    (merged @ unmerged)

let test_dominant_prefers_reduce () =
  let g, reduce1, _, reduce2, _ = fig7_graph () in
  let nodes = List.filter (Clustering.is_clusterable g) (Graph.topo_order g) in
  let escaping id = Graph.is_output g id in
  let merged = Dominant.group_ops ~merging:true g ~nodes ~escaping in
  let dominants = List.map (fun (grp : Dominant.group) -> grp.dominant) merged in
  check "some reduce dominates" true
    (List.mem reduce1 dominants || List.mem reduce2 dominants)

(* --- Whole-graph stitching ------------------------------------------------ *)

let test_stitch_single_kernel () =
  let g, _, _, _, _ = fig7_graph () in
  let plan = Astitch.compile Arch.v100 g in
  Kernel_plan.check plan;
  check_int "one stitch kernel" 1
    (List.length (Kernel_plan.memory_intensive_kernels plan));
  (* fewer kernels than XLA on the same graph *)
  let xla = Astitch_backends.Xla_backend.compile Arch.v100 g in
  check "fewer than XLA" true
    (List.length (Kernel_plan.memory_intensive_kernels plan)
    < List.length (Kernel_plan.memory_intensive_kernels xla))

let test_stitch_schemes_assigned () =
  let g, reduce1, _, _, _ = fig7_graph () in
  let plan = Astitch.compile Arch.v100 g in
  let kernel = List.hd (Kernel_plan.memory_intensive_kernels plan) in
  let op = Option.get (Kernel_plan.find_op kernel reduce1) in
  check "reduce1 buffered on-chip or scratch" true
    (op.placement = Kernel_plan.Shared_mem
    || op.placement = Kernel_plan.Global_scratch);
  check "no recompute for dominants" true (op.recompute = 1)

let test_stitch_no_heavy_recompute () =
  (* the Fig 5 pattern: AStitch must buffer pow once, not recompute x128 *)
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 2 ] in
  let e = Builder.parameter b "e" [ 2 ] in
  let p = Builder.pow b x e in
  let bc = Builder.broadcast b p ~dims:[ 0 ] [ 2; 128 ] in
  let other = Builder.parameter b "other" [ 2; 128 ] in
  let a = Builder.add b bc other in
  let g = Builder.finish b ~outputs:[ a ] in
  let plan = Astitch.compile Arch.v100 g in
  Kernel_plan.check plan;
  check_int "one kernel" 1 (List.length (Kernel_plan.memory_intensive_kernels plan));
  let kernel = List.hd (Kernel_plan.memory_intensive_kernels plan) in
  let pow_op = Option.get (Kernel_plan.find_op kernel p) in
  check_int "pow computed once" 1 pow_op.recompute;
  check "pow buffered" true (pow_op.placement <> Kernel_plan.Register)

let test_barrier_legal_always () =
  let g, _, _, _, _ = fig7_graph () in
  let plan = Astitch.compile Arch.v100 g in
  List.iter
    (fun (k : Kernel_plan.kernel) ->
      if k.barriers > 0 then Barrier.check_legal Arch.v100 k.launch)
    plan.kernels

(* --- Memory planner -------------------------------------------------------- *)

let test_fit_shared_demotes () =
  let entries = [ (1, 10_000); (2, 30_000); (3, 20_000) ] in
  let kept, demoted = Mem_planner.fit_shared ~budget:35_000 entries in
  let total = List.fold_left (fun a (_, b) -> a + b) 0 kept in
  check "fits" true (total <= 35_000);
  check "something demoted" true (demoted <> []);
  check_int "everything accounted" 3 (List.length kept + List.length demoted);
  (* under generous budget nothing is demoted *)
  let kept2, demoted2 = Mem_planner.fit_shared ~budget:100_000 entries in
  check_int "all kept" 3 (List.length kept2);
  check "none demoted" true (demoted2 = [])

let test_scratch_reuse () =
  (* two buffers with disjoint live ranges share space *)
  let allocations, total =
    Mem_planner.plan_scratch [ (1, 1000, 0, 1); (2, 1000, 2, 3) ]
  in
  Mem_planner.check_no_aliasing allocations;
  check "reused" true (total <= 1024);
  (* overlapping ranges cannot share *)
  let allocations2, total2 =
    Mem_planner.plan_scratch [ (1, 1000, 0, 3); (2, 1000, 1, 2) ]
  in
  Mem_planner.check_no_aliasing allocations2;
  check "no reuse" true (total2 >= 2048)

(* --- Launch configuration --------------------------------------------------- *)

let test_launch_config_relax () =
  let lc = Launch_config.plan Arch.v100 ~block:1024 ~shared_mem_per_block:0 in
  check_int "assumed regs hold" 32 lc.regs_per_thread;
  check_int "wave 160" 160 lc.blocks_per_wave;
  (* smaller blocks leave more registers per thread *)
  let lc2 = Launch_config.plan Arch.v100 ~block:256 ~shared_mem_per_block:0 in
  check "relaxed regs" true (lc2.regs_per_thread >= 32)

let test_shared_budget () =
  let budget = Launch_config.shared_mem_budget Arch.v100 in
  check_int "48KB on V100" (48 * 1024) budget

(* --- Ablation ladder --------------------------------------------------------- *)

let test_ablation_monotone_kernels () =
  let g, _, _, _, _ = fig7_graph () in
  let count backend =
    let plan = Backend_intf.compile backend Arch.v100 g in
    Kernel_plan.check plan;
    List.length (Kernel_plan.memory_intensive_kernels plan)
  in
  let xla = count Astitch_backends.Xla_backend.backend in
  let atm = count Astitch.atm_backend in
  let hdm = count Astitch.hdm_backend in
  let full = count Astitch.full_backend in
  check_int "ATM keeps XLA's fusion scopes" xla atm;
  check "HDM stitches more" true (hdm <= xla);
  check "full stitches most" true (full <= hdm)

(* --- Remote stitching / combine_parts -------------------------------------- *)

let test_remote_parts_add_grids () =
  (* independent chains of real size: the merged kernel's grid must cover
     both parts concurrently (the Fig 2 parallelism increase) *)
  let b = Builder.create () in
  let o1 = Builder.tanh b (Builder.parameter b "x" [ 64; 512 ]) in
  let o2 = Builder.sigmoid b (Builder.parameter b "y" [ 64; 512 ]) in
  let g = Builder.finish b ~outputs:[ o1; o2 ] in
  let plan = Astitch.compile Arch.v100 g in
  Kernel_plan.check plan;
  check_int "one merged kernel" 1
    (List.length (Kernel_plan.memory_intensive_kernels plan));
  let merged = List.hd (Kernel_plan.memory_intensive_kernels plan) in
  let solo =
    let b = Builder.create () in
    let o = Builder.tanh b (Builder.parameter b "x" [ 64; 512 ]) in
    let g = Builder.finish b ~outputs:[ o ] in
    List.hd
      (Kernel_plan.memory_intensive_kernels (Astitch.compile Arch.v100 g))
  in
  check "grid grows when merged" true
    (merged.launch.Launch.grid > solo.launch.Launch.grid)

let test_remote_parts_smem_budget_split () =
  (* each part gets a budget slice; the combined declaration stays within
     the device limit *)
  let b = Builder.create () in
  let outs =
    List.init 4 (fun i ->
        let x = Builder.parameter b (Printf.sprintf "x%d" i) [ 128; 64 ] in
        let r = Builder.reduce_sum b ~axes:[ 1 ] x in
        let rb = Builder.broadcast b r ~dims:[ 0 ] [ 128; 64 ] in
        Builder.div b x rb)
  in
  let g = Builder.finish b ~outputs:outs in
  let plan = Astitch.compile Arch.v100 g in
  Kernel_plan.check plan;
  List.iter
    (fun (k : Kernel_plan.kernel) ->
      check "smem within device limit" true
        (k.launch.Launch.shared_mem_per_block
        <= Arch.v100.shared_mem_per_block))
    plan.kernels

let test_proactive_adaptation_gives_regional () =
  (* softmax at a round shape: the element-wise consumer group adopts the
     reduce's partition, so the reduce can live in shared memory *)
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 256; 256 ] in
  let g = Builder.finish b ~outputs:[ Builder.softmax b x ] in
  let plan = Astitch.compile Arch.v100 g in
  let kernel = List.hd (Kernel_plan.memory_intensive_kernels plan) in
  let regional =
    List.exists
      (fun (o : Kernel_plan.compiled_op) ->
        o.placement = Kernel_plan.Shared_mem)
      kernel.ops
  in
  check "some regional buffering" true regional

let test_split_reduce_goes_global () =
  (* a split (atomic) reduce cannot satisfy block locality: global scheme *)
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 64; 30_000 ] in
  let r = Builder.reduce_sum b ~axes:[ 1 ] x in
  let s = Builder.sigmoid b r in
  let g = Builder.finish b ~outputs:[ s ] in
  let plan = Astitch.compile Arch.v100 g in
  let kernel = List.hd (Kernel_plan.memory_intensive_kernels plan) in
  let reduce_op =
    List.find (fun (o : Kernel_plan.compiled_op) -> o.id = r) kernel.ops
  in
  check "global scheme" true (reduce_op.scheme = Scheme.Global);
  check "barrier present" true (kernel.barriers > 0)

let test_scheme_table1_memory_spaces () =
  check "independent" true (Scheme.memory_space Scheme.Independent = "none");
  check "local" true (Scheme.memory_space Scheme.Local = "register");
  check "regional" true (Scheme.memory_space Scheme.Regional = "shared memory");
  check "global" true (Scheme.memory_space Scheme.Global = "global memory");
  check "only global barriers" true
    (Scheme.needs_global_barrier Scheme.Global
    && (not (Scheme.needs_global_barrier Scheme.Regional))
    && (not (Scheme.needs_global_barrier Scheme.Local))
    && not (Scheme.needs_global_barrier Scheme.Independent))

let test_smem_demotion_under_pressure () =
  (* many simultaneously-live reduce outputs of a wide shape exhaust the
     48KB budget: some must demote to global scratch *)
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 8; 4096 ] in
  let outs =
    List.init 6 (fun i ->
        let y = Builder.unary b (if i mod 2 = 0 then Op.Tanh else Op.Sigmoid) x in
        let r = Builder.reduce_sum b ~axes:[ 0 ] y in (* column: global *)
        let rr = Builder.reduce_sum b ~axes:[ 0 ] r in
        ignore rr;
        let rb = Builder.broadcast b r ~dims:[ 1 ] [ 8; 4096 ] in
        Builder.add b y rb)
  in
  let out = List.fold_left (Builder.add b) (List.hd outs) (List.tl outs) in
  let g = Builder.finish b ~outputs:[ out ] in
  let plan = Astitch.compile Arch.v100 g in
  Kernel_plan.check plan (* the budget invariant is part of check *)

let test_config_printing () =
  check "full string" true (String.length (Config.cache_key Config.full) > 0);
  check "atm differs" true (Config.atm_only <> Config.full);
  check "hdm differs" true (Config.no_dominant_merging <> Config.full);
  (* [compile_domains] cannot change a plan, so it names no new backend *)
  check "compile_domains names the same backend" true
    (String.equal
       (Astitch.backend ~config:{ Config.full with compile_domains = 2 } ())
         .Backend_intf.name Astitch.full_backend.Backend_intf.name)

(* --- Scope memo ------------------------------------------------------------ *)

(* A chain of softmax-like blocks [z = exp x / sum(exp x) + bias], joined
   by dots so that each block is its own depth and so its own
   remote-stitch group.  Plain blocks are copies of one scope; every
   other variant changes one fact a group's compile reads. *)
type block =
  | Plain
  | Output  (** the row sum is also a graph output *)
  | Outside_consumer
      (** a dot of [exp x] outside the scope, a graph output, makes it
          escape the scope *)
  | Dead_broadcast
      (** a dead broadcast of [exp x] outside the scope steers nothing *)
  | Computed_bias  (** the bias is a dot output, not a parameter *)
  | Dead_consumer  (** a dead [neg z] *)
  | Column_reduce  (** the sum runs over axis 0 *)

let blocks =
  [ Plain; Plain; Output; Plain; Outside_consumer; Computed_bias; Dead_consumer;
    Column_reduce; Dead_broadcast; Plain ]

(* The graph and each block's [exp] node. *)
let block_chain () =
  let n = 16 in
  let b = Builder.create () in
  let mat name = Builder.parameter b name [ n; n ] in
  let prev = ref (mat "x") and outputs = ref [] in
  let exps =
    List.mapi
      (fun i v ->
        let e = Builder.exp b (Builder.dot b !prev (mat (Printf.sprintf "w%d" i))) in
        let s = Builder.reduce_sum b ~axes:[ (if v = Column_reduce then 0 else 1) ] e in
        let y = Builder.div b e (Builder.broadcast b s ~dims:[ 0 ] [ n; n ]) in
        let bias = mat (Printf.sprintf "bias%d" i) in
        let bias = if v = Computed_bias then Builder.dot b bias (mat "v") else bias in
        let z = Builder.add b y bias in
        if v = Output then outputs := s :: !outputs;
        if v = Outside_consumer then outputs := Builder.dot b e (mat "u") :: !outputs;
        if v = Dead_broadcast then ignore (Builder.broadcast b e ~dims:[ 1; 2 ] [ 2; n; n ]);
        if v = Dead_consumer then ignore (Builder.neg b z);
        prev := z;
        e)
      blocks
  in
  (Builder.finish b ~outputs:(Builder.dot b !prev (mat "w_out") :: !outputs), exps)

(* The groups a full compile lowers, as [astitch_cli inspect] counts them. *)
let stitch_groups g = Array.of_list (Clustering.remote_stitch_groups g (Clustering.clusters g))

let distinct reps = List.length (List.sort_uniq Int.compare (Array.to_list reps))
let reused () = Astitch_obs.Metrics.(value (counter default "compile.scopes_reused"))

let test_scope_keys () =
  let g, exps = block_chain () in
  let groups = stitch_groups g in
  check_int "one group per block" (List.length blocks) (Array.length groups);
  let group_of id =
    let rec find i =
      if List.exists (fun (c : Clustering.cluster) -> List.mem id c.nodes) groups.(i) then i
      else find (i + 1)
    in
    find 0
  in
  let reps = Scope_key.representatives g groups in
  let first_plain = group_of (List.hd exps) in
  List.iter2
    (fun v e ->
      let i = group_of e in
      if v = Plain then check_int "plain copies share a key" first_plain reps.(i)
      else check_int "a changed fact gets a key of its own" i reps.(i))
    blocks exps;
  check_int "distinct scopes" 7 (distinct reps)

let test_scope_memo_compiles () =
  let g, exps = block_chain () in
  let compile ?(domains = 1) g =
    match Fallback.compile { Config.full with compile_domains = domains } Arch.v100 g with
    | Ok (plan, []) -> plan
    | _ -> Alcotest.fail "a plain compile degraded"
  in
  let compile_reusing g =
    let groups = stitch_groups g in
    let before = reused () in
    let plan = compile g in
    check_int "reused = groups - distinct"
      (Array.length groups - distinct (Scope_key.representatives g groups))
      (reused () - before);
    check "1 and 4 domains byte-identical" true
      (String.equal (Plan_codec.encode plan) (Plan_codec.encode (compile ~domains:4 g)));
    plan
  in
  ignore (compile_reusing (Astitch_workloads.Bert.tiny_training ()));
  let plan = compile_reusing g in
  check "plan passes every check" true (Kernel_plan.check_all plan = []);
  let params = Astitch_runtime.Session.random_params g in
  let ctx = Astitch_runtime.Executor.create_context ~fused:true plan in
  check "fused run bit-identical to Interp" true
    (List.for_all2 Astitch_tensor.Tensor.equal_bits
       (Astitch_runtime.Executor.run_context ctx ~params)
       (Astitch_tensor.Interp.run g ~params));
  (* the outside consumer is load-bearing: a live one moves [exp] off
     registers, so a key without it would hand out the wrong kernel; a
     dead broadcast is never lowered and leaves [exp] where a plain block
     puts it *)
  let placement e =
    List.find_map (fun k -> Kernel_plan.find_op k e) plan.kernels
    |> Option.map (fun (o : Kernel_plan.compiled_op) -> o.placement)
  in
  List.iter2
    (fun v e ->
      if v = Outside_consumer then
        check "escaping exp placed apart" true (placement e <> placement (List.hd exps));
      if v = Dead_broadcast then
        check "a dead broadcast moves nothing" true (placement e = placement (List.hd exps)))
    blocks exps

let test_scope_memo_bypassed_under_faults () =
  let g, _ = block_chain () in
  let scopes () = Astitch_obs.Metrics.(value (counter default "compile.scopes")) in
  let reused0 = reused () and scopes0 = scopes () in
  let fault = Fault_site.plan ~mode:Fault_site.Raise ~fuel:2 Fault_site.Codegen in
  (match Fault_site.with_faults [ fault ] (fun () -> Fallback.compile Config.full Arch.v100 g) with
  | Ok (plan, report) ->
      check "the fault degraded a scope" true (report <> []);
      check "degraded plan passes every check" true (Kernel_plan.check_all plan = [])
  | Error e -> Alcotest.fail (Compile_error.to_string e));
  check_int "nothing reused" reused0 (reused ());
  check_int "every group compiled" (Array.length (stitch_groups g)) (scopes () - scopes0)

let () =
  Alcotest.run "astitch"
    [
      ( "adaptive mapping",
        [
          Alcotest.test_case "packing 750000x32" `Quick test_packing_750000x32;
          Alcotest.test_case "splitting 64x30000" `Quick test_splitting_64x30000;
          Alcotest.test_case "elementwise cap" `Quick test_elementwise_capped;
          Alcotest.test_case "wave reference" `Quick test_bpw_reference;
        ] );
      ( "dominants",
        [
          Alcotest.test_case "candidates" `Quick test_dominant_candidates;
          Alcotest.test_case "merged vs cones" `Quick test_groups_merged_vs_not;
          Alcotest.test_case "prefers reduce" `Quick test_dominant_prefers_reduce;
        ] );
      ( "stitching",
        [
          Alcotest.test_case "single kernel" `Quick test_stitch_single_kernel;
          Alcotest.test_case "schemes" `Quick test_stitch_schemes_assigned;
          Alcotest.test_case "no heavy recompute" `Quick test_stitch_no_heavy_recompute;
          Alcotest.test_case "barriers legal" `Quick test_barrier_legal_always;
        ] );
      ( "memory",
        [
          Alcotest.test_case "shared demotion" `Quick test_fit_shared_demotes;
          Alcotest.test_case "scratch reuse" `Quick test_scratch_reuse;
        ] );
      ( "launch",
        [
          Alcotest.test_case "assume-relax-apply" `Quick test_launch_config_relax;
          Alcotest.test_case "shared budget" `Quick test_shared_budget;
        ] );
      ( "ablation",
        [ Alcotest.test_case "kernel monotone" `Quick test_ablation_monotone_kernels ] );
      ( "remote stitching",
        [
          Alcotest.test_case "grids add" `Quick test_remote_parts_add_grids;
          Alcotest.test_case "smem budget split" `Quick test_remote_parts_smem_budget_split;
        ] );
      ( "schemes",
        [
          Alcotest.test_case "proactive regional" `Quick test_proactive_adaptation_gives_regional;
          Alcotest.test_case "split goes global" `Quick test_split_reduce_goes_global;
          Alcotest.test_case "table 1 spaces" `Quick test_scheme_table1_memory_spaces;
          Alcotest.test_case "smem demotion" `Quick test_smem_demotion_under_pressure;
          Alcotest.test_case "config" `Quick test_config_printing;
        ] );
      ( "scope memo",
        [
          Alcotest.test_case "keys" `Quick test_scope_keys;
          Alcotest.test_case "instances compile" `Quick test_scope_memo_compiles;
          Alcotest.test_case "bypassed under faults" `Quick test_scope_memo_bypassed_under_faults;
        ] );
    ]
