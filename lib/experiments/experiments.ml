(* The per-table / per-figure reproduction harness (DESIGN.md Sec 3).

   Every function prints a paper-shaped table from freshly simulated
   results.  Graphs and compiled plans are memoized: several experiments
   look at the same (model, backend) pair. *)

open Astitch_ir
open Astitch_simt
open Astitch_plan
open Astitch_runtime
open Astitch_workloads

let arch = Arch.v100

type mode = Inference | Training | Amp_inference

let mode_to_string = function
  | Inference -> "infer"
  | Training -> "train"
  | Amp_inference -> "amp"

(* --- Backend registry ---------------------------------------------------- *)

let tf = Astitch_backends.Tf_backend.backend
let xla = Astitch_backends.Xla_backend.backend
let tvm = Astitch_backends.Tvm_backend.backend
let ansor = Astitch_backends.Tvm_backend.ansor
let trt = Astitch_backends.Trt_backend.backend
let astitch = Astitch_core.Astitch.full_backend
let atm = Astitch_core.Astitch.atm_backend
let hdm = Astitch_core.Astitch.hdm_backend

(* --- Memoized graphs and plans -------------------------------------------- *)

let graph_cache : (string, Graph.t) Hashtbl.t = Hashtbl.create 16

let graph (entry : Zoo.entry) mode =
  let key = entry.name ^ "/" ^ mode_to_string mode in
  match Hashtbl.find_opt graph_cache key with
  | Some g -> g
  | None ->
      let g =
        match mode with
        | Inference -> entry.inference ()
        | Amp_inference -> Amp.to_half (entry.inference ())
        | Training -> (
            match entry.training with
            | Some t -> t ()
            | None -> invalid_arg (entry.name ^ " has no training graph"))
      in
      Hashtbl.replace graph_cache key g;
      g

let result_cache : (string, Session.result) Hashtbl.t = Hashtbl.create 32

let result (entry : Zoo.entry) mode (backend : Backend_intf.t) =
  let key =
    entry.name ^ "/" ^ mode_to_string mode ^ "/" ^ backend.name
  in
  match Hashtbl.find_opt result_cache key with
  | Some r -> r
  | None ->
      let r = Session.compile backend arch (graph entry mode) in
      Kernel_plan.check r.plan;
      Hashtbl.replace result_cache key r;
      r

let total_ms entry mode backend =
  (result entry mode backend).profile.Profile.total_time_us /. 1000.

let models = Zoo.all
let training_models =
  List.filter (fun (e : Zoo.entry) -> e.training <> None) Zoo.all

(* --- Figure 1: ratio of memory-intensive computations --------------------- *)

let fig1 () =
  let rows =
    List.map
      (fun (e : Zoo.entry) ->
        let r = result e Inference tf in
        let p = r.profile in
        let exec = p.mem_time_us +. p.compute_time_us in
        let time_ratio = if exec > 0. then p.mem_time_us /. exec else 0. in
        let mem_k = Profile.mem_kernel_count p in
        let all_k = List.length r.plan.kernels in
        ( e.name,
          time_ratio,
          float_of_int mem_k /. float_of_int (Stdlib.max 1 all_k) ))
      models
  in
  let avg f =
    List.fold_left (fun acc r -> acc +. f r) 0. rows
    /. float_of_int (List.length rows)
  in
  Report.print_table
    ~title:
      "Figure 1: ratio of memory-intensive computations (TensorFlow baseline)"
    ~header:[ "model"; "time ratio"; "kernel-count ratio" ]
    (List.map
       (fun (name, t, k) -> [ name; Report.pct t; Report.pct k ])
       rows
    @ [
        [
          "average";
          Report.pct (avg (fun (_, t, _) -> t));
          Report.pct (avg (fun (_, _, k) -> k));
        ];
      ])

(* --- Figure 11: end-to-end speedups ---------------------------------------- *)

let speedup_row entry mode baselines =
  let base = total_ms entry mode tf in
  List.map (fun b -> base /. total_ms entry mode b) baselines

let fig11a () =
  let contenders = [ tf; xla; trt; astitch ] in
  let rows =
    List.map
      (fun (e : Zoo.entry) ->
        e.name :: List.map Report.speedup (speedup_row e Inference contenders))
      models
  in
  let geo_means =
    List.mapi
      (fun i _ ->
        let prod =
          List.fold_left
            (fun acc (e : Zoo.entry) ->
              acc *. List.nth (speedup_row e Inference contenders) i)
            1. models
        in
        prod ** (1. /. float_of_int (List.length models)))
      contenders
  in
  Report.print_table
    ~title:"Figure 11a: inference speedup over TensorFlow (higher is better)"
    ~header:[ "model"; "TF"; "XLA"; "TensorRT"; "AStitch" ]
    (rows @ [ "geo-mean" :: List.map Report.speedup geo_means ]);
  (* the headline comparison of the abstract: AStitch vs XLA *)
  let vs_xla =
    List.map
      (fun (e : Zoo.entry) ->
        total_ms e Inference xla /. total_ms e Inference astitch)
      models
  in
  let avg = List.fold_left ( +. ) 0. vs_xla /. float_of_int (List.length vs_xla) in
  let best = List.fold_left Float.max 0. vs_xla in
  Printf.printf
    "AStitch vs XLA (inference): average %.2fx, max %.2fx (paper: 1.84x avg, 2.73x max)\n\n"
    avg best

let fig11b () =
  let contenders = [ tf; xla; astitch ] in
  Report.print_table
    ~title:"Figure 11b: training speedup over TensorFlow"
    ~header:[ "model"; "TF"; "XLA"; "AStitch" ]
    (List.map
       (fun (e : Zoo.entry) ->
         e.name :: List.map Report.speedup (speedup_row e Training contenders))
       training_models)

let fig12 () =
  let contenders = [ tf; xla; trt; astitch ] in
  Report.print_table
    ~title:"Figure 12: inference speedup under AMP (all systems in f16)"
    ~header:[ "model"; "TF"; "XLA"; "TensorRT"; "AStitch" ]
    (List.map
       (fun (e : Zoo.entry) ->
         e.name
         :: List.map Report.speedup (speedup_row e Amp_inference contenders))
       models)

(* --- Figure 13: MEM / OVERHEAD breakdown ----------------------------------- *)

let fig13 () =
  Report.print_table
    ~title:
      "Figure 13: breakdown of memory-intensive time (MEM) and \
       non-computation OVERHEAD, normalized to XLA's MEM+OVERHEAD"
    ~header:[ "model"; "XLA MEM"; "XLA OVH"; "AS MEM"; "AS OVH" ]
    (List.map
       (fun (e : Zoo.entry) ->
         let px = (result e Inference xla).profile in
         let pa = (result e Inference astitch).profile in
         let base = px.mem_time_us +. px.overhead_us in
         [
           e.name;
           Report.pct (px.mem_time_us /. base);
           Report.pct (px.overhead_us /. base);
           Report.pct (pa.mem_time_us /. base);
           Report.pct (pa.overhead_us /. base);
         ])
       models)

(* --- Table 3: kernel and CPY counts ----------------------------------------- *)

let table3 () =
  let count e (b : Backend_intf.t) =
    let r = result e Inference b in
    (Profile.mem_kernel_count r.profile, Kernel_plan.cpy_count r.plan)
  in
  Report.print_table
    ~title:"Table 3: memory-intensive kernels (MEM) and memcpy/memset calls (CPY)"
    ~header:[ "model"; "XLA MEM"; "AS MEM"; "XLA CPY"; "AS CPY" ]
    (List.map
       (fun (e : Zoo.entry) ->
         let xm, xc = count e xla and am, ac = count e astitch in
         [
           e.name;
           string_of_int xm;
           string_of_int am;
           string_of_int xc;
           string_of_int ac;
         ])
       models);
  let saved =
    List.fold_left
      (fun acc (e : Zoo.entry) ->
        let xm, _ = count e xla and am, _ = count e astitch in
        acc +. (1. -. (float_of_int am /. float_of_int xm)))
      0. models
    /. float_of_int (List.length models)
  in
  Printf.printf
    "Average memory-intensive kernel calls saved: %.1f%% (paper: 65.7%%)\n\n"
    (100. *. saved)

(* --- Figure 14: parallelism of the top-80%% kernels -------------------------- *)

let fig14 () =
  Report.print_table
    ~title:
      "Figure 14: average occupancy / SM efficiency of top-80% \
       memory-intensive kernels"
    ~header:[ "model"; "XLA occ"; "AS occ"; "XLA effi"; "AS effi" ]
    (List.map
       (fun (e : Zoo.entry) ->
         let top b = Profile.top_mem_kernels ~frac:0.8 (result e Inference b).profile in
         let tx = top xla and ta = top astitch in
         [
           e.name;
           Report.pct (Profile.avg_occupancy tx);
           Report.pct (Profile.avg_occupancy ta);
           Report.pct (Profile.avg_sm_efficiency tx);
           Report.pct (Profile.avg_sm_efficiency ta);
         ])
       models)

(* --- Table 4: CRNN ablation --------------------------------------------------- *)

let table4 () =
  let crnn = List.find (fun (e : Zoo.entry) -> e.name = "CRNN") models in
  let rows =
    List.map
      (fun (label, b) -> [ label; Report.ms_of_us (total_ms crnn Inference b *. 1000.) ])
      [ ("XLA", xla); ("+ATM", atm); ("+HDM", hdm); ("AStitch", astitch) ]
  in
  Report.print_table
    ~title:
      "Table 4: CRNN ablation (XLA -> +adaptive thread mapping -> \
       +hierarchical data management -> +dominant merging)"
    ~header:[ "configuration"; "time" ] rows

(* Design-choice ablation across every model: the Table 4 ladder applied
   to all five workloads (inference). *)
let ablation () =
  Report.print_table
    ~title:
      "Ablation across all models: inference time under \
       XLA / +ATM / +HDM / full AStitch"
    ~header:[ "model"; "XLA"; "+ATM"; "+HDM"; "AStitch"; "AS vs XLA" ]
    (List.map
       (fun (e : Zoo.entry) ->
         let t b = total_ms e Inference b in
         [
           e.name;
           Report.ms_of_us (t xla *. 1000.);
           Report.ms_of_us (t atm *. 1000.);
           Report.ms_of_us (t hdm *. 1000.);
           Report.ms_of_us (t astitch *. 1000.);
           Report.speedup (t xla /. t astitch);
         ])
       models)

(* --- Figures 15/16: per-kernel occupancy / efficiency trends ------------------ *)

let trend ~title entry backend_a label_a backend_b label_b =
  let series b =
    Profile.mem_kernels_by_time (result entry Inference b).profile
  in
  let sa = series backend_a and sb = series backend_b in
  let n = Stdlib.min 15 (Stdlib.max (List.length sa) (List.length sb)) in
  let cell s i =
    match List.nth_opt s i with
    | None -> [ "-"; "-" ]
    | Some (kp : Profile.kernel_profile) ->
        [
          Report.pct kp.estimate.Cost_model.occupancy;
          Report.pct kp.estimate.Cost_model.sm_efficiency;
        ]
  in
  Report.print_table ~title
    ~header:
      [
        "rank";
        label_a ^ " occ";
        label_a ^ " effi";
        label_b ^ " occ";
        label_b ^ " effi";
      ]
    (List.init n (fun i -> string_of_int (i + 1) :: (cell sa i @ cell sb i)));
  Printf.printf "(%s: %d memory-intensive kernels; %s: %d)\n\n" label_a
    (List.length sa) label_b (List.length sb)

let fig15 () =
  let crnn = List.find (fun (e : Zoo.entry) -> e.name = "CRNN") models in
  trend
    ~title:
      "Figure 15: CRNN occupancy & SM-efficiency per kernel (descending time)"
    crnn xla "XLA" astitch "AS"

let fig16 () =
  let bert = List.find (fun (e : Zoo.entry) -> e.name = "BERT") models in
  trend
    ~title:
      "Figure 16: BERT occupancy & SM-efficiency per kernel (descending time)"
    bert ansor "Ansor" astitch "AS"

(* --- Table 5: CRNN performance counters ---------------------------------------- *)

let table5 () =
  let crnn = List.find (fun (e : Zoo.entry) -> e.name = "CRNN") models in
  let counters b = Profile.mem_counters (result crnn Inference b).profile in
  let cx = counters xla and ca = counters astitch in
  Report.print_table
    ~title:"Table 5: total counters over CRNN memory-intensive kernels"
    ~header:[ "counter"; "XLA"; "AStitch"; "AS/XLA" ]
    [
      [
        "dram_read_transactions";
        string_of_int cx.dram_read_transactions;
        string_of_int ca.dram_read_transactions;
        Report.f2
          (float_of_int ca.dram_read_transactions
          /. float_of_int (Stdlib.max 1 cx.dram_read_transactions));
      ];
      [
        "dram_write_transactions";
        string_of_int cx.dram_write_transactions;
        string_of_int ca.dram_write_transactions;
        Report.f2
          (float_of_int ca.dram_write_transactions
          /. float_of_int (Stdlib.max 1 cx.dram_write_transactions));
      ];
      [
        "inst_fp_32";
        string_of_int cx.inst_fp32;
        string_of_int ca.inst_fp32;
        Report.f2 (float_of_int ca.inst_fp32 /. float_of_int (Stdlib.max 1 cx.inst_fp32));
      ];
    ]

(* --- Sec 6.2: the Ansor case study ---------------------------------------------- *)

let ansor_case_study () =
  let bert = List.find (fun (e : Zoo.entry) -> e.name = "BERT") models in
  let ra = result bert Inference ansor and rs = result bert Inference astitch in
  let ka = Profile.mem_kernel_count ra.profile in
  let ks = Profile.mem_kernel_count rs.profile in
  let ca = Profile.mem_counters ra.profile and cs = Profile.mem_counters rs.profile in
  let trans c = c.Profile.dram_read_transactions + c.Profile.dram_write_transactions in
  Report.print_table ~title:"Sec 6.2: Ansor case study on BERT inference"
    ~header:[ "metric"; "Ansor"; "AStitch" ]
    [
      [
        "end-to-end";
        Report.ms_of_us ra.profile.Profile.total_time_us;
        Report.ms_of_us rs.profile.Profile.total_time_us;
      ];
      [ "MEM kernels"; string_of_int ka; string_of_int ks ];
      [
        "total dram transactions";
        string_of_int (trans ca);
        string_of_int (trans cs);
      ];
    ];
  Printf.printf
    "AStitch speedup %.2fx end-to-end (paper: 1.3x), %.2fx on \
     memory-intensive computations (paper: 1.4x); kernels saved %.0f%% \
     (paper: 53%%); transactions saved %.0f%% (paper: ~40%%)\n\n"
    (ra.profile.Profile.total_time_us /. rs.profile.Profile.total_time_us)
    (ra.profile.Profile.mem_time_us /. rs.profile.Profile.mem_time_us)
    (100. *. (1. -. (float_of_int ks /. float_of_int ka)))
    (100. *. (1. -. (float_of_int (trans cs) /. float_of_int (trans ca))))

(* --- Table 6: global-barrier overhead --------------------------------------------- *)

let table6 () =
  Report.print_table
    ~title:"Table 6: in-kernel global barrier cost (block size 1024, V100)"
    ~header:[ "#blocks"; "time (us)" ]
    (List.map
       (fun blocks ->
         [ string_of_int blocks; Report.f2 (Barrier.cost_us ~blocks) ])
       [ 20; 40; 60; 80; 100; 120; 140; 160 ])

(* --- Figure 6 / Figure 8: the irregular-shape pathologies -------------------------- *)

let fig6 () =
  let reduce_case rows cols =
    let b = Builder.create () in
    let x = Builder.parameter b "x" [ rows; cols ] in
    let r = Builder.reduce_sum b ~axes:[ 1 ] x in
    Builder.finish b ~outputs:[ r ]
  in
  let describe g (backend : Backend_intf.t) =
    let res = Session.compile backend arch g in
    let kp =
      List.hd (Profile.mem_kernels_by_time res.profile)
    in
    let l = kp.kernel.launch in
    ( Printf.sprintf "<<<%d, %d>>>" l.Launch.grid l.Launch.block,
      kp.estimate.Cost_model.occupancy,
      kp.estimate.Cost_model.sm_efficiency,
      kp.estimate.Cost_model.exec_time_us )
  in
  let row name g (backend : Backend_intf.t) =
    let launch, occ, eff, t = describe g backend in
    [ name; backend.name; launch; Report.pct occ; Report.pct eff; Report.us t ]
  in
  let g1 = reduce_case 750_000 32 in
  let g2 = reduce_case 64 30_000 in
  Report.print_table
    ~title:
      "Figures 6/8: irregular row-reduce shapes - naive (XLA) vs adaptive \
       (AStitch) thread mapping"
    ~header:[ "shape"; "backend"; "launch"; "occupancy"; "sm-eff"; "exec" ]
    [
      row "<750000,32>" g1 xla;
      row "<750000,32>" g1 astitch;
      row "<64,30000>" g2 xla;
      row "<64,30000>" g2 astitch;
    ]

(* --- Intro claim: memory-intensive ratio grows on A100 ------------------------------ *)

(* "the average portion of execution time contributed by memory-intensive
   operations increases to as high as 76.7% on A100": the compute/bandwidth
   ratio grew 5.6x from V100, so the same graphs get more memory-bound. *)
let fig1_a100 () =
  let ratio arch (e : Zoo.entry) =
    let plan = tf.compile arch (graph e Inference) in
    let p = Astitch_runtime.Profile.profile ~config:tf.cost_config plan in
    let exec = p.mem_time_us +. p.compute_time_us in
    if exec > 0. then p.mem_time_us /. exec else 0.
  in
  let rows =
    List.map
      (fun (e : Zoo.entry) -> (e.name, ratio Arch.v100 e, ratio Arch.a100 e))
      models
  in
  let avg f =
    List.fold_left (fun acc r -> acc +. f r) 0. rows
    /. float_of_int (List.length rows)
  in
  Report.print_table
    ~title:
      "Intro claim: memory-intensive time ratio, V100 vs A100 (compute \
       outpaces bandwidth across generations)"
    ~header:[ "model"; "V100"; "A100" ]
    (List.map (fun (n, v, a) -> [ n; Report.pct v; Report.pct a ]) rows
    @ [
        [
          "average";
          Report.pct (avg (fun (_, v, _) -> v));
          Report.pct (avg (fun (_, _, a) -> a));
        ];
      ])

(* --- T4 inference (Sec 6.1.1: "we have evaluated AStitch on NVIDIA T4") ------------- *)

let t4_inference () =
  let contenders = [ tf; xla; trt; astitch ] in
  let time (b : Backend_intf.t) g =
    let plan = b.compile Arch.t4 g in
    (Astitch_runtime.Profile.profile ~config:b.cost_config plan)
      .Astitch_runtime.Profile.total_time_us
  in
  Report.print_table
    ~title:"T4 inference speedup over TensorFlow (production inference GPU)"
    ~header:[ "model"; "TF"; "XLA"; "TensorRT"; "AStitch" ]
    (List.map
       (fun (e : Zoo.entry) ->
         let g = graph e Inference in
         let base = time tf g in
         e.name
         :: List.map (fun b -> Report.speedup (base /. time b g)) contenders)
       models)

(* --- CUDA Graph comparison (Sec 7 related work) --------------------------------------- *)

let cuda_graph () =
  let cg = Astitch_backends.Cuda_graph_backend.backend in
  Report.print_table
    ~title:
      "CUDA-Graph comparison: binding kernels removes launch overhead but \
       not off-chip traffic - stitching removes both"
    ~header:[ "model"; "XLA"; "XLA+CUDA-Graph"; "AStitch" ]
    (List.map
       (fun (e : Zoo.entry) ->
         let base = total_ms e Inference tf in
         [
           e.name;
           Report.speedup (base /. total_ms e Inference xla);
           Report.speedup (base /. total_ms e Inference cg);
           Report.speedup (base /. total_ms e Inference astitch);
         ])
       models)

(* --- Sec 6.3: production-cluster simulation ------------------------------------------- *)

(* The paper deploys AStitch on a cluster and reports ~20,000 GPU hours
   saved over 70,000 weekly tasks.  We simulate a weekly job mix over the
   five model families (23% distributed jobs consuming 56% of GPU time,
   as reported) and integrate the per-iteration savings. *)
let production () =
  let weekly_tasks = 70_000 in
  (* job mix: transformer-based, recommendation and RNN models dominate *)
  let mix =
    [ ("BERT", 0.25); ("Transformer", 0.20); ("DIEN", 0.30); ("ASR", 0.10);
      ("CRNN", 0.15) ]
  in
  let iterations_per_task = 50_000 in
  let rows, total_saved =
    List.fold_left
      (fun (rows, acc) (name, share) ->
        let e = List.find (fun (e : Zoo.entry) -> e.name = name) models in
        let mode = if e.training = None then Inference else Training in
        let tf_ms = total_ms e mode tf in
        let as_ms = total_ms e mode astitch in
        let tasks = float_of_int weekly_tasks *. share in
        let saved_hours =
          tasks
          *. float_of_int iterations_per_task
          *. (tf_ms -. as_ms) /. 1000. /. 3600.
        in
        ( rows
          @ [
              [
                name;
                (match mode with Training -> "train" | _ -> "infer");
                Printf.sprintf "%.0f" tasks;
                Report.ms_of_us (tf_ms *. 1000.);
                Report.ms_of_us (as_ms *. 1000.);
                Printf.sprintf "%.0f h" saved_hours;
              ];
            ],
          acc +. saved_hours ))
      ([], 0.) mix
  in
  Report.print_table
    ~title:
      (Printf.sprintf
         "Sec 6.3: simulated production week (%d tasks, %d iterations each)"
         weekly_tasks iterations_per_task)
    ~header:[ "family"; "mode"; "tasks"; "TF iter"; "AS iter"; "GPU-h saved" ]
    rows;
  Printf.printf
    "Total simulated GPU hours saved per week: %.0f (paper: ~20,000 on its \
     own task mix and iteration counts)\n\n"
    total_saved

(* --- Memory planning: scratch-arena reuse ---------------------------------------------- *)

let memory_reuse () =
  Report.print_table
    ~title:
      "Global-scratch arena after liveness reuse (AStitch stitch kernels; \
       naive = sum of buffered intermediates)"
    ~header:[ "model"; "naive bytes"; "arena bytes"; "reuse" ]
    (List.map
       (fun (e : Zoo.entry) ->
         let r = result e Inference astitch in
         let naive, arena =
           List.fold_left
             (fun (naive, arena) (k : Kernel_plan.kernel) ->
               let n =
                 List.fold_left
                   (fun acc (o : Kernel_plan.compiled_op) ->
                     if o.placement = Kernel_plan.Global_scratch then
                       acc + Graph.bytes r.plan.graph o.id
                     else acc)
                   0 k.ops
               in
               (naive + n, arena + k.scratch_bytes))
             (0, 0) r.plan.kernels
         in
         [
           e.name;
           string_of_int naive;
           string_of_int arena;
           (if naive = 0 then "-"
            else Report.pct (1. -. (float_of_int arena /. float_of_int naive)));
         ])
       models)

(* --- Sec 6.4.1: optimization (compilation) overhead --------------------------------- *)

let compile_overhead () =
  (* median of several runs; single sub-millisecond compiles are noisy *)
  let time f =
    let runs =
      List.init 7 (fun _ ->
          let t0 = Astitch_obs.Clock.now_us () in
          let x = f () in
          ignore x;
          (Astitch_obs.Clock.now_us () -. t0) *. 1e-6)
      |> List.sort compare
    in
    List.nth runs 3
  in
  (* synthetic graphs grow in nodes but form a handful of clusters; the
     training graphs form hundreds, which is where pass cost that grows
     with clusters would show *)
  let row name g =
    let tx = time (fun () -> xla.compile arch g) in
    let ta = time (fun () -> astitch.compile arch g) in
    [
      name;
      string_of_int (Graph.num_nodes g);
      string_of_int (List.length (Clustering.clusters g));
      Printf.sprintf "%.1fms" (tx *. 1000.);
      Printf.sprintf "%.1fms" (ta *. 1000.);
      Report.f2 (ta /. Float.max 1e-9 tx);
    ]
  in
  Report.print_table
    ~title:
      "Sec 6.4.1: optimization overhead on synthetic and training graphs \
       (one-time, per-graph compilation wall time)"
    ~header:
      [ "graph"; "nodes"; "clusters"; "XLA passes"; "AStitch passes"; "ratio" ]
    (List.map
       (fun nodes ->
         row "synthetic" (Synthetic.random_graph ~seed:17 ~nodes ()))
       [ 1_000; 2_000; 5_000; 10_000 ]
    @ List.filter_map
        (fun (e : Zoo.entry) ->
          Option.map (fun _ -> row (e.name ^ "-train") (graph e Training))
            e.training)
        Zoo.all)

(* --- JIT amortization (the Sec 6.4.1 argument, quantified) ----------------------------- *)

(* "the overhead of AStitch is introduced only once for all following
   iterations": measure the iteration count at which one-time compilation
   pays for itself against eager TensorFlow. *)
let amortization () =
  let compile_seconds (b : Backend_intf.t) g =
    let runs =
      List.init 5 (fun _ ->
          let t0 = Astitch_obs.Clock.now_us () in
          ignore (b.compile arch g);
          (Astitch_obs.Clock.now_us () -. t0) *. 1e-6)
      |> List.sort compare
    in
    (* scale our pass time to the paper's reported magnitudes: the real
       systems also run LLVM codegen (XLA ~30s, AStitch ~90s on 5-10k
       node graphs); we only keep the relative shape *)
    List.nth runs 2 *. 30_000.
  in
  Report.print_table
    ~title:
      "JIT amortization: iterations needed before one-time compilation \
       beats eager TensorFlow (compile time scaled to include codegen)"
    ~header:[ "model"; "XLA compile"; "AS compile"; "XLA break-even"; "AS break-even" ]
    (List.map
       (fun (e : Zoo.entry) ->
         let g = graph e Inference in
         let tf_ms = total_ms e Inference tf in
         let break_even compile_s iter_ms =
           if iter_ms >= tf_ms then "never"
           else
             string_of_int
               (int_of_float
                  (Float.round (compile_s *. 1000. /. (tf_ms -. iter_ms))))
         in
         let cx = compile_seconds xla g and ca = compile_seconds astitch g in
         [
           e.name;
           Printf.sprintf "%.1fs" cx;
           Printf.sprintf "%.1fs" ca;
           break_even cx (total_ms e Inference xla);
           break_even ca (total_ms e Inference astitch);
         ])
       models)

(* --- Driver --------------------------------------------------------------------------- *)

let all : (string * string * (unit -> unit)) list =
  [
    ("fig1", "ratio of memory-intensive computations", fig1);
    ("fig6", "irregular-shape thread mappings (also Fig 8)", fig6);
    ("fig11a", "end-to-end inference speedup", fig11a);
    ("fig11b", "end-to-end training speedup", fig11b);
    ("fig12", "inference speedup under AMP", fig12);
    ("fig13", "MEM/OVERHEAD breakdown", fig13);
    ("table3", "kernel and CPY counts", table3);
    ("fig14", "top-80% parallelism averages", fig14);
    ("table4", "CRNN ablation", table4);
    ("ablation", "Table 4 ladder across all models", ablation);
    ("fig15", "CRNN per-kernel trends", fig15);
    ("fig16", "BERT per-kernel trends (vs Ansor)", fig16);
    ("table5", "CRNN performance counters", table5);
    ("ansor", "Ansor case study (Sec 6.2)", ansor_case_study);
    ("table6", "global barrier overhead", table6);
    ("overhead", "compilation overhead (Sec 6.4.1)", compile_overhead);
    ("fig1-a100", "memory-intensive ratio V100 vs A100 (intro)", fig1_a100);
    ("t4", "T4 inference speedups", t4_inference);
    ("cudagraph", "CUDA-Graph launch-overhead-only comparison", cuda_graph);
    ("production", "production-cluster week simulation (Sec 6.3)", production);
    ("memory", "scratch-arena reuse from the memory planner", memory_reuse);
    ("amortization", "JIT compile-cost break-even points", amortization);
  ]

let run name =
  match List.find_opt (fun (n, _, _) -> n = name) all with
  | Some (_, _, f) -> f ()
  | None ->
      let names = String.concat ", " (List.map (fun (n, _, _) -> n) all) in
      Astitch_plan.Compile_error.fail ~pass:"experiments"
        Astitch_plan.Compile_error.Unknown_name
        "unknown experiment %S (available: %s)" name names

let run_all () =
  List.iter
    (fun (name, _, f) ->
      Printf.printf ">>> %s\n" name;
      f ())
    all
