(* Workload "compile": closed loop, one caller, sweeps of Astitch.compile
   (full config, V100, one compile domain) over the five inference graphs
   and the three training graphs of the zoo.  Compiler passes do all the
   work here and none of it in the serving steady state; the training
   graphs are where global stitching and regional demotion fire. *)

open Astitch_simt
module Stats = Bench_stats.Stats
module Astitch = Astitch_core.Astitch
module Config = Astitch_core.Config

let passes =
  [
    "clustering";
    "remote-stitching";
    "dominant-grouping";
    "schedule-propagation";
    "locality-placement";
    "mem-planning";
    "launch-config";
    "codegen";
    "kernel-schedule";
    "parallel-map";
  ]

let builders =
  List.map
    (fun (e : Astitch_workloads.Zoo.entry) -> (e.name, e.inference))
    Astitch_workloads.Zoo.all
  @ List.filter_map
      (fun (e : Astitch_workloads.Zoo.entry) ->
        Option.map (fun f -> (e.name ^ "-train", f)) e.training)
      Astitch_workloads.Zoo.all

(* Compile [g] inside a bench span named after it, so traced runs can
   attribute compile passes to the call that caused them. *)
let compile_graph ~config name g =
  Common.span ("compile:" ^ name) (fun () -> Astitch.compile ~config Arch.v100 g)

let is_compile_root r = String.starts_with ~prefix:"bench/compile:" r

(* Per-pass self time (ms per [units]) of every compile under the
   roots [root] accepts; "other" collects compile-phase spans outside the
   pass list, the session wrapper and the bench span's own self time, so
   the rows sum to the compile calls' wall time when the roots are the
   bench compile spans. *)
let pass_metrics r layers ~root ~units =
  let by_layer = Layers.self_by_layer layers ~root in
  let per ns = ns /. 1e6 /. float_of_int (Stdlib.max 1 units) in
  let pass_ns p = Option.value ~default:0. (List.assoc_opt ("compile/" ^ p) by_layer) in
  List.iter (fun p -> Common.add r ("compile.pass." ^ p ^ "_ms") "ms" (per (pass_ns p))) passes;
  let other =
    List.fold_left
      (fun acc (l, ns) ->
        let phase = List.hd (String.split_on_char '/' l) in
        if
          (phase = "compile" || phase = "session" || is_compile_root l)
          && not (List.exists (fun p -> l = "compile/" ^ p) passes)
        then acc +. ns
        else acc)
      0. by_layer
  in
  Common.add r "compile.pass.other_ms" "ms" (per other);
  List.fold_left (fun acc p -> acc +. per (pass_ns p)) (per other) passes

(* The compile configuration of every timed compile: one domain.  On a
   2-core machine a second domain saved 4% of a sweep when the machine
   was quiet, and halved the sweep rate when one busy thread of another
   process shared it, which moved a sequential sweep by 1%.  The traced
   run compares the recommended domain count with this one. *)
let config = { Config.full with compile_domains = 1 }

let build_graphs () = Array.of_list (List.map (fun (name, build) -> (name, build ())) builders)

let run (cfg : Common.config) =
  let r = Common.new_result () in
  let n = List.length builders in
  let order =
    let st = Random.State.make [| cfg.seed; 0xC0 |] in
    let a = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  let plans = Array.make n None in
  (* Every graph once, in the seeded order; [record] takes each graph's
     compile time times [speed ()], read before the call.  Returns the sum
     of the recorded times. *)
  let sweep ?(speed = fun () -> 1.) ~config graphs record =
    Array.fold_left
      (fun total i ->
        let name, g = graphs.(i) in
        r.attempted <- r.attempted + 1;
        let s = speed () in
        match Common.time (fun () -> compile_graph ~config name g) with
        | plan, dt ->
            record i (dt *. s);
            plans.(i) <- Some plan;
            total +. (dt *. s)
        | exception e ->
            plans.(i) <- None;
            Common.fail r 1 (name ^ ": " ^ Printexc.to_string e);
            total)
      0. order
  in
  (* Sweeps until [until], at least one, each filed in [sweeps]; per-graph
     compile times at reference speed. *)
  let gauge = Speed.gauge () in
  let loop ~config graphs ~until sweeps =
    let t = Common.sample_sets n in
    let first = ref true in
    while !first || Common.now_s () < until do
      first := false;
      Stats.Samples.add sweeps
        (sweep ~speed:(fun () -> Speed.read gauge) ~config graphs (fun i dt -> Stats.Samples.add t.(i) dt))
    done;
    t
  in
  (* Sweeps in every 2 s slice of the window on the first CPU. *)
  let sweeps = Stats.Samples.create () in
  let slices =
    Affinity.on_main (fun () ->
        Common.sliced r ~seconds:(Common.window cfg) ~slice_s:2. ~cpus:[ 0 ] ~setup:build_graphs
          (fun graphs ~until -> loop ~config graphs ~until sweeps))
    |> Array.map snd
  in
  let sweeps = Stats.Samples.sorted sweeps in
  let pooled = Common.closed_loop_figures r slices in
  let sweep_ms = Common.ms (Stats.quantile sweeps 0.5) in
  Common.add r "compile.sweep_ms" "ms" sweep_ms;
  Common.add r "compile.sweeps" "count" (float_of_int (Array.length sweeps));
  Common.add r "compile.domains" "count" (float_of_int config.Config.compile_domains);
  let medians = Common.medians pooled in
  List.iteri (fun i (name, _) -> Common.add r ("compile." ^ name ^ "_ms") "ms" (Common.ms medians.(i))) builders;
  (* every plan of the last sweep must satisfy every structural invariant *)
  let kernels = ref 0 and sim_total = ref 0. in
  List.iteri
    (fun i (name, _) ->
      match plans.(i) with
      | None -> ()
      | Some plan ->
          let violations = Astitch_plan.Kernel_plan.check_all plan in
          Common.fail r (List.length violations) (name ^ ": Kernel_plan.check_all violations");
          kernels := !kernels + List.length plan.Astitch_plan.Kernel_plan.kernels;
          let sim =
            (Astitch_runtime.Profile.profile ~config:Astitch.cost_config plan)
              .Astitch_runtime.Profile.total_time_us
          in
          sim_total := !sim_total +. sim;
          Common.add r ("sim." ^ name ^ "_us") "us" sim)
    builders;
  Common.add r "sim.total_us" "us" !sim_total;
  Common.add r "plan.kernels" "count" (float_of_int !kernels);
  if cfg.trace then begin
    (* layer leg: sweeps on the recommended domain count, each after one
       on [config]'s single domain, so drift of the machine reaches both
       alike *)
    let graphs = build_graphs () in
    let seq = Stats.Samples.create () and par = Stats.Samples.create () in
    let ignore_graph _ _ = () in
    let t_end = Common.now_s () +. Common.window cfg in
    while Stats.Samples.length par = 0 || Common.now_s () < t_end do
      Stats.Samples.add seq (sweep ~config graphs ignore_graph);
      Stats.Samples.add par (sweep ~config:(Config.auto_domains ()) graphs ignore_graph)
    done;
    let median s = Common.ms (Stats.quantile (Stats.Samples.sorted s) 0.5) in
    let seq_ms = median seq and par_ms = median par in
    Common.add r "compile.seq_ms" "ms" seq_ms;
    Common.add r "compile.par_ms" "ms" par_ms;
    (* traced leg: one chunk per sweep, each after an untraced sweep that
       the overhead is measured against *)
    let layers = Layers.create ~capacity:(1 lsl 17) () in
    let plain = Common.sample_sets n and times = Common.sample_sets n in
    let traced = Stats.Samples.create () in
    let t_end = Common.now_s () +. Common.window cfg in
    while Stats.Samples.length traced = 0 || Common.now_s () < t_end do
      ignore (sweep ~config graphs (fun i dt -> Stats.Samples.add plain.(i) dt));
      Stats.Samples.add traced
        (Layers.chunk layers (fun () -> sweep ~config graphs (fun i dt -> Stats.Samples.add times.(i) dt)))
    done;
    let sweeps_traced = Stats.Samples.length traced in
    let rows_ms = pass_metrics r layers ~root:is_compile_root ~units:sweeps_traced in
    let traced_mean = Common.ms (Stats.Samples.sum traced) /. float_of_int sweeps_traced in
    Common.add r "trace.overhead_pct" "%" (Common.overhead_pct ~traced:times ~plain);
    Layers.write layers ~dir:cfg.out_dir ~workload:"compile"
      [
        { label = "traced sweeps"; value = float_of_int sweeps_traced; unit = "count" };
        { label = "mean traced sweep (wall)"; value = traced_mean; unit = "ms" };
        { label = "sum of pass rows incl. other"; value = rows_ms; unit = "ms" };
        {
          label = "rows vs wall gap";
          value = 100. *. ((rows_ms /. traced_mean) -. 1.);
          unit = "%";
        };
        { label = "median sequential sweep, interleaved"; value = seq_ms; unit = "ms" };
        {
          label = Printf.sprintf "median sweep on %d domains, interleaved" (Config.auto_domains ()).compile_domains;
          value = par_ms;
          unit = "ms";
        };
        { label = "median sweep, untraced window, at reference speed"; value = sweep_ms; unit = "ms" };
      ];
    if Layers.dropped layers > 0 then Common.fail r 1 "trace records dropped"
  end;
  r
