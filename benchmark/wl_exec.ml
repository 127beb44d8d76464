(* Workload "exec": closed loop, one caller, fused Executor.run_context
   on the five zoo models at batch 8 plus the ASR and DIEN
   shared-memory-overflow shapes, interleaved round-robin so machine
   drift hits every graph alike.  The executor, its tape and scalar
   evaluation do nearly all the work, with no compile or scheduler in
   the loop; the overflow shapes take the global-scratch and barrier
   paths the small shapes bypass. *)

open Astitch_runtime
module Stats = Bench_stats.Stats
module Interp = Astitch_tensor.Interp

let builders =
  List.map
    (fun (e : Astitch_workloads.Zoo.entry) -> (e.name, fun () -> e.batched ~batch:8))
    Astitch_workloads.Zoo.all
  @ [
      ("ASR-overflow", Astitch_workloads.Asr.overflow);
      ("DIEN-overflow", Astitch_workloads.Dien.overflow);
    ]

(* A graph with its seeded parameters and its reference outputs, built
   once per run. *)
type graph = {
  name : string;
  g : Astitch_ir.Graph.t;
  params : (string * Astitch_tensor.Tensor.t) list;
  expect : Astitch_tensor.Tensor.t list;
}

let prepare ~seed =
  List.mapi
    (fun i (name, build) ->
      let g = build () in
      let params = Session.random_params ~seed:(seed + (1000 * i)) g in
      { name; g; params; expect = Interp.run g ~params })
    builders
  |> Array.of_list

type live = { plan : Astitch_plan.Kernel_plan.t; ctx : Executor.context }

(* The set-up: compile every graph and create its context; also the
   summed context-creation time. *)
let setup ~config graphs =
  let create_s = ref 0. in
  let live =
    Array.map
      (fun x ->
        let plan = Wl_compile.compile_graph ~config x.name x.g in
        let ctx, dt =
          Common.time (fun () ->
              Common.span ("create_context:" ^ x.name) (fun () -> Executor.create_context plan))
        in
        create_s := !create_s +. dt;
        { plan; ctx })
      graphs
  in
  (live, !create_s)

let check r graphs live what =
  Array.iteri
    (fun i x ->
      r.Common.attempted <- r.Common.attempted + 1;
      match Executor.run_context live.(i).ctx ~params:x.params with
      | out ->
          if not (Common.same_outputs out x.expect) then
            Common.fail r 1
              (Printf.sprintf "%s: fused outputs differ from Interp.run (%s)" x.name what)
      | exception e -> Common.fail r 1 (x.name ^ ": " ^ Printexc.to_string e))
    graphs

(* Round-robin over [calls] until [until] (at least one full round);
   per-call seconds times [speed ()], read before the call. *)
let loop ?(speed = fun () -> 1.) r calls ~until ~start =
  let n = Array.length calls in
  let t = Common.sample_sets n in
  let k = ref start and runs = ref 0 in
  while !runs < n || Common.now_s () < until do
    let i = !k mod n in
    let name, call = calls.(i) in
    let s = speed () in
    let t0 = Common.now_s () in
    (match call () with
    | out -> ignore (Sys.opaque_identity out)
    | exception e -> Common.fail r 1 (name ^ ": " ^ Printexc.to_string e));
    Stats.Samples.add t.(i) ((Common.now_s () -. t0) *. s);
    incr k;
    incr runs
  done;
  r.Common.attempted <- r.Common.attempted + !runs;
  t

let for_seconds s = Common.now_s () +. s

let fused_calls graphs live =
  Array.mapi
    (fun i x ->
      ( x.name,
        fun () ->
          Common.span ("exec:" ^ x.name) (fun () -> Executor.run_context live.(i).ctx ~params:x.params) ))
    graphs

(* Split each graph's traced bench spans into their layers, per run.
   The rows are means, so they are set beside the mean of the same
   traced calls timed from outside; the medians follow for reference. *)
let reconcile layers graphs ~setups ~(traced : Stats.Samples.t array) ~untraced =
  let rows =
    Array.to_list graphs
    |> List.map (fun x ->
           let bench = "bench/exec:" ^ x.name in
           let root l = l = bench in
           let runs = float_of_int (Stdlib.max 1 (Layers.count layers ~root bench)) in
           let self l = Layers.self_ns layers ~root l /. 1e3 /. runs in
           (x.name, Layers.total_ns layers ~root bench /. 1e3 /. runs, self "exec/kernel",
            self "exec/run-context", self "exec/rebind", self bench))
  in
  let row_geo = Stats.geomean (List.map (fun (_, t, _, _, _, _) -> t) rows) in
  let timed_geo =
    Common.us
      (Stats.geomean
         (Array.to_list
            (Array.map (fun s -> Stats.Samples.sum s /. float_of_int (Stats.Samples.length s)) traced)))
  in
  List.concat_map
    (fun (name, total, kern, rc, rb, bench) ->
      [
        { Layers.label = name ^ " mean traced run"; value = total; unit = "us" };
        { label = name ^ "   kernels self"; value = kern; unit = "us" };
        { label = name ^ "   run-context self"; value = rc; unit = "us" };
        { label = name ^ "   rebind self"; value = rb; unit = "us" };
        { label = name ^ "   bench span self"; value = bench; unit = "us" };
      ])
    rows
  @ [
      { label = "geomean of per-graph mean rows"; value = row_geo; unit = "us" };
      { label = "geomean of per-graph mean traced runs (timed outside)"; value = timed_geo; unit = "us" };
      { label = "rows vs timed gap"; value = 100. *. ((row_geo /. timed_geo) -. 1.); unit = "%" };
      {
        label = "traced run_us (geomean of medians)";
        value = Common.us (Option.get (Common.geomean_quantile traced 0.5));
        unit = "us";
      };
      {
        label = "untraced run_us (geomean of medians, at reference speed)";
        value = Common.us untraced;
        unit = "us";
      };
      {
        label = "create-context spans per traced set-up";
        value = Layers.total_ns layers "exec/create-context" /. 1e3 /. float_of_int setups;
        unit = "us";
      };
    ]

let run (cfg : Common.config) =
  let r = Common.new_result () in
  let config = Wl_compile.config in
  let graphs = prepare ~seed:cfg.seed in
  let creates = Stats.Samples.create () in
  let last = ref [||] in
  let gauge = Speed.gauge () in
  let slices =
    Affinity.on_main (fun () ->
        Common.sliced r ~seconds:(Common.window cfg) ~slice_s:1. ~cpus:[ 0 ]
          ~setup:(fun () -> setup ~config graphs)
          (fun (live, create_s) ~until ->
            Stats.Samples.add creates create_s;
            last := live;
            check r graphs live "set-up";
            let t =
              loop ~speed:(fun () -> Speed.read gauge) r (fused_calls graphs live) ~until ~start:cfg.seed
            in
            check r graphs live "after the timed loop";
            t))
    |> Array.map snd
  in
  let live = !last in
  Common.add r "exec.create_context_us" "us"
    (Common.us (Stats.quantile (Stats.Samples.sorted creates) 0.5));
  let pooled = Common.closed_loop_figures r slices in
  let med = Common.medians pooled in
  let run_s = Stats.geomean (Array.to_list med) in
  Array.iteri (fun i x -> Common.add r ("exec.fused." ^ x.name ^ "_us") "us" (Common.us med.(i))) graphs;
  (* executor counters per run, summed over the graphs, from the last
     slice's contexts.  Staged bytes and barriers accumulate over a
     context's runs: the slice's loop plus the two checks. *)
  let last_slice = slices.(Array.length slices - 1) in
  let sum ?(cumulative = false) f =
    Array.mapi
      (fun i l ->
        let runs = if cumulative then Stats.Samples.length last_slice.(i) + 2 else 1 in
        List.fold_left
          (fun acc (k : Profile.exec_kernel) -> acc + f k)
          0 (Executor.exec_report l.ctx).Profile.exec_kernels
        / runs)
      live
    |> Array.fold_left ( + ) 0 |> float_of_int
  in
  Common.add r "exec.bytes_materialized" "B" (sum (fun k -> k.bytes_materialized));
  Common.add r "exec.bytes_scalarized" "B" (sum (fun k -> k.bytes_scalarized));
  Common.add r "exec.bytes_staged_global" "B" (sum ~cumulative:true (fun k -> k.bytes_staged_global));
  Common.add r "exec.barriers" "count" (sum ~cumulative:true (fun k -> k.barriers_run));
  Common.add r "exec.fallback_kernels" "count"
    (float_of_int
       (Array.fold_left
          (fun acc l -> acc + Profile.exec_fallback_kernels (Executor.exec_report l.ctx))
          0 live));
  if cfg.trace then begin
    (* layer leg: Executor.run and a reference (~fused:false) context on
       the same plans and inputs, interleaved and scaled to reference
       speed like the fused runs *)
    let n = Array.length graphs in
    let reference =
      Array.append
        (Array.mapi
           (fun i x ->
             ( x.name,
               fun () -> Common.span ("ref:" ^ x.name) (fun () -> Executor.run live.(i).plan ~params:x.params) ))
           graphs)
        (Array.mapi
           (fun i x ->
             let ctx = Executor.create_context ~fused:false live.(i).plan in
             ( x.name,
               fun () -> Common.span ("refctx:" ^ x.name) (fun () -> Executor.run_context ctx ~params:x.params) ))
           graphs)
    in
    let med =
      Common.medians
        (Affinity.on_main (fun () ->
             loop ~speed:(fun () -> Speed.read gauge) r reference
               ~until:(for_seconds (Common.window cfg)) ~start:0))
    in
    Array.iteri
      (fun i x ->
        Common.add r ("exec.ref." ^ x.name ^ "_us") "us" (Common.us med.(i));
        Common.add r ("exec.refctx." ^ x.name ^ "_us") "us" (Common.us med.(i + n)))
      graphs;
    (* traced leg: the set-ups, one round of both reference paths, then
       the fused loop in slices *)
    let layers = Layers.create () in
    for _ = 1 to cfg.setups do
      ignore (Layers.chunk layers (fun () -> setup ~config graphs))
    done;
    ignore (Layers.chunk layers (fun () -> loop r reference ~until:(for_seconds 0.5) ~start:0));
    ignore (Wl_compile.pass_metrics r layers ~root:Wl_compile.is_compile_root ~units:cfg.setups);
    let calls = fused_calls graphs live in
    let plain = Common.sample_sets n and traced = Common.sample_sets n in
    let keep into t =
      Array.iteri (fun i s -> Array.iter (Stats.Samples.add into.(i)) (Stats.Samples.sorted s)) t
    in
    let t_end = for_seconds (Common.window cfg) in
    let slices = ref 0 in
    (* quarter-second traced slices, each after an untraced one that the
       overhead is measured against *)
    Affinity.on_main (fun () ->
        while !slices = 0 || Common.now_s () < t_end do
          incr slices;
          keep plain (loop r calls ~until:(for_seconds 0.25) ~start:0);
          keep traced (Layers.chunk layers (fun () -> loop r calls ~until:(for_seconds 0.25) ~start:0))
        done);
    Common.add r "trace.overhead_pct" "%" (Common.overhead_pct ~traced ~plain);
    Layers.write layers ~dir:cfg.out_dir ~workload:"exec"
      (reconcile layers graphs ~setups:cfg.setups ~traced ~untraced:run_s);
    if Layers.dropped layers > 0 then Common.fail r 1 "trace records dropped"
  end;
  r
