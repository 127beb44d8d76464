(* Simulated nvprof: per-kernel cost estimates, whole-model timing
   breakdown (the MEM / compute / OVERHEAD split of Figure 13) and the
   aggregate performance counters of Table 5. *)

open Astitch_simt
open Astitch_plan

type kernel_profile = {
  kernel : Kernel_plan.kernel;
  work : Cost_model.work;
  estimate : Cost_model.estimate;
}

type t = {
  plan : Kernel_plan.t;
  kernels : kernel_profile list;
  mem_time_us : float; (* execution of memory-intensive (codegen) kernels *)
  compute_time_us : float; (* execution of library kernels *)
  overhead_us : float; (* launches + framework scheduling + copies *)
  total_time_us : float;
}

let profile ?(config = Cost_model.default_config) (plan : Kernel_plan.t) : t =
  let arch = plan.arch in
  let kernels =
    List.map
      (fun (k : Kernel_plan.kernel) ->
        let work = Kernel_plan.kernel_work plan k in
        let estimate =
          match k.kind with
          | Kernel_plan.Copy ->
              (* DtoD copy: read + write the tensor, latency-bound floor *)
              let bytes = work.dram_write_bytes in
              let t =
                Cost_model.memcpy_time_us ~config arch ~bytes:(2 * bytes)
              in
              {
                Cost_model.time_us = t;
                exec_time_us = t -. config.memcpy_overhead_us;
                memory_time_us = t -. config.memcpy_overhead_us;
                compute_time_us = 0.;
                overhead_us = config.memcpy_overhead_us;
                barrier_us = 0.;
                occupancy = 0.;
                sm_efficiency = 0.;
              }
          | Kernel_plan.Codegen -> Cost_model.estimate ~config arch k.launch work
          | Kernel_plan.Library ->
              (* vendor-library kernels sustain a higher issue rate at the
                 generation's default library precision (TF32 tensor cores
                 on A100), and are dispatched by the same stream for every
                 framework, without the per-op interpreter cost *)
              let config =
                {
                  config with
                  Cost_model.compute_efficiency =
                    config.Cost_model.library_compute_efficiency
                    *. arch.Arch.library_tflops /. arch.Arch.fp32_tflops;
                  framework_op_overhead_us =
                    Float.min 1.5 config.Cost_model.framework_op_overhead_us;
                }
              in
              Cost_model.estimate ~config arch k.launch work
        in
        { kernel = k; work; estimate })
      plan.kernels
  in
  let sum f = List.fold_left (fun acc kp -> acc +. f kp) 0. kernels in
  let mem_time_us =
    sum (fun kp ->
        if kp.kernel.kind = Kernel_plan.Codegen then kp.estimate.exec_time_us
        else 0.)
  in
  let compute_time_us =
    sum (fun kp ->
        if kp.kernel.kind = Kernel_plan.Library then kp.estimate.exec_time_us
        else 0.)
  in
  let memcpy_us =
    (float_of_int (plan.memcpys + plan.memsets) *. config.memcpy_overhead_us)
    +. (float_of_int plan.memcpy_bytes /. (arch.Arch.dram_bandwidth_gbs *. 1e3))
  in
  let overhead_us = sum (fun kp -> kp.estimate.overhead_us) +. memcpy_us in
  let copy_exec =
    sum (fun kp ->
        if kp.kernel.kind = Kernel_plan.Copy then kp.estimate.exec_time_us
        else 0.)
  in
  let overhead_us = overhead_us +. copy_exec in
  {
    plan;
    kernels;
    mem_time_us;
    compute_time_us;
    overhead_us;
    total_time_us = mem_time_us +. compute_time_us +. overhead_us;
  }

(* --- Aggregate counters (Table 5 / Sec 6.2) ---------------------------- *)

type counters = {
  dram_read_transactions : int;
  dram_write_transactions : int;
  inst_fp32 : int;
}

let zero_counters =
  { dram_read_transactions = 0; dram_write_transactions = 0; inst_fp32 = 0 }

(* Counters over memory-intensive kernels only, as the paper reports. *)
let mem_counters t =
  List.fold_left
    (fun acc kp ->
      if kp.kernel.kind = Kernel_plan.Codegen then
        {
          dram_read_transactions =
            acc.dram_read_transactions
            + Cost_model.transactions kp.work.dram_read_bytes;
          dram_write_transactions =
            acc.dram_write_transactions
            + Cost_model.transactions kp.work.dram_write_bytes;
          inst_fp32 = acc.inst_fp32 + kp.work.fp32_insts;
        }
      else acc)
    zero_counters t.kernels

(* --- Top-k% analysis (Figure 14/15/16) ---------------------------------- *)

(* Memory-intensive kernels sorted by execution time, descending. *)
let mem_kernels_by_time t =
  List.filter (fun kp -> kp.kernel.kind = Kernel_plan.Codegen) t.kernels
  |> List.sort (fun a b ->
         compare b.estimate.exec_time_us a.estimate.exec_time_us)

(* The kernels covering the top [frac] of memory-intensive execution time. *)
let top_mem_kernels ~frac t =
  let sorted = mem_kernels_by_time t in
  let total = List.fold_left (fun acc kp -> acc +. kp.estimate.exec_time_us) 0. sorted in
  let threshold = frac *. total in
  let rec take acc covered = function
    | [] -> List.rev acc
    | kp :: rest ->
        if covered >= threshold && acc <> [] then List.rev acc
        else take (kp :: acc) (covered +. kp.estimate.exec_time_us) rest
  in
  take [] 0. sorted

let average f = function
  | [] -> 0.
  | l -> List.fold_left (fun acc x -> acc +. f x) 0. l /. float_of_int (List.length l)

let avg_occupancy kps = average (fun kp -> kp.estimate.Cost_model.occupancy) kps
let avg_sm_efficiency kps =
  average (fun kp -> kp.estimate.Cost_model.sm_efficiency) kps

(* --- Reporting helpers --------------------------------------------------- *)

let mem_kernel_count t =
  List.length (Kernel_plan.memory_intensive_kernels t.plan)

let pp_breakdown fmt t =
  Format.fprintf fmt
    "total %.1fus = MEM %.1fus + compute %.1fus + overhead %.1fus \
     (%d mem kernels, %d lib kernels, %d CPY)"
    t.total_time_us t.mem_time_us t.compute_time_us t.overhead_us
    (mem_kernel_count t)
    (List.length (Kernel_plan.compute_intensive_kernels t.plan))
    (Kernel_plan.cpy_count t.plan)

(* --- Measured execution profiling (fused engine) -------------------------- *)

(* Unlike the simulated counters above, these are *measured* on the host:
   the fused execution engine fills one [exec_kernel] per plan kernel at
   context-creation time (the static byte accounting) and updates the
   mutable fields as it runs (staging traffic, wall time when timing is
   enabled). *)

type exec_kernel = {
  kname : string;
  fallback : string option; (* why every op is materialized; None: stitched *)
  ops : int;
  demotions : int; (* regional ops demoted to global staging *)
  mutable loops : int; (* materialization loops the fused tape runs *)
  mutable bytes_materialized : int; (* full-buffer bytes written per run *)
  mutable bytes_scalarized : int; (* register values never materialized *)
  mutable bytes_held : int; (* hold buffers: register values computed once *)
  mutable slab_bytes : int; (* shared-slab capacity for staged values *)
  mutable bytes_staged : int; (* slab fills, accumulated across runs *)
  mutable restages : int; (* slab fills beyond one pass per consumer *)
  mutable gscratch_bytes : int; (* global-scratch slot capacity *)
  mutable bytes_staged_global : int; (* scratch fills, across runs *)
  mutable barriers_run : int; (* global barriers executed, across runs *)
  mutable wall_ns : float; (* accumulated when timing is enabled *)
  mutable minor_words : int; (* minor-heap words, likewise *)
  mutable runs : int;
}

type exec_report = {
  exec_kernels : exec_kernel list; (* plan order *)
  nodes_executed : int; (* ops across all kernels *)
  buffers_requested : int; (* values an unstitched run would materialize *)
  buffers_allocated : int; (* arena slots actually backing them *)
  arena_bytes : int; (* arena high-water mark *)
  naive_bytes : int; (* full-buffer bytes without scalarization/arena *)
}

let exec_total_staged r =
  List.fold_left (fun acc k -> acc + k.bytes_staged) 0 r.exec_kernels

let exec_fallback_kernels r =
  List.length (List.filter (fun k -> k.fallback <> None) r.exec_kernels)

(* Group fallback reasons with op/kernel ids squashed, so "op 12: no
   contiguous block geometry" and "op 31: ..." count as one reason. *)
let reason_key reason =
  String.to_seq reason
  |> Seq.fold_left
       (fun (acc, in_digits) c ->
         if c >= '0' && c <= '9' then
           if in_digits then (acc, true) else (acc ^ "N", true)
         else (acc ^ String.make 1 c, false))
       ("", false)
  |> fst

let fallback_breakdown r =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun k ->
      match k.fallback with
      | None -> ()
      | Some reason ->
          let key = reason_key reason in
          Hashtbl.replace tbl key
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
    r.exec_kernels;
  Hashtbl.fold (fun key count acc -> (key, count) :: acc) tbl []
  |> List.sort (fun (ka, ca) (kb, cb) ->
         match compare cb ca with 0 -> compare ka kb | c -> c)

let pp_exec fmt r =
  let fused, fell =
    List.partition (fun k -> k.fallback = None) r.exec_kernels
  in
  Format.fprintf fmt
    "@[<v>exec: %d kernels (%d fused, %d unstitched), %d ops@,\
     buffers: %d requested -> %d arena slots (%d bytes high water, naive %d)@,\
     traffic/run: %d bytes materialized, %d scalarized away, %d held, \
     %d slab bytes@,\
     global: %d scratch bytes, %d staged globally, %d barriers, \
     %d demotions@]"
    (List.length r.exec_kernels)
    (List.length fused) (List.length fell) r.nodes_executed
    r.buffers_requested r.buffers_allocated r.arena_bytes r.naive_bytes
    (List.fold_left (fun a k -> a + k.bytes_materialized) 0 r.exec_kernels)
    (List.fold_left (fun a k -> a + k.bytes_scalarized) 0 r.exec_kernels)
    (List.fold_left (fun a k -> a + k.bytes_held) 0 r.exec_kernels)
    (List.fold_left (fun a k -> a + k.slab_bytes) 0 r.exec_kernels)
    (List.fold_left (fun a k -> a + k.gscratch_bytes) 0 r.exec_kernels)
    (List.fold_left (fun a k -> a + k.bytes_staged_global) 0 r.exec_kernels)
    (List.fold_left (fun a k -> a + k.barriers_run) 0 r.exec_kernels)
    (List.fold_left (fun a k -> a + k.demotions) 0 r.exec_kernels);
  (match fallback_breakdown r with
  | [] -> ()
  | breakdown ->
      Format.fprintf fmt "@,fallbacks: %d kernel(s)" (List.length fell);
      List.iter
        (fun (reason, count) ->
          Format.fprintf fmt "@,  %3dx %s" count reason)
        breakdown);
  List.iter
    (fun k ->
      Format.fprintf fmt
        "@,%-24s %-10s %2d ops %2d loops  mat %8dB  reg %8dB  held %7dB  \
         slab %6dB  staged %8dB (%d restages)%s%s%s"
        k.kname
        (if k.fallback = None then "fused" else "unstitched")
        k.ops k.loops k.bytes_materialized k.bytes_scalarized k.bytes_held
        k.slab_bytes k.bytes_staged k.restages
        (if k.gscratch_bytes > 0 || k.barriers_run > 0 then
           Printf.sprintf "  gmem %dB gstaged %dB %d barriers"
             k.gscratch_bytes k.bytes_staged_global k.barriers_run
         else "")
        (if k.runs > 0 && k.wall_ns > 0. then
           Printf.sprintf "  %.2fus/run %d words/run"
             (k.wall_ns /. float_of_int k.runs /. 1e3)
             (k.minor_words / k.runs)
         else "")
        (match k.fallback with
        | Some r -> Printf.sprintf "  [%s]" r
        | None -> ""))
    r.exec_kernels

(* Bridge the measured execution counters into the metrics registry, so
   `--metrics`, the trace CLI and the serving commands see execution
   behaviour alongside the compile/cache metrics.  Byte counters
   accumulate (counters sum across reports); capacity-like quantities are
   high-water gauges; per-kernel wall time (when timing was enabled)
   lands in a log-bucketed histogram for p50/p95/p99. *)
let publish_exec ?(metrics = Astitch_obs.Metrics.default) (r : exec_report) =
  let module M = Astitch_obs.Metrics in
  let c name v = M.add (M.counter metrics name) v in
  c "exec.reports" 1;
  c "exec.kernels" (List.length r.exec_kernels);
  c "exec.kernels_fused"
    (List.length (List.filter (fun k -> k.fallback = None) r.exec_kernels));
  c "exec.kernels_reference" (exec_fallback_kernels r);
  c "exec.nodes_executed" r.nodes_executed;
  c "exec.bytes_materialized"
    (List.fold_left (fun a k -> a + k.bytes_materialized) 0 r.exec_kernels);
  c "exec.bytes_scalarized"
    (List.fold_left (fun a k -> a + k.bytes_scalarized) 0 r.exec_kernels);
  c "exec.bytes_staged" (exec_total_staged r);
  c "exec.restages"
    (List.fold_left (fun a k -> a + k.restages) 0 r.exec_kernels);
  c "exec.fallback_kernels" (exec_fallback_kernels r);
  c "exec.bytes_staged_global"
    (List.fold_left (fun a k -> a + k.bytes_staged_global) 0 r.exec_kernels);
  c "exec.barriers"
    (List.fold_left (fun a k -> a + k.barriers_run) 0 r.exec_kernels);
  c "exec.global_demotions"
    (List.fold_left (fun a k -> a + k.demotions) 0 r.exec_kernels);
  M.set_max
    (M.gauge metrics "exec.gscratch_bytes")
    (float_of_int
       (List.fold_left (fun a k -> a + k.gscratch_bytes) 0 r.exec_kernels));
  M.set_max (M.gauge metrics "exec.arena_bytes") (float_of_int r.arena_bytes);
  M.set_max
    (M.gauge metrics "exec.buffers_allocated")
    (float_of_int r.buffers_allocated);
  let h = M.histogram metrics "exec.kernel_wall_us" in
  List.iter
    (fun k ->
      if k.runs > 0 && k.wall_ns > 0. then
        M.observe h (k.wall_ns /. float_of_int k.runs /. 1e3))
    r.exec_kernels
