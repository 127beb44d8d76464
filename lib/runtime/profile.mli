(** Simulated nvprof: per-kernel estimates, the MEM/compute/OVERHEAD
    breakdown of Figure 13, Table 5's aggregate counters and the
    top-k% occupancy/SM-efficiency analyses of Figures 14-16. *)

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
  mem_time_us : float;
  compute_time_us : float;
  overhead_us : float;
  total_time_us : float;
}

val profile : ?config:Cost_model.config -> Kernel_plan.t -> t

type counters = {
  dram_read_transactions : int;
  dram_write_transactions : int;
  inst_fp32 : int;
}

val zero_counters : counters

val mem_counters : t -> counters
(** Aggregated over memory-intensive kernels only (as in Table 5). *)

val mem_kernels_by_time : t -> kernel_profile list
(** Memory-intensive kernels, descending execution time. *)

val top_mem_kernels : frac:float -> t -> kernel_profile list
(** Kernels covering the top [frac] of memory-intensive execution time. *)

val avg_occupancy : kernel_profile list -> float
val avg_sm_efficiency : kernel_profile list -> float
val mem_kernel_count : t -> int
val pp_breakdown : Format.formatter -> t -> unit

(** {1 Measured execution profiling}

    Filled by the fused execution engine: static byte accounting at
    context-creation time, mutable counters (staging traffic, wall time
    when timing is enabled) updated as the context runs. *)

type exec_kernel = {
  kname : string;
  fallback : string option;
      (** [None] for a stitched kernel; why the kernel runs with every op
          materialized otherwise: the stitched lowering's reject reason,
          or ["fused execution disabled"] *)
  ops : int;
  demotions : int;  (** regional ops demoted to global staging *)
  mutable loops : int;  (** materialization loops the fused tape runs *)
  mutable bytes_materialized : int;  (** full-buffer bytes written per run *)
  mutable bytes_scalarized : int;  (** register values never materialized *)
  mutable bytes_held : int;
      (** hold buffers: register values written once per run and read
          by several loops (see [Tape.Held]) *)
  mutable slab_bytes : int;  (** shared-slab capacity for staged values *)
  mutable bytes_staged : int;  (** slab fills, accumulated across runs *)
  mutable restages : int;  (** slab fills beyond one pass per consumer *)
  mutable gscratch_bytes : int;  (** global-scratch slot capacity *)
  mutable bytes_staged_global : int;
      (** cross-block scratch fills, accumulated across runs *)
  mutable barriers_run : int;
      (** global barrier points executed, accumulated across runs *)
  mutable wall_ns : float;  (** accumulated when timing is enabled *)
  mutable minor_words : int;
      (** minor-heap words allocated while the kernel ran, accumulated
          when timing is enabled *)
  mutable runs : int;
}

type exec_report = {
  exec_kernels : exec_kernel list;  (** plan order *)
  nodes_executed : int;  (** ops across all kernels *)
  buffers_requested : int;
      (** values an unstitched run would materialize: every kernel op
          but parameters and reshapes *)
  buffers_allocated : int;  (** arena slots actually backing them *)
  arena_bytes : int;  (** arena high-water mark *)
  naive_bytes : int;  (** full-buffer bytes without scalarization/arena *)
}

val exec_total_staged : exec_report -> int

val exec_fallback_kernels : exec_report -> int
(** Kernels running with every op materialized (those with a fallback
    reason). *)

val fallback_breakdown : exec_report -> (string * int) list
(** Fallback reasons grouped with op/kernel ids squashed to ["N"], with
    per-reason kernel counts, most frequent first. *)

val pp_exec : Format.formatter -> exec_report -> unit

val publish_exec : ?metrics:Astitch_obs.Metrics.t -> exec_report -> unit
(** Publish the report's counters into a metrics registry (default: the
    process-wide one): byte/kernel counters accumulate, arena capacity is
    a high-water gauge, and per-kernel mean wall time (timed contexts
    only) feeds the ["exec.kernel_wall_us"] histogram. *)
