(** Compiled execution plans: the common output format of every backend and
    the single source for cost estimation, counters, numerical execution
    and structural validation. *)

open Astitch_ir
open Astitch_simt

type placement =
  | Register  (** per-thread; lives only inside consuming threads *)
  | Shared_mem  (** per-block scratch; regional stitching *)
  | Global_scratch  (** device scratch consumed inside the same kernel *)
  | Device_mem  (** materialized tensor visible to later kernels *)

val placement_to_string : placement -> string

type compiled_op = {
  id : Op.node_id;
  scheme : Scheme.t;
  placement : placement;
  mapping : Thread_mapping.t;
  recompute : int;  (** avg times each output element is computed; >= 1 *)
  group : int;
      (** op group (schedule) within the kernel; reads are cached in
          registers per group, so cross-group reads of one operand count
          separately *)
}

type kernel_kind =
  | Codegen
  | Library
  | Copy  (** standalone layout op implemented as cudaMemcpy DtoD *)

type kernel = {
  name : string;
  kind : kernel_kind;
  ops : compiled_op list;  (** execution order *)
  launch : Launch.t;
  barriers : int;  (** in-kernel global barriers *)
  scratch_bytes : int;  (** global-scratch arena after liveness reuse *)
}

type t = {
  arch : Arch.t;
  graph : Graph.t;
  kernels : kernel list;  (** execution order *)
  memcpys : int;
  memsets : int;
  memcpy_bytes : int;
  batch : Batch_axis.plan option;
      (** symbolic batch extent when the plan was compiled at the max
          batch of a shape-polymorphic family; [None] for fixed-shape
          plans.  Execution contexts use it to rebind loop bounds and
          thread mappings per batch (see [Executor.run_context]). *)
}

val kernel_node_ids : kernel -> Op.node_id list
val is_memory_intensive_kernel : kernel -> bool
val memory_intensive_kernels : t -> kernel list
val compute_intensive_kernels : t -> kernel list
val copy_kernels : t -> kernel list

(** Table 3's "CPY": memcpys + memsets + standalone copy kernels. *)
val cpy_count : t -> int
val find_op : kernel -> Op.node_id -> compiled_op option

type op_index
(** One kernel's ops indexed by node id; O(1) lookup.  Hot paths
    (invariant checking, the runtime executor) build this once per kernel
    instead of scanning the op list per query. *)

val index_ops : kernel -> op_index
val find_op_in : op_index -> Op.node_id -> compiled_op option

val op_insts : Graph.t -> Op.node_id -> int
(** FP32 instructions for one full evaluation of the op. *)

val intermediate_stays_in_l2 : t -> Op.node_id -> bool
val is_leaf : Graph.t -> Op.node_id -> bool

val kernel_work : t -> kernel -> Cost_model.work
(** DRAM traffic + instruction work of a kernel; see the implementation
    notes for the L2 model that reproduces Table 5's counter structure. *)

val check_kernel : Arch.t -> Graph.t -> kernel -> Compile_error.violation list
(** Intra-kernel invariants only (order, consistent thread mappings
    under the arch's block limit, placement legality, shared-memory
    footprint, barrier and launch legality); empty when the kernel is
    valid in isolation. *)

val check_cross_kernel : t -> Compile_error.violation list
(** Cross-kernel invariants only: each node materialized at most once,
    every operand available in execution order, graph outputs
    materialized. *)

val check_all : t -> Compile_error.violation list
(** Collect ALL structural invariant violations instead of failing on
    the first: {!check_kernel} of every kernel in plan order, then
    {!check_cross_kernel}. *)

val check : t -> unit
(** Validate all structural invariants.
    @raise Compile_error.Error with every violation found. *)

val toposort_kernels : Graph.t -> kernel list -> kernel list
(** Order kernels by data dependency (required after remote stitching,
    where op-id order is no longer a schedule).
    @raise Compile_error.Error on cyclic kernel dependencies. *)

val pp_kernel : Graph.t -> Format.formatter -> kernel -> unit
val pp : Format.formatter -> t -> unit
