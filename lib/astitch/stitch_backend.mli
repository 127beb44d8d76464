(** Per-scope lowering for the AStitch compiler (paper Sec 4) plus group
    combination: dominant grouping, adaptive mapping, locality
    finalization, memory planning and resource-aware launch configuration
    turn one stitch scope into one kernel, and a remote-stitched group of
    scopes into one combined kernel.  The whole-graph driver is
    {!Fallback.compile}. *)

open Astitch_ir
open Astitch_simt
open Astitch_plan

val compile_cluster :
  Config.t ->
  Arch.t ->
  Graph.t ->
  name:string ->
  smem_budget:int ->
  group_base:int ->
  Op.node_id list ->
  Kernel_plan.kernel
(** Lower one stitch scope to a single kernel. *)

val compile_cluster_gated :
  Config.t ->
  Arch.t ->
  Graph.t ->
  name:string ->
  smem_budget:int ->
  group_base:int ->
  Op.node_id list ->
  Kernel_plan.kernel list
(** [compile_cluster] plus demote-vs-split gating: when shared-memory
    pressure demoted regional buffers to global scratch, or the kernel's
    barriers are illegal (grid wider than one co-resident wave), consult
    {!Global_gating} and either keep the single barriered kernel or split
    the scope at the first crossing producer - recursively, each half
    re-entering the gate.  Split kernels are named [name ^ "a"] /
    [name ^ "b"]. *)

val combine_parts :
  Arch.t -> name:string -> Kernel_plan.kernel list -> Kernel_plan.kernel option
(** Merge the kernels of one remote-stitched group: grids add (capped at
    one wave), per-block shared memory adds, barriers run in lockstep.
    [None] when the group is empty. *)

val compile_group :
  Config.t ->
  Arch.t ->
  Graph.t ->
  name:string ->
  Clustering.cluster list ->
  Kernel_plan.kernel list
(** Lower one remote-stitched group at full strength: a lone layout op
    becomes a copy kernel; a single cluster goes through
    {!compile_cluster_gated} (named [name] unless it splits); several
    clusters compile against equal slices of the shared-memory budget and
    {!combine_parts} into one kernel named [name].  Kernels are not
    checked here. *)

val compile_fusion : Config.t -> Arch.t -> Graph.t -> Kernel_plan.t
(** The ATM ablation (Table 4): XLA's fusion scopes with adaptive
    mappings for reduce roots; the plan is checked before it returns. *)
