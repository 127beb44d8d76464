(** The one whole-graph compile driver: clustering, remote stitching,
    group lowering on the domain pool, kernel schedule and plan checks.
    It compiles every stitch scope at the highest strength that
    validates, degrading failing scopes alone through Remote -> Stitched
    -> Regional -> Local -> Fusion -> Kernel_per_op while the rest of the
    graph stays fully stitched.  [Astitch.compile] is this driver
    refusing to degrade: it keeps the plan only when the report is
    empty. *)

open Astitch_ir
open Astitch_simt
open Astitch_plan

val compile :
  Config.t ->
  Arch.t ->
  Graph.t ->
  (Kernel_plan.t * Degradation.report, Compile_error.t) result
(** Never raises (resource exhaustion aside): any failure the ladder
    cannot absorb comes back as [Error].  Within one call, a group with
    the same {!Scope_key} as an earlier group reuses that group's
    kernels, renamed, when they compiled at full strength; the counters
    [compile.scopes] (groups lowered by the passes) and
    [compile.scopes_reused] (instances) in [Metrics.default] count both.
    Faults armed by [Fault_site.with_faults] fire at the instrumented
    passes; while a compile-site fault is armed, groups compile on one
    domain and every group compiles itself.  Every
    [Ok] plan passed the checks of
    [Kernel_plan.check_all], each run once: [check_kernel] on every
    kernel where it is made, [check_cross_kernel] on the plan. *)

val per_op_kernel : Arch.t -> Graph.t -> Op.node_id -> Kernel_plan.kernel
(** The terminal constructor: one naive-mapped kernel materializing one
    op to device memory.  Touches no fault-injection site. *)

val per_op_plan : Arch.t -> Graph.t -> Kernel_plan.t
(** The whole-graph terminal: one kernel per live memory-intensive node
    plus the library kernels - the ladder's last resort, and the
    "no stitching" kernel-per-op baseline global stitching is tested
    against. *)

val demote_global : Kernel_plan.kernel -> Kernel_plan.kernel
(** Give up global stitching: global-scratch placements materialize to
    device memory; barriers and the scratch arena disappear. *)

val demote_regional : Arch.t -> Graph.t -> Kernel_plan.kernel -> Kernel_plan.kernel
(** The Regional rung: demote the kernel's shared-memory buffers to
    global scratch behind in-kernel barriers when {!Global_gating} deems
    that legal and cheaper; otherwise fall back to {!demote_global}. *)

val demote_local : Kernel_plan.kernel -> Kernel_plan.kernel
(** The Local rung: [demote_global] plus shared-memory buffers
    materialize to device memory. *)
