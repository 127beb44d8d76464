(** Plan execution against real tensor values.

    Executing a plan must reproduce the reference interpreter exactly,
    whatever backend produced it. *)

open Astitch_tensor
open Astitch_plan

exception Execution_error of string

val run :
  Kernel_plan.t -> params:(string * Tensor.t) list -> Tensor.t list
(** One-shot unstitched execution: {!run_context} on a context built
    [~fused:false] for this call alone (no ["create-context"] span), so
    kernels run in plan order with every op materialized; graph outputs
    in declaration order.  Like every context it carries the runtime
    fault sites: an armed [kernel-exec] fault fires here too.
    @raise Execution_error if the plan reads a value before computing it. *)

val run_and_check :
  Kernel_plan.t -> params:(string * Tensor.t) list -> Tensor.t list
(** {!run}, then compare every output against {!Interp.run} with
    [Tensor.equal_bits]: signed zeros and NaN payloads included.
    @raise Execution_error on any differing bit. *)

type context
(** A plan prepared for repeated execution on one tiled engine.  By
    default each kernel is stitched as the plan's schemes say: Register
    values are scalarized into consumer loops (or, when heavy and read
    by several loops, held in a per-kernel buffer written once per run),
    Shared_mem values are staged per block in reusable slabs, and only
    Device_mem/Global_scratch values get full buffers - drawn from a
    liveness-driven arena, so strictly fewer buffers exist than ops run.
    A kernel with a pattern the stitched lowering rejects runs
    unstitched (with a reason, see {!context_fallbacks}): every op
    materialized into its own arena buffer by the same tile writers.
    Not safe for concurrent use (buffers are shared across calls). *)

val create_context : ?fused:bool -> ?timed:bool -> Kernel_plan.t -> context
(** Prepare [plan] for repeated execution.  [fused] (default [true])
    stitches every kernel it can; [~fused:false] runs every kernel
    unstitched.  [timed] (default [false]) accumulates per-kernel wall
    time into the {!exec_report} at a small per-run cost.  The one-time
    cost is proportional to the plan; each subsequent {!run_context}
    call does only the numeric work plus output copies.
    @raise Execution_error if the plan reads a value, or outputs one,
    that it never made available under its own kernel order. *)

val exec_report : context -> Profile.exec_report
(** Measured execution counters: per-kernel stitched/unstitched mode,
    bytes materialized vs scalarized/staged, arena high-water mark.  Staging
    traffic and wall time accumulate as the context runs. *)

val context_fallbacks : context -> (string * string) list
(** [(kernel, reason)] for every kernel running unstitched. *)

val rebindable : context -> bool
(** True when the context can execute symbolic batches: its plan carries
    a batch classification ({!Kernel_plan.t}[.batch]).  Stitched and
    unstitched kernels alike bound their loops at the batch prefix. *)

val run_context :
  ?batch:int -> context -> params:(string * Tensor.t) list -> Tensor.t list
(** Execute the prepared plan.  Bit-identical to {!run} and
    {!Interp.run} on the same plan and parameters; outputs are freshly
    copied, so they stay valid after later calls reuse the context's
    buffers.

    [?batch] executes a symbolic batch b on a {!rebindable} context
    compiled at max batch B: scaled parameters bind at their batch-b
    prefix shapes, every scaled loop/slab/scratch bound shrinks to the
    prefix, and outputs come back under their batch-b shapes -
    bit-identical to a fresh compile at b, with no recompilation (the
    thread mappings were validated when the plan was checked,
    {!Kernel_plan.check_kernel}).  Omitting [batch] (or passing B) is
    the ordinary full-extent run.
    @raise Invalid_argument if [batch] is given on a non-rebindable
    context or falls outside [1, B].
    @raise Interp.Missing_parameter if a graph parameter is unbound. *)
