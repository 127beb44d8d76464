(** Kernel -> tape lowering for the fused execution engine: classify
    every op of every kernel into its storage role (scalarized register,
    per-block staged slab, barrier-sequenced global scratch slot, full
    arena buffer, or reshape view), validate availability structurally,
    sequence each kernel's global-scratch traffic into barrier-separated
    segments, and compute plan-wide liveness intervals for the buffers
    the engine must allocate.  Kernels using an unsupported pattern lower
    to [Fallback] with a reason and run through the reference per-node
    path instead. *)

open Astitch_ir

type role =
  | Inline  (** Register: recomputed inside consumer loops *)
  | Held of { before : Op.node_id }
      (** Register: written once per run, by its own loop, into a
          per-kernel hold buffer just before the action of producer
          [before], the first loop that reads it; later reads are
          storage reads.  A Register value is held when it is heavy
          ([Op.weight]), the plan charges it once ([recompute = 1]), two
          or more of the kernel's loops read it - through Register
          chains and slab refills, a held consumer counting as its own
          loop - and its reads reach no multi-block slab.  Barriers and
          scratch slots are sequenced as for [Inline]. *)
  | Staged of { block_elems : int }  (** Shared_mem: per-block slab *)
  | Staged_global of { elems : int; demoted : bool }
      (** Global_scratch: per-kernel scratch slot sequenced by in-kernel
          global barriers.  [demoted] marks a Shared_mem op that could
          not be staged regionally and fell through to global staging
          (legal-barrier launches only). *)
  | Materialize  (** full buffer from the arena *)
  | Alias of { root : Op.node_id }  (** reshape view of full storage *)

type kernel_tape = {
  kernel : Kernel_plan.kernel;
  pos : int;  (** kernel position in plan order *)
  roles : (Op.node_id * role) list;  (** op order, first occurrence only *)
  materialized : Op.node_id list;  (** ids set computed when the kernel ran *)
  purged : Op.node_id list;  (** on-chip ids unavailable after the kernel *)
  barriers : int;  (** global barrier points executed per run *)
  barrier_before : Op.node_id list;
      (** producers whose action a barrier precedes: they read a scratch
          value written since the previous barrier point *)
  gslots : (Op.node_id * int * int * int) list;
      (** staged-global slot intervals: id, elems, def / last-read
          action index within this kernel *)
  demotions : (Op.node_id * string) list;
      (** Shared_mem ops demoted to global staging, with the regional
          reject reason that forced each demotion *)
}

type lowered =
  | Fused of kernel_tape
  | Fallback of { kernel : Kernel_plan.kernel; pos : int; reason : string }

type interval = {
  node : Op.node_id;
  elems : int;
  def_pos : int;
  last_pos : int;  (** [num_positions] when the buffer backs an output *)
}

type t = {
  plan : Kernel_plan.t;
  kernels : lowered list;  (** plan order *)
  intervals : interval list;  (** fused-materialized buffers only *)
  num_positions : int;  (** kernel count; the output-read position *)
}

val lower : Kernel_plan.t -> t
(** Structural lowering; never raises.  Interval last positions account
    for reads through reshape views (a view can never outlive the storage
    it aliases) and pin output buffers to [num_positions].  A kernel
    whose barrier sequencing requires an illegal launch (grid wider than
    the co-resident wave, [Barrier.is_legal]) lowers to [Fallback]. *)
