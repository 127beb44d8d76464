(** Kernel -> tape lowering for the fused execution engine: classify
    every op of every kernel into its storage role (scalarized register,
    per-block staged slab, barrier-sequenced global scratch slot, full
    arena buffer, or reshape view), validate availability structurally,
    sequence each kernel's global-scratch traffic into barrier-separated
    segments, and compute plan-wide liveness intervals for the buffers
    the engine must allocate.  A kernel using a pattern the stitched
    lowering rejects, and every kernel under [~fused:false], lowers
    unstitched: every op materialized in its own buffer, the reason in
    [fallback]. *)

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
  materialized : Op.node_id list;
      (** ids the kernel writes to full storage or binds as views *)
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
  fallback : string option;
      (** [Some reason] when the kernel lowered unstitched: each op
          [Materialize]d ([Alias] for a reshape, no role for a leaf),
          no barrier, no scratch slot.  The reason is why the stitched
          lowering rejected the kernel, or ["fused execution
          disabled"]. *)
}

type interval = {
  node : Op.node_id;
  elems : int;
  def_pos : int;
  last_pos : int;  (** [num_positions] when the buffer backs an output *)
}

type t = {
  plan : Kernel_plan.t;
  kernels : kernel_tape list;  (** plan order *)
  intervals : interval list;
      (** one per [Materialize]d node, from the first kernel that writes
          it *)
  num_positions : int;  (** kernel count; the output-read position *)
}

exception Unavailable of string
(** A kernel reads, or the graph outputs, a value the plan never made
    available under its own ordering: no lowering can run it. *)

val lower : ?fused:bool -> Kernel_plan.t -> t
(** Structural lowering.  [fused] (default [true]) stitches every kernel
    it can; [~fused:false] lowers every kernel unstitched.  Interval
    last positions account for reads through reshape views (a view can
    never outlive the storage it aliases), for later kernels writing
    the node again, and pin output buffers to [num_positions].  A kernel
    whose barrier sequencing requires an illegal launch (grid wider than
    the co-resident wave, [Barrier.is_legal]) lowers unstitched.
    @raise Unavailable when an op reads a value not available at its
    kernel (leaves up front, Device_mem results after their kernel,
    on-chip values only inside theirs), or a graph output is not
    available after the last kernel. *)
