(** Dynamic-batching analysis, packing and unpacking.

    A builder family [build : batch -> graph] is batchable when
    {!Batch_axis.analyze} classifies every node of it (and the
    classification holds at [max_batch]), so that one plan compiled at
    [max_batch] serves every batch size by prefix rebinding.  [analyze]
    reads the per-request, shared and output split off the node
    classes; [pack]/[unpack] then move request tensors in and out of a
    batched execution such that, for row-independent builders, batched
    results are bit-identical to running every request alone. *)

open Astitch_ir
open Astitch_tensor

exception Not_batchable of string

type axis_info = {
  axis : int;  (** which axis scales with the batch *)
  extent : int;  (** that axis's extent at batch 1 *)
}

type spec = {
  build : int -> Graph.t;
  base : Graph.t;  (** the batch-1 graph *)
  batch : Batch_axis.plan;
      (** the node classes and the [max_batch] they were checked at:
          what the one compiled plan carries *)
  request_params : (string * axis_info) list;
      (** the [Scaled] parameters, packed per request *)
  shared_params : (string * Shape.t) list;
      (** the [Invariant] parameters: weights, bound once *)
  outputs : axis_info option list;
      (** per output: [Some] = sliced per request, [None] = batch-invariant *)
}

val analyze : (int -> Graph.t) -> max_batch:int -> spec
(** Classify a builder family with {!Batch_axis.analyze} on its batch-1
    and batch-2 graphs (the batch-1 graph becomes [base]), then
    {!Batch_axis.validate_at} [max_batch].
    @raise Not_batchable with the analysis' reason when it rejects the
    family, or when no parameter scales with the batch. *)

val pack : spec -> (string * Tensor.t) list list -> (string * Tensor.t) list
(** Concatenate the requests' bindings along their batch axes: n
    requests pack to exactly n rows.  Validates every request against
    the spec.
    @raise Not_batchable on a binding mismatch. *)

val unpack : spec -> count:int -> Tensor.t list -> Tensor.t list list
(** Slice batched outputs back into [count] per-request output lists;
    batch-invariant outputs are copied to every request. *)

val concat_axis : axis:int -> Tensor.t list -> Tensor.t
(** Row-major concatenation along [axis] (exposed for tests). *)

val slice_axis : axis:int -> lo:int -> hi:int -> Tensor.t -> Tensor.t
(** Row-major slice [lo, hi) along [axis] (exposed for tests). *)

val random_request : spec -> seed:int -> (string * Tensor.t) list
(** Deterministic per-request bindings at batch 1. *)

val random_shared : spec -> seed:int -> (string * Tensor.t) list
(** Deterministic shared-weight bindings. *)
