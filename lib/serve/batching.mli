(** Dynamic-batching shape analysis, packing and unpacking.

    A builder family [build : batch -> graph] is batchable when every
    parameter and output either keeps its shape across batch sizes
    (shared) or scales exactly one axis linearly with the batch
    (per-request).  [analyze] discovers that classification by diffing
    the graphs at batch 1 and 2; [pack]/[unpack] then move request
    tensors in and out of a batched execution such that, for
    row-independent builders, batched results are bit-identical to
    running every request alone. *)

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
  fingerprint : string;  (** of [base]; the batching-compatibility key *)
  request_params : (string * axis_info) list;  (** packed per request *)
  shared_params : (string * Shape.t) list;  (** weights, bound once *)
  outputs : axis_info option list;
      (** per output: [Some] = sliced per request, [None] = batch-invariant *)
}

val analyze : (int -> Graph.t) -> g1:Graph.t -> g2:Graph.t -> spec
(** Classify a builder family from its batch-1 and batch-2 graphs
    ([g1] becomes [base]).
    @raise Not_batchable when any shape fails to classify. *)

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
