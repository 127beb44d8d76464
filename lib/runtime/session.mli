(** Compile-and-run sessions and the backend-comparison harness. *)

open Astitch_ir
open Astitch_tensor
open Astitch_plan

type result = {
  backend_name : string;
  plan : Kernel_plan.t;
  profile : Profile.t;
}

val compile : Backend_intf.t -> Astitch_simt.Arch.t -> Graph.t -> result
(** Compile inside a ["compile"] span (phase ["session"]).  Every call,
    and every {!compile_resilient} call, bumps the process-wide counter
    [session.compiles] in [Metrics.default].  [serve] reads it before
    and after traffic to count the plans compiled while requests
    flowed. *)

type resilient = {
  result : result;
  report : Astitch_core.Degradation.report;
}

val compile_resilient :
  ?config:Astitch_core.Config.t ->
  Astitch_simt.Arch.t ->
  Graph.t ->
  (resilient, Compile_error.t) Stdlib.result
(** Compile with per-cluster graceful degradation ([Fallback.compile])
    inside a ["compile-resilient"] span; bumps [session.compiles] like
    {!compile}.  Never raises.  [Astitch.compile] is the same driver
    refusing to degrade: when the report is empty the plans are
    identical. *)

val run :
  ?check:bool ->
  Backend_intf.t ->
  Astitch_simt.Arch.t ->
  Graph.t ->
  params:(string * Tensor.t) list ->
  Tensor.t list * result
(** Compile, execute and (by default) verify against the reference
    interpreter. *)

val random_params : ?seed:int -> Graph.t -> (string * Tensor.t) list

val compare_backends :
  Backend_intf.t list -> Astitch_simt.Arch.t -> Graph.t -> result list

val speedup : baseline:result -> contender:result -> float
