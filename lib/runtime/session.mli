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
    [session.compiles] in [Metrics.default]; a {!compile_cached} hit
    does not.  [serve] reads it before and after traffic to count the
    plans compiled while requests flowed. *)

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

type cache = result Plan_cache.t
(** Full-strength compiled results, keyed by graph fingerprint x arch x
    compiler identity (the backend name for {!compile_cached}, the
    config's cache key for {!compile_resilient_cached}). *)

val make_cache : unit -> cache

val result_of_plan : Backend_intf.t -> Kernel_plan.t -> result
(** Rebuild a session result around an already-materialized plan (one
    deserialized from the plan store).  The profile is recomputed from
    the plan - deterministic, so it matches what a fresh compile would
    have produced - and nothing is compiled or counted in
    [session.compiles]. *)

val precache :
  cache -> Backend_intf.t -> Astitch_simt.Arch.t -> Graph.t -> result -> unit
(** Seed the cache for [(graph, arch, backend)] with an externally
    produced result, so the first checkout hits instead of compiling.
    Callers must only precache full-strength plans (the zoo gates
    store-loaded plans on bit-identity first). *)

val compile_cached :
  cache ->
  Backend_intf.t ->
  Astitch_simt.Arch.t ->
  Graph.t ->
  result * Plan_cache.outcome
(** {!compile} behind the plan cache.  A compile that starts with
    compile-site faults armed ({!Fault_site.with_faults}) neither looks
    up nor inserts: it compiles, so its faults fire, and counts as
    [Bypassed].  A compile during which compile-site faults were armed
    (by another domain) is returned but never stored ([Bypassed]);
    runtime-site faults don't affect caching.  A compile that raises
    [Compile_error.Error] is counted as a bypass and re-raised. *)

val uncache :
  cache -> Backend_intf.t -> Astitch_simt.Arch.t -> Graph.t -> bool
(** Invalidate the cached compile for this (graph, arch, backend) —
    serving quarantine dropping a plan suspected of corrupt output.
    [true] when an entry was present. *)

val compile_resilient_cached :
  ?config:Astitch_core.Config.t ->
  cache ->
  Astitch_simt.Arch.t ->
  Graph.t ->
  (resilient, Compile_error.t) Stdlib.result * Plan_cache.outcome
(** {!compile_resilient} behind the plan cache, with {!compile_cached}'s
    fault rule.  Only full-strength results are stored: compile errors,
    non-empty degradation reports and fault-injected compiles all bypass
    the cache.  A hit therefore comes back with an empty report. *)

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
