(** Batched serving runtime front end.

    Load batch-parameterized model builders, then submit requests with
    per-request parameter bindings; the runtime batches compatible
    requests continuously - a dispatched batch executes at exactly its
    request count, any size up to [max_batch], with zero padded rows -
    on a pool of worker domains with reused executor contexts, and
    hands back per-request outputs bit-identical to solo execution.
    Every model compiles ONE shape-polymorphic plan (at [max_batch])
    and serves every batch size on it by prefix rebinding; a builder
    the batch-axis analysis rejects is refused at {!create}.  Admission
    is bounded: past [queue_depth] the server answers [Overloaded]
    instead of queuing. *)

open Astitch_ir
open Astitch_tensor

type model = {
  name : string;
  build : batch:int -> Graph.t;
      (** must be batchable per [Batching.analyze] *)
}

type config = {
  workers : int;  (** worker domains executing batches; at least 1 *)
  max_batch : int;  (** largest batch a dispatch may take *)
  max_wait_us : float;
      (** upper bound on how long a partial batch is held; within it a
          batch is held for one measured service time of its model *)
  queue_depth : int;  (** admission-control bound, across models *)
  arch : Astitch_simt.Arch.t;
  verify_every : int;  (** spot checks against the interpreter; 0 = off *)
  seed : int;  (** shared-weight generation *)
  retry_budget : int;
      (** how many failed batch executions a request survives before
          it is served alone by the reference interpreter (the
          fallback rung, which compiles nothing) *)
  breaker_threshold : int;
      (** consecutive batch failures that open a model's circuit
          breaker; 0 disables breakers *)
  breaker_cooldown_us : float;
      (** how long an open breaker fast-rejects before a half-open
          probe is admitted *)
  wedge_timeout_us : float;
      (** a worker stuck mid-batch longer than this has its batch
          stolen and recovered *)
  slos : (string * Slo.t) list;
      (** per-model SLO classes; a model not listed is [Best_effort].
          One scheduler rule serves every table: strict class priority,
          EDF inside the Latency class, oldest head first otherwise, and
          displacement of a lower class by a higher one on a full
          queue.  With no classes every model is best-effort, so
          dispatch is oldest head first across models.  A model with a
          [Latency] class inherits its deadline as the per-request
          default.  Listing an unregistered model is an
          [Invalid_argument]. *)
  fair_share_floor : float;
      (** fraction of dispatches reserved for the least-served model
          (default 0.125 = every 8th dispatch), so Best_effort tenants
          keep making progress under overload.  It applies only when
          the served models span at least two classes; [0.] = pure
          strict priority *)
}

val default_config : config
(** 2 workers, max_batch 8, 2ms max wait, depth 64, v100, no
    verification, seed 42; retry budget 2, breaker threshold 4 /
    cooldown 5ms, wedge timeout 50ms; no SLOs (every model
    best-effort), fair-share floor 1/8.  Workers execute on the fused
    engine, each model on contexts built from its one plan, and
    respawn after 1ms, doubling per consecutive death (capped at
    128x). *)

type t

val create : ?config:config -> model list -> t
(** Analyze every builder for batchability ({!Batching.analyze} at
    [max_batch]), fix shared weights deterministically, spawn the
    workers.  Arguments are checked before any fd or domain is taken.
    @raise Batching.Not_batchable if a builder cannot batch, with the
    model's name and the analysis' reason.
    @raise Invalid_argument on duplicate or empty model lists,
    [workers < 1], a negative [retry_budget], [max_batch < 1], or an
    out-of-range [queue_depth] or [fair_share_floor]. *)

val set_plan : t -> model:string -> Astitch_plan.Kernel_plan.t -> unit
(** Give [model] its max-batch plan before traffic - the zoo hands
    over store-loaded plans this way - so no checkout compiles it.  The
    plan must come from the full AStitch backend for the server's arch
    on the model's [max_batch] graph; it is kept for the server's
    lifetime, through any fault.
    @raise Invalid_argument on an unknown model, or when the model
    already has its plan (set, or compiled by {!warm} or traffic). *)

val warm : t -> unit
(** Build one max-batch context per model, compiling each plan not yet
    set, so the first requests pay neither. *)

type ticket = int

val submit_async :
  ?deadline_us:float ->
  t ->
  model:string ->
  params:(string * Tensor.t) list ->
  (ticket, Request.overload) result
(** Admit or refuse, without blocking.  The request is stamped with
    [Astitch_obs.Clock.now_us], the monotonic clock every serving
    deadline is checked against.  [deadline_us] is relative to that
    stamp; without one the request takes its model's SLO-class deadline
    (a [Latency] class carries one), and otherwise has none.  A
    request whose deadline is already past on arrival is refused as
    [Deadline_exceeded] at admission (counted under [shed_admission])
    instead of occupying queue space.
    @raise Invalid_argument on an unknown model. *)

val submit_all :
  t ->
  model:string ->
  (string * Tensor.t) list list ->
  (ticket, Request.overload) result list
(** [submit_async] (without an explicit deadline) for each binding
    list in order, admitted under one acquisition of the scheduler
    lock, so no worker sees part of the burst: the same admission rules
    apply to each request, and the result list holds one result per
    request.
    @raise Invalid_argument on an unknown model. *)

val await : t -> ticket -> Request.outcome
(** Block until the outcome lands; consumes the ticket. *)

val poll : t -> ticket -> Request.outcome option

val class_stats : t -> Scheduler.class_stats list
(** Per-SLO-class outcomes, counted as they land: see
    {!Scheduler.class_stats}. *)

val submit :
  ?deadline_us:float ->
  t ->
  model:string ->
  params:(string * Tensor.t) list ->
  Request.outcome
(** [submit_async] + [await]; refusals come back as [Overloaded]. *)

val random_request : t -> model:string -> seed:int -> (string * Tensor.t) list
(** Deterministic per-request bindings for [model] (generators, tests,
    benches). *)

val spec : t -> model:string -> Batching.spec

val symbolic : t -> model:string -> bool
(** True when every pooled context of [model] rebinds
    ({!Astitch_runtime.Executor.rebindable}): always, since every plan
    the pool runs carries the model's batch axis and every kernel,
    stitched or not, bounds its loops at the batch prefix.  Kept as a
    check for callers that assert it. *)

val context_pool_sizes : t -> (string * int) list
(** Free pooled executor contexts per model, sorted by name.  After a
    drain on a single-worker server, every model holds exactly 1. *)

val shared_weights : t -> model:string -> (string * Tensor.t) list
(** The weights the server fixed at load time - what a reference solo
    execution must bind to reproduce served outputs. *)

val drain : t -> unit
(** Flush all outstanding work, then resume accepting. *)

val shutdown : t -> unit
(** Drain, stop the scheduler, join every worker.  Idempotent. *)

type stats = {
  submitted : int;
  rejected : int;
  shed : int;
  shed_admission : int;
      (** refused at submit with an already-past deadline (subset of
          [rejected], never counted as [shed]) *)
  displaced : int;
      (** queued lower-SLO-class requests evicted to admit higher-class
          arrivals (subset of [shed]) *)
  floor_picks : int;
      (** dispatches the fair-share floor redirected to the
          least-served model (0 unless two or more classes are served) *)
  completed : int;
  failed : int;
  degraded : int;
  batches : int;
  padded_rows : int;
      (** always 0: every batch runs at its request count (see
          {!symbolic}); kept for callers that report it *)
  plan_compiles : int;
      (** plans compiled at context checkout, for models that had none
          (one per model, two if two workers race on a cold one); a
          quarantine keeps the plan and compiles nothing *)
  outstanding : int;
  queue_depth : int;
  max_depth_seen : int;
  retried : int;  (** failed-batch requests re-dispatched solo *)
  duplicates : int;  (** completions dropped by first-wins *)
  breaker_opens : int;
  breaker_closes : int;
}

val stats : t -> stats

type phase_latency = {
  phase : string;
  count : int;
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  max_us : float;
}
(** One row of the tail-latency blame table: quantiles of one lifecycle
    phase's histogram ([serve.<phase>_us]). *)

val latency_breakdown : unit -> phase_latency list
(** Per-phase latency attribution from the process-wide metrics
    registry, in pipeline order (queue, batch_wait, pack, exec, unpack)
    with the end-to-end [request] row last.  The five phase stamps
    telescope - for every completed request their sum equals its
    end-to-end latency sample - so per-phase totals reconcile with the
    [request] total.  Quantiles do {e not} sum across rows (quantiles
    are not additive); the means and totals do. *)

type supervision = Worker_pool.supervision = {
  restarts : int;  (** worker domains respawned after a death *)
  quarantined : int;  (** contexts retired after a fault-touched batch *)
  wedged : int;  (** batches stolen from stalled workers *)
  workers_alive : int;
}

val supervision : t -> supervision

val breaker_state : t -> model:string -> [ `Closed | `Open | `Half_open ]

type disposition = {
  served : int;
  d_degraded : int;
  d_failed : int;
  overloaded : int;  (** shed after admission (deadline, breaker) *)
  d_rejected : int;  (** refused at submission *)
  lost : int;
      (** submitted - completed - failed - shed - outstanding; the
          supervision contract keeps this at 0 after a drain, under any
          fault *)
}

val disposition : t -> disposition
