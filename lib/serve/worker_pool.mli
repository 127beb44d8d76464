(** Domain worker pool: executes scheduled batches on pooled contexts,
    under supervision.

    Workers are OCaml 5 domains looping on [Scheduler.next_batch].
    Each model owns one plan, compiled at [max_batch], and a free list
    of executor contexts built from it; each context executes any batch
    size by prefix rebinding ([Executor.run_context ~batch]) - zero
    padded rows, zero recompilation.  Contexts are not concurrent-safe,
    so each is owned by one worker for the duration of one batch.
    Heartbeats, restart gates and latency phases read
    [Astitch_obs.Clock.now_us].

    A monitor domain restarts dead workers (exponential backoff) and
    steals batches from wedged ones (stale heartbeat past the wedge
    timeout); a failing or fault-poisoned batch quarantines its context
    (the model keeps its plan) and re-dispatches its requests solo
    under a per-request retry budget, falling back to the reference
    interpreter per request when the budget is spent.  The pool never
    crashes the server and never loses a request. *)

open Astitch_tensor
open Astitch_runtime

type model_state = {
  spec : Batching.spec;  (** carries the [Batch_axis.plan] contexts run *)
  shared : (string * Tensor.t) list;  (** weight bindings, fixed at load *)
  mu : Mutex.t;  (** guards [plan] and [free] *)
  mutable plan : Astitch_plan.Kernel_plan.t option;
      (** the model's max-batch plan; once set, never replaced *)
  mutable free : Executor.context list;
      (** free contexts, all built from [plan] *)
}

type t

val create :
  scheduler:Scheduler.t ->
  models:(string, model_state) Hashtbl.t ->
  arch:Astitch_simt.Arch.t ->
  verify_every:int ->
  retry_budget:int ->
  wedge_timeout_us:float ->
  workers:int ->
  t
(** Spawn [workers] domains plus one monitor domain immediately;
    [Serve.create] refuses [workers < 1] before calling this.
    [verify_every] > 0 checks the first request of every n-th batch
    against [Interp.run] on the model's batch-1 graph, bit for bit (a
    serving self-check; 0 disables).  [retry_budget] is how many
    failed batch executions a request survives before dropping to the
    fallback rung: that same interpreter call, which compiles nothing.
    A worker whose heartbeat goes stale for [wedge_timeout_us] with a
    batch in hand is wedged (batch stolen); a dead worker is respawned
    after 1 ms, doubling per consecutive death (capped at 128x).
    Contexts run on the fused engine. *)

val join : t -> unit
(** Block until the monitor and every worker exit.  Call after
    [Scheduler.shutdown]. *)

val set_plan : model_state -> Astitch_plan.Kernel_plan.t -> unit
(** Give a model its max-batch plan (compiled for the pool's arch by
    the full AStitch backend, e.g. loaded from a plan store), so no
    checkout compiles it.  The plan keeps the spec's batch axis.
    @raise Invalid_argument when the model already has its plan. *)

val warm : t -> unit
(** Hide compile and context latency from the first requests: build
    one max-batch context per model, compiling the plans not yet
    set. *)

val plan_compiles : t -> int
(** Plans compiled at context checkout, for models that had none: at
    most one per model, or two when two workers race on a cold model.
    Quarantine keeps the plan, so faults add none. *)

val context_counts : t -> (string * int) list
(** Free pooled contexts per model, sorted by name.  A drained
    single-worker server holds exactly 1 per model. *)

type supervision = {
  restarts : int;  (** worker domains respawned after a death *)
  quarantined : int;  (** contexts retired after a fault-touched batch *)
  wedged : int;  (** batches stolen from stalled workers *)
  workers_alive : int;
}

val supervision : t -> supervision
