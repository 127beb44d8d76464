(** Domain worker pool: executes scheduled batches on pooled contexts,
    under supervision.

    Workers are OCaml 5 domains looping on [Scheduler.next_batch].
    Executor contexts are pooled PER MODEL, in one free list of
    contexts compiled at [max_batch]; each executes any batch size by
    prefix rebinding ([Executor.run_context ~batch]) - zero padded
    rows, zero recompilation.  A context that cannot rebind (a kernel
    on the reference path) runs every batch at [max_batch] rows, the
    last request copied into the padding rows.  Contexts are not
    concurrent-safe, so each is owned by one worker for the duration of
    one batch.  Heartbeats, restart gates and latency phases read
    [Astitch_obs.Clock.now_us].

    A monitor domain restarts dead workers (exponential backoff) and
    steals batches from wedged ones (stale heartbeat past the wedge
    timeout); a failing or fault-poisoned batch quarantines its context,
    evicts the plan behind it from the compile cache, and re-dispatches
    its requests solo under a per-request retry budget, falling back to
    the reference interpreter per request when the budget is spent.
    The pool never crashes the server and never loses a request. *)

open Astitch_tensor
open Astitch_runtime

type model_state = {
  spec : Batching.spec;  (** carries the [Batch_axis.plan] contexts run *)
  shared : (string * Tensor.t) list;  (** weight bindings, fixed at load *)
  mu : Mutex.t;  (** guards [free] *)
  mutable free : Executor.context list;
      (** free contexts, all compiled at the spec's [max_batch] *)
}

type t

val create :
  scheduler:Scheduler.t ->
  models:(string, model_state) Hashtbl.t ->
  cache:Session.cache ->
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

val warm : t -> unit
(** Pre-compile every model (hide compile latency from the first
    requests): check out one max-batch context per model. *)

val padded_rows : t -> int
(** Padded rows executed so far.  Continuous batching packs every batch
    at its exact size; only a context that cannot rebind pads, to
    [max_batch] rows. *)

val plan_compiles : t -> int
(** Plan compiles performed at context checkout (shared-cache misses
    and bypasses).  At most one per model in steady state. *)

val plan_cache : t -> Astitch_runtime.Session.cache
(** The shared session cache behind every checkout.  Exposed so zoo
    prewarming can seed it with store-loaded plans (checkouts then hit
    instead of compiling) and persist it on shutdown. *)

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
