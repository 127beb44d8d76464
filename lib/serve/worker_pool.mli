(** Domain worker pool: executes scheduled batches on pooled contexts,
    under supervision.

    Workers are OCaml 5 domains looping on [Scheduler.next_batch].
    Executor contexts are pooled PER MODEL, in one free list keyed by
    the batch size a context was compiled at: a batch-axis-analyzable
    builder compiles once at [max_batch] into a shape-polymorphic
    context that executes any batch size by prefix rebinding
    ([Executor.run_context ~batch]) - zero padded rows, zero
    recompilation.  Builders the analysis rejects fall back to
    fixed-extent serving (one context per exact batch size, still
    unpadded).  Contexts are not concurrent-safe, so each is owned by
    one worker for the duration of one batch.  Heartbeats, restart
    gates and latency phases read [Astitch_obs.Clock.now_us].

    A monitor domain restarts dead workers (exponential backoff) and
    steals batches from wedged ones (stale heartbeat past the wedge
    timeout); a failing or fault-poisoned batch quarantines its context,
    evicts the plan behind it from the compile cache, and re-dispatches
    its requests solo under a per-request retry budget, falling back to
    resilient per-request execution when the budget is spent.  The pool
    never crashes the server and never loses a request. *)

open Astitch_ir
open Astitch_tensor
open Astitch_runtime

type model_state = {
  spec : Batching.spec;
  shared : (string * Tensor.t) list;  (** weight bindings, fixed at load *)
  max_batch : int;
  mu : Mutex.t;  (** guards [batch] and [free] *)
  mutable batch : Batch_axis.plan option;
      (** decided at load from [Batch_axis.analyze]: [Some] while one
          max-batch context serves every size (checkouts key on
          [max_batch]); dropped to [None] - fixed-extent, checkouts key
          on the exact size - if the compiled context can't rebind.  That
          context stays pooled under [max_batch] and serves full
          batches. *)
  free : (int, Executor.context list) Hashtbl.t;
      (** free contexts, keyed by the batch size they were compiled at *)
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
    [verify_every] > 0 re-executes the first request of every n-th
    batch alone and asserts the batched outputs are bit-identical (a
    serving self-check; 0 disables).  [retry_budget] is how many
    failed batch executions a request survives before dropping to the
    per-request fallback rung.  A worker whose heartbeat goes stale for
    [wedge_timeout_us] with a batch in hand is wedged (batch stolen);
    a dead worker is respawned after 1 ms, doubling per consecutive
    death (capped at 128x).  Contexts run on the fused engine. *)

val join : t -> unit
(** Block until the monitor and every worker exit.  Call after
    [Scheduler.shutdown]. *)

val warm : t -> unit
(** Pre-compile every model (hide compile latency from the first
    requests) at its {!warm_sizes}. *)

val warm_sizes : model_state -> int list
(** The batch sizes {!warm} checks out: [max_batch] for a symbolic
    model, 1 and [max_batch] for a fixed-extent one. *)

val padded_rows : t -> int
(** Padded rows executed so far.  Continuous batching packs every batch
    at its exact size, so this reads 0; it stays wired to the actual
    pack extent so any regression surfaces. *)

val plan_compiles : t -> int
(** Plan compiles performed at context checkout (shared-cache misses
    and bypasses).  One per symbolic model in steady state. *)

val plan_cache : t -> Astitch_runtime.Session.cache
(** The shared session cache behind every checkout.  Exposed so zoo
    prewarming can seed it with store-loaded plans (checkouts then hit
    instead of compiling) and persist it on shutdown. *)

val context_counts : t -> (string * int) list
(** Free pooled contexts per model, sorted by name, over every compiled
    batch size.  A drained single-worker server holds exactly 1 per
    symbolic model. *)

type supervision = {
  restarts : int;  (** worker domains respawned after a death *)
  quarantined : int;  (** contexts retired after a fault-touched batch *)
  wedged : int;  (** batches stolen from stalled workers *)
  workers_alive : int;
}

val supervision : t -> supervision
