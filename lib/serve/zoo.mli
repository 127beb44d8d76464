(** Multi-tenant model-zoo serving: N models, one worker pool, SLO
    classes, and a persistent plan store.

    A zoo wraps {!Serve} with the multi-tenant policy surface: every
    model registers with an {!Slo.t} class, which drives the
    scheduler's class-priority/EDF dispatch, its fair-share floor, and
    per-request default deadlines; outcomes are additionally accounted
    per class ({!class_stats}), which is what the CLI's per-SLO-class
    p99 and goodput table reads.

    The plan store closes the compile-once loop across process
    restarts: {!prewarm} loads every registered model's plans from
    [plan_dir] (falling back to compiling and saving them), optionally
    gating each loaded plan on bit-identity against a fresh compile,
    and then warms executor contexts - all before the zoo admits any
    traffic.  A restarted zoo pointed at the same directory serves its
    first request of every model with zero compile-phase spans. *)

open Astitch_tensor

type config = {
  serve : Serve.config;
      (** the underlying server's config; its [slos] field is
          overwritten from the registration list *)
  plan_dir : string option;  (** plan-store directory; [None] = no persistence *)
  verify_plans : bool;
      (** bit-identity gate: recompile each store-loaded plan and
          require [Plan_codec.equal] with the fresh compile, discarding
          (and recounting as compiled) on mismatch.  Costs the compiles
          the store was saving, so it is a verification mode, not the
          serving default. *)
}

val default_config : config
(** [Serve.default_config], no plan dir, no verification. *)

type prewarm = {
  loaded : int;  (** plans served from the store (no compile) *)
  compiled : int;  (** cold compiles (absent/rejected/unverified plans) *)
  verified : int;  (** loaded plans that passed the bit-identity gate *)
  rejected : int;
      (** store files discarded: codec error, structural check failure,
          or bit-identity mismatch (each recompiled fresh) *)
  saved : int;  (** plans newly persisted to the store *)
}

type t

val create : ?config:config -> (Serve.model * Slo.t) list -> t
(** Register models with their SLO classes.  The zoo refuses traffic
    until {!prewarm} has run.
    @raise Invalid_argument on duplicate or empty registrations. *)

val prewarm : t -> prewarm
(** Load-or-compile every registered model's plans, then warm executor
    contexts.  For each plan the store either hits ([loaded], gated by
    [verify_plans]) or the plan is compiled cold and saved back
    ([compiled], [saved]).  Idempotent; traffic is admitted after the
    first call. *)

val server : t -> Serve.t
(** The underlying server (trace/metrics surfaces, supervision,
    drain). *)

val slo : t -> model:string -> Slo.t
(** @raise Invalid_argument on an unknown model. *)

val models : t -> (string * Slo.t) list
(** Registered models in registration order. *)

type ticket = Serve.ticket

val submit_async :
  ?deadline_us:float ->
  t ->
  model:string ->
  params:(string * Tensor.t) list ->
  (ticket, Request.overload) result
(** {!Serve.submit_async} plus per-class accounting.
    @raise Invalid_argument on an unknown model or before {!prewarm}. *)

val await : t -> ticket -> Request.outcome
(** Blocks for the outcome and folds it into the per-class accounts. *)

val poll : t -> ticket -> Request.outcome option

val submit :
  ?deadline_us:float ->
  t ->
  model:string ->
  params:(string * Tensor.t) list ->
  Request.outcome

type class_stats = {
  cls : string;  (** "latency" | "throughput" | "best-effort" *)
  submitted : int;  (** admitted requests *)
  completed : int;
  shed : int;  (** overloaded after admission (deadline, displaced...) *)
  rejected : int;  (** refused at admission *)
  failed : int;
  deadline_met : int;
      (** completions within the class deadline (equals [completed]
          for classes without one) *)
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
}

val class_stats : t -> class_stats list
(** Per-SLO-class accounting over every outcome observed via
    {!await}/{!poll}, in class rank order.  Goodput for a class is
    [deadline_met] (or [completed]) over the run's wall time. *)

val drain : t -> unit

val shutdown : t -> int
(** Drain, persist every cached plan to the store (returns how many
    were saved; 0 without a [plan_dir]), and shut the server down.
    Idempotent. *)
