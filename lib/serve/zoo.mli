(** Multi-tenant model-zoo serving: a {!Serve} plus a persistent plan
    store.

    Serving itself is {!Serve}'s: the zoo registers every model with an
    {!Slo.t} class and hands the table to the server, whose scheduler
    turns it into class-priority/EDF dispatch, a fair-share floor,
    per-request default deadlines and per-class accounts.  What the zoo
    adds is the plan store and the rule that no traffic is admitted
    before {!prewarm}.

    The plan store closes the compile-once loop across process
    restarts: {!prewarm} loads every registered model's max-batch plan
    from [plan_dir] (falling back to compiling and saving it),
    optionally gating each loaded plan on bit-identity against a fresh
    compile, hands each plan to its model ({!Serve.set_plan}), and then
    warms executor contexts - all before the zoo admits any traffic.
    A model keeps its plan through any runtime fault (quarantine
    retires only the context), so a restarted zoo pointed at the same
    directory serves every request without a compile: traffic, chaos
    included, leaves [session.compiles] where prewarm left it. *)

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
(** Open the plan store, then register models with their SLO classes
    (see {!Serve.create}).  The zoo refuses traffic until {!prewarm}
    has run.
    @raise Sys_error when [plan_dir] cannot be a directory; no server
    is started then.
    @raise Invalid_argument on duplicate or empty registrations. *)

val prewarm : t -> prewarm
(** Load-or-compile every registered model's one max-batch plan, hand
    it to the model, then warm one executor context per model.  For
    each plan the store either hits ([loaded], gated by
    [verify_plans]) or the plan is compiled cold and saved back
    ([compiled], [saved]).  Idempotent; traffic is admitted after the
    first call.
    @raise Invalid_argument when a model already has its plan (the
    server was warmed or served before the first call). *)

val server : t -> Serve.t
(** The underlying server (trace/metrics surfaces, supervision,
    drain). *)

type ticket = Serve.ticket

val submit_async :
  ?deadline_us:float ->
  t ->
  model:string ->
  params:(string * Tensor.t) list ->
  (ticket, Request.overload) result
(** {!Serve.submit_async}, once {!prewarm} has run.
    @raise Invalid_argument on an unknown model or before {!prewarm}. *)

val submit :
  ?deadline_us:float ->
  t ->
  model:string ->
  params:(string * Tensor.t) list ->
  Request.outcome
(** {!Serve.submit}, once {!prewarm} has run. *)

val await : t -> ticket -> Request.outcome
val poll : t -> ticket -> Request.outcome option

val class_stats : t -> Scheduler.class_stats list
(** {!Serve.class_stats}: per-SLO-class counts taken as outcomes land,
    in rank order, one row per class that has seen a request.  Once the
    zoo is drained they cover every request.  The mean latency is
    exact; p50/p95/p99 come from a log-bucketed histogram, within ~9.5%
    of the true sample.  Goodput for a class is [deadline_met] over the
    run's wall time. *)

val drain : t -> unit

val shutdown : t -> unit
(** {!Serve.shutdown}: drain and stop the server.  Writes nothing to the
    store - {!prewarm} already saved every plan it compiled.
    Idempotent. *)
