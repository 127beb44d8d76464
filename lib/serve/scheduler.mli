(** Request scheduler: bounded admission, deadline shedding, and
    batch dispatch to the worker pool.

    Safe for concurrent use from any number of submitter threads and
    worker domains.  [submit] is the admission-control line: it either
    admits the request (an outcome will eventually appear under its id)
    or returns the structured overload synchronously. *)

type t

type batch = {
  model : string;
  requests : Request.t list;
      (** FIFO, length in [1, max_batch]; executed at exactly this
          size - nothing is padded *)
}

val create :
  ?breaker_threshold:int ->
  ?breaker_cooldown_us:float ->
  ?slos:(string * Slo.t) list ->
  ?fair_share_floor:float ->
  policy:Batcher.policy ->
  queue_depth:int ->
  unit ->
  t
(** [breaker_threshold] (default 4) is the consecutive-batch-failure
    count that opens a model's circuit breaker; [0] disables breakers.
    [breaker_cooldown_us] (default 5000) is how long an open breaker
    refuses before admitting a half-open probe.

    [slos] gives each model its SLO class; a model not listed is
    [Best_effort].  One rule orders dispatch: strict class priority
    (Latency > Throughput > Best_effort), then the head request's
    absolute deadline inside the Latency class and its submission time
    otherwise, then the head request's id.  With no classes every model
    is best-effort, so the oldest head dispatches first.  A full queue
    evicts the newest entry of the lowest class below an arrival's
    (completed as [Overloaded Displaced]) to admit it.

    [fair_share_floor] (default 0.125) reserves every
    [round(1/floor)]-th dispatch for the least-served model regardless
    of class, so Best_effort keeps making progress under sustained
    overload.  The floor applies only when [slos] holds at least two
    distinct classes; [0.] disables it (pure strict priority).
    Arguments are checked before any resource is taken.
    @raise Invalid_argument when [fair_share_floor] is outside
    [0, 0.5] or [queue_depth < 1]. *)

val slo : t -> string -> Slo.t
(** The class a model is served under ([Best_effort] when not listed). *)

val submit : t -> Request.t -> (unit, Request.overload) result
(** Admit or refuse.  Refusals ([Queue_full], [Shutting_down],
    [Breaker_open], and [Deadline_exceeded] for a request whose
    deadline is already past on arrival) never occupy queue space and
    never produce an outcome entry.  Admission-time deadline refusals
    are counted as rejections plus [shed_admission], never as shed. *)

val submit_all : t -> Request.t list -> (unit, Request.overload) result list
(** [submit] for each request in order, under one acquisition of the
    scheduler lock: no worker sees part of the burst.  One result per
    request. *)

val requeue : t -> Request.t -> unit
(** Re-admit a request from a failed batch for a solo re-dispatch.
    Bypasses admission control (the request is already admitted and
    counted in [outstanding]) and never refuses - losing a retried
    request is not an option. *)

val next_batch : t -> batch option
(** Worker entry point: block until a batch is ready.  Sheds expired
    requests (completing them as [Overloaded Deadline_exceeded]) before
    each pick.  A partial batch is held for its model's hold (see
    {!note_batch_result}) capped at the policy's [max_wait_us]; while
    every waiting batch is held, the worker parks until the earliest
    hold expires, at most one {!Batcher.poll_interval_us} tick.  [None]
    means the scheduler is shut down and drained - the worker should
    exit. *)

val dispose : t -> unit
(** Close the wake pipe.  Call only once no worker can be parked in
    [next_batch] (after the pool has joined).  Idempotent. *)

val outstanding : t -> int
(** Admitted requests whose outcome has not yet been recorded. *)

val complete : t -> Request.t -> Request.outcome -> unit
(** Record the outcome for an admitted request and wake waiters.
    Idempotent, first-wins: completing an already-resolved request
    ([Request.resolved] set) is counted as a duplicate and otherwise
    ignored, so wedge-steal double execution can't corrupt the
    accounting.  The scheduler keeps no per-request state beyond the
    outcome awaiting its ticket.  The winning
    completion terminates the request's flow arrow. *)

val note_batch_result :
  t -> model:string -> ok:bool -> service_us:float -> unit
(** Feed a batch execution result to [model]'s circuit breaker:
    [breaker_threshold] consecutive failures open it, a success closes
    it, a failed half-open probe re-opens it for another cooldown.
    [service_us] is the time from the batch's dispatch stamp
    ([Request.dispatched_us]) to its result, on [Clock.now_us] (the
    worker pool leaves its optional spot check out).  A success's
    becomes [model]'s hold - how long its next partial batches are
    held - as it is, unsmoothed; a failure leaves the hold as it was.
    A model never reported has a hold of 0. *)

val breaker_state : t -> string -> [ `Closed | `Open | `Half_open ]
(** Current breaker state for a model ([`Closed] if never tripped). *)

val await : t -> int -> Request.outcome
(** Block until the outcome for [id] lands; consumes the entry. *)

val poll : t -> int -> Request.outcome option
(** Non-blocking [await]; consumes the entry when present. *)

val drain : t -> unit
(** Flush: refuse new submissions, dispatch pending work immediately,
    block until nothing is outstanding, then accept again. *)

val shutdown : t -> unit
(** Stop accepting and let workers exit once the queue empties. *)

type class_stats = {
  cls : string;  (** "latency" | "throughput" | "best-effort" *)
  submitted : int;  (** admitted requests *)
  rejected : int;  (** refused at admission *)
  completed : int;
  shed : int;  (** overloaded after admission (deadline, displaced...) *)
  failed : int;
  deadline_met : int;
      (** completions by the request's own deadline (every completion
          counts for a request without one) *)
  mean_us : float;  (** exact mean latency of the completions *)
  p50_us : float;
  p95_us : float;
  p99_us : float;
      (** latency quantiles from a log-bucketed histogram, within ~9.5%
          of the true sample *)
}

val class_stats : t -> class_stats list
(** Per-class accounts, counted under the scheduler lock as requests
    are admitted, refused and completed; one row per class that has
    seen a request, in rank order.  Summed over the rows, [submitted],
    [rejected], [completed], [shed] and [failed] equal {!stats}'. *)

type stats = {
  submitted : int;
  rejected : int;
  shed : int;
  shed_admission : int;
      (** refused at submit with a deadline already past (also counted
          in [rejected]: never admitted, so the disposition ledger
          still balances) *)
  displaced : int;
      (** queued lower-class requests evicted by displacement shedding
          (also counted in [shed]: they complete as [Overloaded]) *)
  floor_picks : int;  (** dispatches taken by the fair-share floor *)
  completed : int;
  failed : int;
  degraded : int;
  batches : int;
  outstanding : int;
  queue_depth : int;
  max_depth_seen : int;
  retried : int;  (** failed-batch requests re-dispatched solo *)
  duplicates : int;  (** completions dropped by first-wins *)
  breaker_opens : int;
  breaker_closes : int;
}

val stats : t -> stats
(** A snapshot under the scheduler lock.  [submitted], [rejected],
    [completed], [shed] and [failed] are the sums of the per-class
    accounts ({!class_stats}): the scheduler keeps no second copy. *)
