(** Continuous-batching policy: when to dispatch, and how many.

    Pure decision logic over queue state; the scheduler acts on it.
    Dispatched batches are exactly the pending requests (capped at
    [max_batch]) - sizes are not quantised and nothing is padded.

    A partial batch is held for its model's hold - one measured batch
    service time, which the scheduler supplies - and never longer than
    [max_wait_us], the upper bound on how long a request is held. *)

type policy

val policy : max_batch:int -> max_wait_us:float -> policy
val max_wait_us : policy -> float
val max_batch : policy -> int

val poll_interval_us : policy -> float
(** The cap on a parked worker's wait: [max_wait_us / 4] clamped to
    [50, 200] us.  A worker sleeps until the earliest hold expires, but
    never longer than this, so an arrival for another model is seen
    within one tick; queue events bypass it entirely via the
    scheduler's wake pipe. *)

val held_us : policy -> hold_us:float -> float
(** How long a partial batch whose model's hold is [hold_us] waits
    before it dispatches: [Float.min hold_us max_wait_us]. *)

type decision = Dispatch of int  (** dequeue this many now *) | Wait

val decide :
  policy ->
  pending:int ->
  oldest_wait_us:float ->
  hold_us:float ->
  draining:bool ->
  decision
(** Dispatch on a full batch, a draining server, or a partial batch
    whose head has waited {!held_us} ([oldest_wait_us >= Float.min
    hold_us max_wait_us]).  A hold of 0 - a model with no measured
    batch - dispatches at once. *)
