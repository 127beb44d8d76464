(* Continuous-batching policy: when to dispatch, and how many.

   Pure decision logic - the scheduler feeds it queue state under its
   lock and acts on the verdict.  Batches are NOT quantised: a dispatch
   takes exactly the requests that are waiting (capped at [max_batch]),
   and the worker pool executes that exact size against one
   shape-polymorphic context per model, so no padded rows ever run.

   Dispatch fires when any of:
     - a full [max_batch] is waiting (no reason to wait longer);
     - the oldest pending request has waited its model's hold, capped
       at [max_wait_us] (see [held_us]);
     - the server is draining (flush everything now).

   The hold is the rent-or-buy rule for batching.  Waiting for
   batchmates is worth it only while it costs the head request less
   than dispatching early would cost a batchmate arriving just after
   it: that batchmate would wait one batch service time behind the
   early dispatch.  So a partial batch is held for one measured service
   time of its model and no longer.  A model with no measured batch
   has a hold of 0 - there is no evidence yet that waiting pays off.
   [max_wait_us] stays the upper bound: a request is never held longer
   than that. *)

type policy = { max_batch : int; max_wait_us : float }

let policy ~max_batch ~max_wait_us =
  if max_batch < 1 then invalid_arg "Batcher.policy: max_batch must be >= 1";
  if max_wait_us < 0. then
    invalid_arg "Batcher.policy: max_wait_us must be >= 0";
  { max_batch; max_wait_us }

let max_wait_us p = p.max_wait_us
let max_batch p = p.max_batch

(* The longest a parked worker goes without re-examining the queue.
   Stdlib condition variables have no timed wait, so workers wait on the
   scheduler's wake pipe with a timeout: until the earliest hold
   expires, capped at this tick - a quarter of [max_wait_us], clamped
   to [50, 200] us.  The cap bounds how long an arrival for another model
   can go unseen by a parked worker; the clamp keeps polling from
   burning a core on tiny windows.  (Queue events - a filling batch,
   drain, shutdown - don't pay even that: they write the wake pipe and
   the select returns at once.) *)
let poll_interval_us p =
  Float.min 200. (Float.max 50. (p.max_wait_us /. 4.))

let held_us p ~hold_us = Float.min hold_us p.max_wait_us

type decision = Dispatch of int  (** dequeue this many now *) | Wait

let decide p ~pending ~oldest_wait_us ~hold_us ~draining =
  if pending <= 0 then Wait
  else if pending >= p.max_batch then Dispatch p.max_batch
  else if draining || oldest_wait_us >= held_us p ~hold_us then
    Dispatch pending
  else Wait
