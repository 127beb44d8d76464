(* A serving request and its lifecycle.

   Requests are submitted against a named model with per-request
   parameter bindings at batch 1; the runtime owns everything else
   (shared weights, batching, compilation, execution).  Every submitted
   request resolves to exactly one [outcome]: served, structurally
   rejected/shed ([Overloaded] - the admission-control contract, never
   an unbounded queue), or failed after the degradation ladder ran dry.
   Timestamps are monotonic microseconds ([Astitch_obs.Clock.now_us]),
   the clock every serving deadline, cooldown and latency phase reads. *)

open Astitch_tensor

type overload =
  | Queue_full  (** rejected at submission: the bounded queue is at depth *)
  | Deadline_exceeded  (** shed at dispatch: waited past its deadline *)
  | Shutting_down  (** rejected at submission: the server is draining *)
  | Breaker_open
      (** rejected fast: the model's circuit breaker is open after
          consecutive batch failures *)
  | Displaced
      (** shed from the queue: a full queue made room for an arriving
          higher-SLO-class request by evicting this newest lower-class
          entry *)

let overload_to_string = function
  | Queue_full -> "queue-full"
  | Deadline_exceeded -> "deadline-exceeded"
  | Shutting_down -> "shutting-down"
  | Breaker_open -> "breaker-open"
  | Displaced -> "displaced"

type outcome =
  | Done of {
      outputs : Tensor.t list;
      latency_us : float;  (** submission to completion *)
      batch : int;  (** exact batch size this request was served at *)
      degraded : bool;  (** served on the per-request fallback path *)
    }
  | Overloaded of overload
  | Failed of string

type t = {
  id : int;
  model : string;
  params : (string * Tensor.t) list;  (** per-request bindings, batch 1 *)
  submitted_us : float;
  deadline_us : float option;  (** absolute; [None] = wait forever *)
  mutable attempts : int;
      (** batch executions this request has been part of that failed;
          supervision re-dispatches until the retry budget is spent *)
  trace : Astitch_obs.Trace.context;
      (** minted on the submitting thread; links this request's spans
          across domains via flow arrows (null when tracing is off) *)
  mutable dispatched_us : float;
      (** stamped when the scheduler hands the request to a worker (last
          attempt wins); 0 until first dispatch.  Splits queue wait from
          the on-worker phases in the latency decomposition. *)
  mutable resolved : bool;
      (** an outcome has landed; set once, by the scheduler's first-wins
          completion under its lock *)
}

let expired ~now_us t =
  match t.deadline_us with None -> false | Some d -> now_us > d
