(** A serving request and its lifecycle. *)

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
          entry (never between equal classes) *)

val overload_to_string : overload -> string

type outcome =
  | Done of {
      outputs : Tensor.t list;
      latency_us : float;  (** submission to completion *)
      batch : int;  (** exact batch size this request was served at *)
      degraded : bool;  (** served on the per-request fallback path *)
    }
  | Overloaded of overload
      (** the structured admission-control result: the request was never
          executed, by design, instead of queuing without bound *)
  | Failed of string  (** the degradation ladder ran dry for this request *)

type t = {
  id : int;
  model : string;
  params : (string * Tensor.t) list;  (** per-request bindings, batch 1 *)
  submitted_us : float;
      (** monotonic microseconds ({!Astitch_obs.Clock.now_us}): compare
          only with readings of that clock *)
  deadline_us : float option;  (** absolute; [None] = wait forever *)
  mutable attempts : int;
      (** failed batch executions so far; supervision re-dispatches
          until the retry budget is spent, then falls back per-request *)
  trace : Astitch_obs.Trace.context;
      (** minted on the submitting thread; links this request's spans
          across domains via flow arrows (null when tracing is off) *)
  mutable dispatched_us : float;
      (** stamped at scheduler dispatch (last attempt wins); 0 until
          first dispatch.  Queue wait = [dispatched_us - submitted_us]
          in the latency decomposition. *)
  mutable resolved : bool;
      (** [false] at submission.  The scheduler's first-wins completion
          sets it, under its lock, when the request's one outcome lands;
          a later completion of the same request (a wedge-steal
          re-execution holds the same physical record) sees it and is
          counted as a duplicate. *)
}

val expired : now_us:float -> t -> bool
