(* Request scheduler: the concurrent heart of the serving runtime.

   One mutex guards the bounded queue, the completion table and every
   counter; workers and submitters meet only here.  Every timestamp it
   compares - request stamps and deadlines, breaker cooldowns, batching
   holds - is [Clock.now_us], the monotonic clock.  Two conditions:
   [nonempty] wakes workers when work (or shutdown) arrives, [done_cond]
   wakes waiters when an outcome lands.

   A partial batch is held for its model's hold: the service time of
   that model's last successful batch, which the worker pool reports
   through [note_batch_result] ([Batcher] explains why one service time
   is the right wait, and caps it at [max_wait_us]).  A model with no
   measured batch has a hold of 0, so an idle worker dispatches it at
   once.  The OCaml stdlib has no timed condition wait, so holds are
   enforced by a wake pipe + timeout: a worker that sees
   pending-but-not-yet-dispatchable work parks in [Unix.select] on the
   pipe's read end until the earliest hold expires, capped at one poll
   tick ([poll_s]: max_wait/4 clamped to [50us, 200us]) so an arrival
   for another model is seen within a tick, while a worker that sees
   an empty queue blocks on [nonempty] and costs nothing.  Queue EVENTS
   don't wait for either - a submission that fills a batch to
   [max_batch], a drain, and shutdown each write one byte to the pipe
   and the select returns immediately, so a full batch dispatches the
   moment it forms.

   Admission control is synchronous: [submit] either admits (the caller
   will find an outcome under the request id) or returns the structured
   overload immediately - a refused request never occupies queue space
   and never has a dangling outcome entry.  Deadline shedding is
   asynchronous: expired requests are removed at dispatch time and
   completed as [Overloaded Deadline_exceeded].

   Supervision hooks (this file's share of the fault-tolerance story):

   - Completion is idempotent, first-wins.  Wedge recovery can steal a
     batch from a stalled worker and re-execute it; if the original
     worker later finishes too, the second completion is counted as a
     duplicate and dropped, so [outstanding] can never double-decrement
     and an already-delivered outcome is never overwritten.  Both
     completions hold the same physical [Request.t], so the request's
     own [resolved] flag is the whole memory of it: nothing per request
     outlives its awaited outcome.

   - [requeue] re-admits a request from a failed batch, bypassing
     admission control (the request is already admitted and counted in
     [outstanding]); retried requests sit in a dedicated FIFO that
     dispatch drains first, one request per solo batch, so a poisoned
     batchmate can't sink them twice.

   - A per-model circuit breaker trips after [breaker_threshold]
     consecutive batch failures.  While open, that model's submissions
     and queued requests resolve fast as [Overloaded Breaker_open]
     instead of burning workers on a plan that keeps failing; after
     [breaker_cooldown_us] the next request is admitted as a half-open
     probe, and its batch result closes or re-opens the breaker. *)

open Astitch_obs
module Rq = Queue

type batch = {
  model : string;
  requests : Request.t list;
      (** FIFO, length in [1, max_batch]; executed at exactly this
          size - nothing is padded *)
}

type breaker_state = [ `Closed | `Open | `Half_open ]

type breaker = {
  mutable bstate : breaker_state;
  mutable consec : int;  (** consecutive batch failures while closed *)
  mutable open_until : float;  (** [Clock.now_us]; probe after this *)
}

(* One SLO class's account, kept where its requests are admitted,
   refused and completed: under the scheduler lock.  The accounts are the
   scheduler's ledger: [stats] sums them. *)
type account = {
  mutable a_submitted : int;
  mutable a_rejected : int;
  mutable a_completed : int;
  mutable a_shed : int;
  mutable a_failed : int;
  mutable a_deadline_met : int;
  latency_us : Metrics.histogram;
}

type t = {
  mu : Mutex.t;
  nonempty : Condition.t;
  done_cond : Condition.t;
  queue : Request.t Rq.t;
  slos : (string, Slo.t) Hashtbl.t;
      (** per-model SLO class, fixed at creation; a model not listed is
          best-effort.  Read without the lock: nothing writes it. *)
  accounts : account array;  (** by [Slo.rank] *)
  floor_period : int;
      (** every [floor_period]-th dispatch goes to the least-served
          model instead of the highest class - the fair-share floor;
          0 = off *)
  served : (string, int) Hashtbl.t;  (** dispatches per model *)
  mutable dispatches : int;
  retries : Request.t Stdlib.Queue.t;
      (** failed-batch requests awaiting solo re-dispatch *)
  breakers : (string, breaker) Hashtbl.t;
  breaker_threshold : int;  (** consecutive failures to open; 0 = off *)
  breaker_cooldown_us : float;
  policy : Batcher.policy;
  holds : (string, float) Hashtbl.t;
      (** per model: the last successful batch's service time (us), how
          long its partial batches are held; absent = 0 *)
  poll_s : float;
  wake_r : Unix.file_descr;  (** self-pipe read end: select target *)
  wake_w : Unix.file_descr;  (** write one byte = wake a parked worker *)
  mutable disposed : bool;  (** wake pipe closed; select no longer legal *)
  outcomes : (int, Request.outcome) Hashtbl.t;
  mutable outstanding : int;  (** admitted, outcome not yet recorded *)
  mutable draining : bool;
  mutable stopped : bool;
  mutable shed_admission : int;
      (** refused at submit: deadline already past on arrival *)
  mutable displaced : int;
      (** queued lower-class requests evicted for higher-class arrivals *)
  mutable floor_picks : int;  (** dispatches taken by the fair-share floor *)
  mutable degraded : int;
  mutable batches : int;
  mutable retried : int;
  mutable duplicates : int;
  mutable breaker_opens : int;
  mutable breaker_closes : int;
}

let create ?(breaker_threshold = 4) ?(breaker_cooldown_us = 5_000.)
    ?(slos = []) ?(fair_share_floor = 0.125) ~policy ~queue_depth () =
  (* Validate before the wake pipe opens: a refused config leaks no fd. *)
  if fair_share_floor < 0. || fair_share_floor > 0.5 then
    invalid_arg "Scheduler.create: fair_share_floor must be in [0, 0.5]";
  let queue = Rq.create ~depth:queue_depth in
  let slo_table = Hashtbl.create 8 in
  List.iter (fun (m, s) -> Hashtbl.replace slo_table m s) slos;
  let classes =
    List.sort_uniq compare (List.map (fun (_, s) -> Slo.rank s) slos)
  in
  let per_class = Metrics.create () in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    mu = Mutex.create ();
    nonempty = Condition.create ();
    done_cond = Condition.create ();
    queue;
    slos = slo_table;
    accounts =
      Array.of_list
        (List.map
           (fun cls ->
             {
               a_submitted = 0;
               a_rejected = 0;
               a_completed = 0;
               a_shed = 0;
               a_failed = 0;
               a_deadline_met = 0;
               latency_us = Metrics.histogram per_class cls;
             })
           Slo.all_class_names);
    (* floor share f reserves every round(1/f)-th dispatch; f = 0
       disables the floor (pure strict priority), and so does a table
       of fewer than two classes: there is no class to be fair between. *)
    floor_period =
      (if fair_share_floor <= 0. || List.length classes < 2 then 0
       else max 2 (int_of_float (Float.round (1. /. fair_share_floor))));
    served = Hashtbl.create 8;
    dispatches = 0;
    retries = Stdlib.Queue.create ();
    breakers = Hashtbl.create 8;
    breaker_threshold;
    breaker_cooldown_us;
    policy;
    holds = Hashtbl.create 8;
    poll_s = 1e-6 *. Batcher.poll_interval_us policy;
    wake_r;
    wake_w;
    disposed = false;
    outcomes = Hashtbl.create 64;
    outstanding = 0;
    draining = false;
    stopped = false;
    shed_admission = 0;
    displaced = 0;
    floor_picks = 0;
    degraded = 0;
    batches = 0;
    retried = 0;
    duplicates = 0;
    breaker_opens = 0;
    breaker_closes = 0;
  }

let locked t f = Mutex.protect t.mu f

(* --- Wake pipe ---------------------------------------------------------- *)

(* Nudge every worker parked in [wait_poll]: one byte down the
   self-pipe.  Non-blocking and best-effort - a full pipe means wakes
   are already queued, which is all a level-triggered select needs. *)
let wake t =
  if not t.disposed then
    try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF), _, _) -> ()

(* Park until [until_us] ([Clock.now_us]) but at most one poll tick,
   or until someone writes the wake pipe.  Called WITHOUT the scheduler
   lock.  Readable bytes are drained so a single event doesn't turn
   every later wait into a spin; with several parked workers one drains
   and the rest time out, which is correct (spurious wakeups are fine,
   missed ones are not - and a wake written after the drain leaves a
   byte for the next select). *)
let wait_poll t ~until_us =
  let timeout = Float.min t.poll_s (1e-6 *. (until_us -. Clock.now_us ())) in
  (* a negative select timeout would block forever *)
  if t.disposed || timeout <= 0. then ()
  else begin
    (try ignore (Unix.select [ t.wake_r ] [] [] timeout)
     with Unix.Unix_error ((EINTR | EBADF), _, _) -> ());
    let buf = Bytes.create 64 in
    let rec drain () =
      match Unix.read t.wake_r buf 0 64 with
      | 64 -> drain ()
      | _ -> ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EBADF), _, _) -> ()
    in
    drain ()
  end

(* Close the wake pipe.  Call only after the worker pool has joined -
   no one may be parked in [wait_poll] when the fds die. *)
let dispose t =
  locked t (fun () ->
      if not t.disposed then begin
        t.disposed <- true;
        (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
        try Unix.close t.wake_w with Unix.Unix_error _ -> ()
      end)

let outcome_label = function
  | Request.Done { degraded = false; _ } -> "done"
  | Request.Done { degraded = true; _ } -> "done-degraded"
  | Request.Overloaded o -> Request.overload_to_string o
  | Request.Failed _ -> "failed"

(* The SLO class a model is served under; a model not in the table is
   best-effort. *)
let slo t model =
  match Hashtbl.find_opt t.slos model with
  | Some s -> s
  | None -> Slo.Best_effort

let account t model = t.accounts.(Slo.rank (slo t model))

(* Record an outcome under the scheduler lock and wake waiters.
   First-wins: wedge recovery may steal and re-execute a batch whose
   original worker eventually finishes too, so the same id can complete
   twice.  The first outcome is the one delivered and sets the request's
   [resolved] flag; later attempts see it, are counted as duplicates and
   dropped without touching [outstanding].
   The winning completion terminates the request's flow arrow ("f"), so
   every admitted flow ends exactly once whatever path resolved it.  It
   also lands in the request's class account; a deadline is met by the
   request's own absolute deadline, the one dispatch enforced. *)
let complete_locked t (req : Request.t) outcome =
  if req.resolved then t.duplicates <- t.duplicates + 1
  else begin
    req.resolved <- true;
    let a = account t req.model in
    (match outcome with
    | Request.Done { degraded; latency_us; _ } ->
        if degraded then t.degraded <- t.degraded + 1;
        a.a_completed <- a.a_completed + 1;
        Metrics.observe a.latency_us latency_us;
        let met =
          match req.deadline_us with
          | None -> true
          | Some d -> req.submitted_us +. latency_us <= d
        in
        if met then a.a_deadline_met <- a.a_deadline_met + 1
    | Request.Overloaded _ -> a.a_shed <- a.a_shed + 1
    | Request.Failed _ -> a.a_failed <- a.a_failed + 1);
    if Trace.enabled () then
      Trace.flow_end ~phase:"serve" req.trace "request"
        ~attrs:
          [
            ("id", Trace.Int req.id);
            ("outcome", Trace.Str (outcome_label outcome));
          ];
    Hashtbl.replace t.outcomes req.id outcome;
    t.outstanding <- t.outstanding - 1;
    Condition.broadcast t.done_cond
  end

let complete t req outcome = locked t (fun () -> complete_locked t req outcome)

(* --- Circuit breaker --------------------------------------------------- *)

let breaker_for t model =
  match Hashtbl.find_opt t.breakers model with
  | Some b -> b
  | None ->
      let b = { bstate = `Closed; consec = 0; open_until = 0. } in
      Hashtbl.replace t.breakers model b;
      b

let breaker_instant model transition =
  if Trace.enabled () then
    Trace.instant ~phase:"serve"
      ("breaker-" ^ transition)
      ~attrs:[ ("model", Trace.Str model) ]

(* Under the lock; returns [true] so that the caller dumps the incident
   once the lock is released - a dump writes a whole file, and every
   submit and dispatch waits on this lock. *)
let open_breaker_locked t model (b : breaker) =
  b.bstate <- `Open;
  b.open_until <- Clock.now_us () +. t.breaker_cooldown_us;
  t.breaker_opens <- t.breaker_opens + 1;
  breaker_instant model "open";
  true

(* Every batch result feeds the model's breaker: a success closes it
   (from half-open or even open - the worker proved the plan serves),
   a failure opened-from-closed after [breaker_threshold] consecutive
   misses, and a failed half-open probe re-opens for another cooldown.
   A success's service time becomes the model's hold as it is - a
   smoothing factor would be one more knob; a failure's says nothing
   about how long a batch takes to serve and is dropped. *)
let note_batch_result t ~model ~ok ~service_us =
  let opened =
    locked t (fun () ->
        if ok then Hashtbl.replace t.holds model service_us;
        if t.breaker_threshold <= 0 then false
        else
          let b = breaker_for t model in
          if ok then begin
            if b.bstate <> `Closed then begin
              b.bstate <- `Closed;
              t.breaker_closes <- t.breaker_closes + 1;
              breaker_instant model "close"
            end;
            b.consec <- 0;
            false
          end
          else begin
            b.consec <- b.consec + 1;
            match b.bstate with
            | `Half_open -> open_breaker_locked t model b
            | `Closed when b.consec >= t.breaker_threshold ->
                open_breaker_locked t model b
            | `Open | `Closed -> false
          end)
  in
  if opened && Trace.enabled () then
    ignore
      (Flight.incident ~reason:"breaker-open"
         ~attrs:[ ("model", Trace.Str model) ]
         ())

let breaker_state t model =
  locked t (fun () ->
      match Hashtbl.find_opt t.breakers model with
      | None -> `Closed
      | Some b -> b.bstate)

(* Under the lock: an open breaker past its cooldown moves to half-open
   (the next admitted/queued request becomes the probe).  Returns the
   state after any transition. *)
let breaker_tick_locked (b : breaker) ~now =
  if b.bstate = `Open && now >= b.open_until then b.bstate <- `Half_open;
  b.bstate

(* Displacement shedding: the queue is full and a request of a strictly
   higher class (lower rank) wants in.  Evict the NEWEST queued request
   of the LOWEST class present that ranks strictly below the arrival -
   newest because, FIFO, it would be served last of its class anyway,
   so the displacement costs the minimum already-accrued waiting.  The
   evicted request was admitted, so it completes through the normal
   path as [Overloaded Displaced]; the submitter sees a structured shed,
   never silence.  Returns whether a slot was freed. *)
let displace_locked t ~for_rank =
  let victim =
    List.fold_left
      (fun acc model ->
        let r = Slo.rank (slo t model) in
        if r <= for_rank then acc
        else
          match Rq.newest t.queue ~model with
          | None -> acc
          | Some (cand : Request.t) -> (
              match acc with
              | Some (best_r, best_sub, _)
                when best_r > r
                     || (best_r = r && best_sub >= cand.submitted_us) ->
                  acc
              | _ -> Some (r, cand.submitted_us, model)))
      None (Rq.models t.queue)
  in
  match victim with
  | None -> false
  | Some (_, _, model) -> (
      match Rq.pop_newest t.queue ~model with
      | None -> false
      | Some evicted ->
          t.displaced <- t.displaced + 1;
          if Trace.enabled () then
            Trace.instant ~phase:"serve" "displaced"
              ~attrs:
                [
                  ("model", Trace.Str evicted.Request.model);
                  ("id", Trace.Int evicted.Request.id);
                ];
          complete_locked t evicted (Request.Overloaded Request.Displaced);
          true)

let submit_locked t (req : Request.t) =
  let a = account t req.model in
  let refuse o =
    a.a_rejected <- a.a_rejected + 1;
    Error o
  in
  let broken =
    t.breaker_threshold > 0
    &&
    match Hashtbl.find_opt t.breakers req.model with
    | None -> false
    | Some b -> breaker_tick_locked b ~now:(Clock.now_us ()) = `Open
  in
  if t.stopped || t.draining then refuse Request.Shutting_down
  else if broken then refuse Request.Breaker_open
  else if Request.expired ~now_us:(Clock.now_us ()) req then begin
    (* Dead on arrival: refuse at admission instead of letting the
       corpse occupy queue space until dispatch-time shedding.  A
       refusal never increments [submitted]/[outstanding], so it is
       accounted as a rejection (keeping the disposition ledger's
       lost = 0 invariant) and separately as [shed_admission]. *)
    t.shed_admission <- t.shed_admission + 1;
    if Trace.enabled () then
      Trace.instant ~phase:"serve" "shed-admission"
        ~attrs:[ ("model", Trace.Str req.model); ("id", Trace.Int req.id) ];
    refuse Request.Deadline_exceeded
  end
  else if
    not
      (Rq.push t.queue ~model:req.model req
      || displace_locked t ~for_rank:(Slo.rank (slo t req.model))
         && Rq.push t.queue ~model:req.model req)
  then refuse Request.Queue_full
  else begin
    a.a_submitted <- a.a_submitted + 1;
    t.outstanding <- t.outstanding + 1;
    Condition.signal t.nonempty;
    (* A batch just reached [max_batch]: workers parked on a hold
       should dispatch NOW, not when it expires. *)
    if Rq.pending t.queue ~model:req.model >= Batcher.max_batch t.policy
    then wake t;
    Ok ()
  end

let submit t req = locked t (fun () -> submit_locked t req)

(* One lock acquisition for the whole burst: no worker sees part of it. *)
let submit_all t reqs = locked t (fun () -> List.map (submit_locked t) reqs)

(* Shed every queued request past its deadline; their outcome is the
   structured overload, never a silent drop. *)
let shed_expired_locked t =
  let now = Clock.now_us () in
  let dead = Rq.remove_if t.queue (Request.expired ~now_us:now) in
  List.iter
    (fun (r : Request.t) ->
      complete_locked t r (Request.Overloaded Request.Deadline_exceeded))
    dead

(* The one dispatch rule: strict class priority with two refinements.

   Order among dispatchable candidates is (class rank, key, head id):
   inside the Latency class the key is the head request's absolute
   deadline (earliest-deadline-first - the workload is
   feasibility-constrained, and EDF is optimal for it on a single
   resource); inside Throughput and Best_effort the key is head
   submission time (FIFO - nothing to be early FOR, so oldest-first
   minimizes mean wait).  The head id breaks exact ties in admission
   order.  With no SLO classes every model is best-effort and the pick
   is the oldest head across models.

   The fair-share floor keeps strict priority from starving the bottom
   class under sustained overload: every [floor_period]-th dispatch is
   handed to the LEAST-SERVED dispatchable model regardless of class,
   ordered by (times served, rank, key, head id).  Under 2x overload a
   latency flood owns (floor_period - 1) of every [floor_period] slots
   and best-effort still makes progress - goodput bounded below by the
   floor share instead of rounding to zero.  The floor redirects
   dispatch order only; it never bypasses the batcher's hold decision,
   so a floor pick is still a legal batch.

   Every waiting head is visited anyway, so the pick also reports when
   the earliest hold expires: with nothing to take, [`Hold_until us] is
   when the next partial batch becomes dispatchable (infinity when
   nothing waits), and a worker parks until then. *)
let pick_locked t =
  let now = Clock.now_us () in
  let draining = t.draining || t.stopped in
  let floor_turn =
    t.floor_period > 0 && t.dispatches mod t.floor_period = t.floor_period - 1
  in
  let served model =
    Option.value ~default:0 (Hashtbl.find_opt t.served model)
  in
  let best, until =
    List.fold_left
      (fun ((best, until) as acc) model ->
        match Rq.oldest t.queue ~model with
        | None -> acc
        | Some (head : Request.t) -> (
            let pending = Rq.pending t.queue ~model in
            let hold_us =
              Option.value ~default:0. (Hashtbl.find_opt t.holds model)
            in
            let wait = now -. head.submitted_us in
            match
              Batcher.decide t.policy ~pending ~oldest_wait_us:wait ~hold_us
                ~draining
            with
            | Batcher.Wait ->
                ( best,
                  Float.min until
                    (head.submitted_us +. Batcher.held_us t.policy ~hold_us) )
            | Batcher.Dispatch n -> (
                let slo = slo t model in
                let key =
                  match (slo, head.deadline_us) with
                  | Slo.Latency _, Some d -> d
                  | _ -> head.submitted_us
                in
                let order =
                  ( (if floor_turn then served model else 0),
                    Slo.rank slo,
                    key,
                    head.id )
                in
                match best with
                | Some (o, _, _) when compare o order <= 0 -> acc
                | _ -> (Some (order, model, n), until))))
      (None, Float.infinity) (Rq.models t.queue)
  in
  match best with
  | None -> `Hold_until until
  | Some (_, model, n) ->
      if floor_turn then t.floor_picks <- t.floor_picks + 1;
      t.dispatches <- t.dispatches + 1;
      Hashtbl.replace t.served model (served model + 1);
      `Take (model, n)

(* Shed every queued request of a model whose breaker is open: the
   fast-rejection contract extends to requests admitted just before the
   breaker tripped, and it keeps drain from pushing doomed batches
   through a failing plan.  Expired cooldowns flip to half-open here
   too, so a model with no new submissions still gets its probe. *)
let shed_broken_locked t =
  if t.breaker_threshold > 0 then begin
    let now = Clock.now_us () in
    List.iter
      (fun model ->
        match Hashtbl.find_opt t.breakers model with
        | None -> ()
        | Some b ->
            if breaker_tick_locked b ~now = `Open then begin
              let dead =
                Rq.remove_if t.queue (fun (r : Request.t) -> r.model = model)
              in
              List.iter
                (fun (r : Request.t) ->
                  complete_locked t r
                    (Request.Overloaded Request.Breaker_open))
                dead
            end)
      (Rq.models t.queue)
  end

(* Under the lock: pop the next live retry.  Retried requests dispatch
   solo (batch 1): the batchmates that sank them the first time are
   out of the picture, and a poisoned request can only sink itself. *)
let rec take_retry_locked t =
  match Stdlib.Queue.take_opt t.retries with
  | None -> None
  | Some (r : Request.t) ->
      if Request.expired ~now_us:(Clock.now_us ()) r then begin
        complete_locked t r (Request.Overloaded Request.Deadline_exceeded);
        take_retry_locked t
      end
      else begin
        t.batches <- t.batches + 1;
        r.dispatched_us <- Clock.now_us ();
        Some { model = r.model; requests = [ r ] }
      end

(* Under the lock: shed, pick, and take the next dispatchable batch,
   or learn when the earliest hold expires.  Retries dispatch ahead of
   queued work - they have already waited one full batch execution. *)
let dispatch_locked t =
  shed_expired_locked t;
  shed_broken_locked t;
  match take_retry_locked t with
  | Some b -> `Batch b
  | None -> (
      match pick_locked t with
      | `Hold_until _ as hold -> hold
      | `Take (model, n) ->
          let requests = Rq.take t.queue ~model ~max:n in
          t.batches <- t.batches + 1;
          let now = Clock.now_us () in
          List.iter (fun (r : Request.t) -> r.dispatched_us <- now) requests;
          `Batch { model; requests })

(* Block until a batch is ready, the queue has pending-but-held work
   (then park until the earliest hold expires), or shutdown empties
   the world. *)
let rec next_batch t =
  let action =
    locked t (fun () ->
        match dispatch_locked t with
        | `Batch b -> `Batch b
        | `Hold_until until_us ->
            if Rq.is_empty t.queue && Stdlib.Queue.is_empty t.retries then
              if t.stopped then `Exit
              else begin
                (* nothing pending: sleep free of charge *)
                Condition.wait t.nonempty t.mu;
                `Retry
              end
            else `Poll until_us)
  in
  match action with
  | `Batch b -> Some b
  | `Exit -> None
  | `Retry -> next_batch t
  | `Poll until_us ->
      (* Re-check the stop flags before parking: a shutdown raised
         between the dispatch attempt and this wait must cost nothing
         (and even a racing one costs at most the select timeout, since
         shutdown also writes the wake pipe). *)
      if not (locked t (fun () -> t.stopped || t.draining)) then
        wait_poll t ~until_us;
      next_batch t

let outstanding t = locked t (fun () -> t.outstanding)

(* Re-admit a request from a failed batch for a solo re-dispatch.  No
   admission control: the request is already admitted, already counted
   in [outstanding], and refusing it here would lose it - [requeue]
   therefore never refuses, even while draining or stopped (the worker
   exit condition and [drain] both wait for the retry FIFO to empty). *)
let requeue t (req : Request.t) =
  locked t (fun () ->
      t.retried <- t.retried + 1;
      if Trace.enabled () then begin
        Trace.instant ~phase:"serve" "retry"
          ~attrs:
            [
              ("model", Trace.Str req.model);
              ("id", Trace.Int req.id);
              ("attempts", Trace.Int req.attempts);
            ];
        (* The arrow takes a retry hop: a "t" step on the requeuing
           domain keeps the chain connected through the detour. *)
        Trace.flow_step ~phase:"serve" req.trace "request"
          ~attrs:[ ("hop", Trace.Str "retry") ]
      end;
      Stdlib.Queue.push req t.retries;
      Condition.signal t.nonempty);
  wake t

let await t id =
  locked t (fun () ->
      let rec go () =
        match Hashtbl.find_opt t.outcomes id with
        | Some o ->
            Hashtbl.remove t.outcomes id;
            o
        | None ->
            Condition.wait t.done_cond t.mu;
            go ()
      in
      go ())

let poll t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.outcomes id with
      | Some o ->
          Hashtbl.remove t.outcomes id;
          Some o
      | None -> None)

(* Flush everything in flight, then accept again.  While draining,
   submissions are refused ([Shutting_down]) and the batcher dispatches
   immediately instead of holding a partial batch. *)
let drain t =
  locked t (fun () ->
      t.draining <- true;
      Condition.broadcast t.nonempty);
  wake t;
  locked t (fun () ->
      while t.outstanding > 0 do
        Condition.wait t.done_cond t.mu
      done;
      t.draining <- false)

let shutdown t =
  locked t (fun () ->
      t.stopped <- true;
      Condition.broadcast t.nonempty;
      Condition.broadcast t.done_cond);
  wake t

type class_stats = {
  cls : string;
  submitted : int;
  rejected : int;
  completed : int;
  shed : int;
  failed : int;
  deadline_met : int;
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
}

(* One row per class that has seen a request, in rank order. *)
let class_stats t =
  locked t (fun () ->
      List.mapi (fun rank cls -> (cls, t.accounts.(rank))) Slo.all_class_names
      |> List.filter_map (fun (cls, a) ->
             if a.a_submitted + a.a_rejected = 0 then None
             else
               let q = Metrics.quantile a.latency_us in
               Some
                 ({
                    cls;
                    submitted = a.a_submitted;
                    rejected = a.a_rejected;
                    completed = a.a_completed;
                    shed = a.a_shed;
                    failed = a.a_failed;
                    deadline_met = a.a_deadline_met;
                    mean_us = Metrics.hist_mean a.latency_us;
                    p50_us = q 0.50;
                    p95_us = q 0.95;
                    p99_us = q 0.99;
                  }
                   : class_stats)))

type stats = {
  submitted : int;
  rejected : int;
  shed : int;
  shed_admission : int;
  displaced : int;
  floor_picks : int;
  completed : int;
  failed : int;
  degraded : int;
  batches : int;
  outstanding : int;
  queue_depth : int;
  max_depth_seen : int;
  retried : int;
  duplicates : int;
  breaker_opens : int;
  breaker_closes : int;
}

let stats t =
  locked t (fun () ->
      let sum f = Array.fold_left (fun acc a -> acc + f a) 0 t.accounts in
      {
        submitted = sum (fun a -> a.a_submitted);
        rejected = sum (fun a -> a.a_rejected);
        shed = sum (fun a -> a.a_shed);
        shed_admission = t.shed_admission;
        displaced = t.displaced;
        floor_picks = t.floor_picks;
        completed = sum (fun a -> a.a_completed);
        failed = sum (fun a -> a.a_failed);
        degraded = t.degraded;
        batches = t.batches;
        outstanding = t.outstanding;
        queue_depth = Rq.length t.queue;
        max_depth_seen = Rq.max_depth_seen t.queue;
        retried = t.retried;
        duplicates = t.duplicates;
        breaker_opens = t.breaker_opens;
        breaker_closes = t.breaker_closes;
      })
