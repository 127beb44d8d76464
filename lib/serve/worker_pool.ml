(* Domain worker pool: turns scheduled batches into outcomes.

   Each worker is an OCaml 5 domain looping on [Scheduler.next_batch].
   Each model owns ONE plan, compiled at [max_batch] (it carries the
   model's [Batch_axis.plan]), and a free list of contexts built from
   it: every batch - whatever its size, 3 or 7 or 8 - executes on such
   a context via [Executor.run_context ~batch:n] with zero padded rows
   and zero recompilation.  Contexts are NOT concurrent-safe (they
   reuse buffers across runs), hence the free lists: two workers
   serving the same model simultaneously each get their own context,
   and the pool grows to the observed concurrency - steady state for a
   single-worker server is exactly one context per model.

   Every stamp - heartbeats, restart gates, the five latency phases -
   reads [Clock.now_us], the clock the scheduler stamps requests with.

   A model's plan is handed over before traffic ([set_plan], the zoo's
   store-loaded plans) or compiled by the first checkout that finds
   none.  Once set it is never replaced: the compiler is deterministic,
   so a second compile could only produce the same bytes.

   Failure never takes the server down, and it never delivers corrupt
   numerics.  The supervision layers, outermost first:

   - A monitor domain watches per-worker heartbeats.  A dead worker
     (its loop raised) is restarted with exponential backoff; a wedged
     worker (alive but stuck mid-batch past [wedge_timeout_us]) has its
     batch stolen and recovered - the scheduler's first-wins completion
     makes the potential double execution harmless.

   - A batch that raises OR during which any fault site fired is
     treated as poisoned: its outputs are discarded, its context is
     quarantined (never returned to the pool; the model keeps its
     plan), and its requests are re-dispatched individually under a
     per-request retry budget.

   - A request whose budget is spent falls back to the reference
     interpreter on its model's batch-1 graph - the terminal rung,
     which no fault site reaches and which compiles nothing, so every
     request resolves to [Done] or [Failed].  Nothing is ever lost. *)

open Astitch_ir
open Astitch_tensor
open Astitch_runtime
open Astitch_obs
module Fault_site = Astitch_plan.Fault_site
module Kernel_plan = Astitch_plan.Kernel_plan

type model_state = {
  spec : Batching.spec;
  shared : (string * Tensor.t) list;  (** weight bindings, fixed at load *)
  mu : Mutex.t;  (** guards [plan] and [free] *)
  mutable plan : Kernel_plan.t option;  (** the max-batch plan, set once *)
  mutable free : Executor.context list;  (** free max-batch contexts *)
}

type worker_state = W_running | W_dead | W_stopped

type slot = {
  wid : int;
  hb : float Atomic.t;  (** last heartbeat, [Clock.now_us] *)
  (* The remaining fields are guarded by the pool's [sup_mu]. *)
  mutable dom : unit Domain.t option;
  mutable inflight : Scheduler.batch option;
  mutable wstate : worker_state;
  mutable deaths : int;  (** consecutive deaths; resets on a served batch *)
  mutable restart_at : float;  (** us; backoff gate for the next respawn *)
  mutable wedge_flagged : bool;  (** current inflight batch already stolen *)
}

type supervision = {
  restarts : int;
  quarantined : int;
  wedged : int;
  workers_alive : int;
}

type t = {
  scheduler : Scheduler.t;
  models : (string, model_state) Hashtbl.t;
  arch : Astitch_simt.Arch.t;
  verify_every : int;  (** re-check batch i vs solo when i mod n = 0 *)
  retry_budget : int;  (** failed batch executions before fallback *)
  wedge_timeout_us : float;
  batch_counter : int Atomic.t;
  sup_mu : Mutex.t;  (** guards every slot's supervised fields *)
  slots : slot array;
  mutable monitor : unit Domain.t option;
  stop_monitor : bool Atomic.t;
  n_restarts : int Atomic.t;
  n_quarantined : int Atomic.t;
  n_wedged : int Atomic.t;
  n_compiles : int Atomic.t;  (** plans compiled at checkout *)
  m_batch_size : Metrics.histogram;
  m_request_us : Metrics.histogram;
  (* The latency decomposition: per completed request, these five sum
     to [serve.request_us] up to clock granularity (same stamps, the
     differences telescope).  Queue wait runs submission -> dispatch;
     batch-wait covers the dispatch -> pack handoff including context
     checkout; pack/exec/unpack bracket the on-worker stages, with the
     completion bookkeeping folded into unpack. *)
  m_queue_us : Metrics.histogram;
  m_batch_wait_us : Metrics.histogram;
  m_pack_us : Metrics.histogram;
  m_exec_us : Metrics.histogram;
  m_unpack_us : Metrics.histogram;
  m_verified : Metrics.counter;
}

let sup_locked pool f = Mutex.protect pool.sup_mu f
let model_locked m f = Mutex.protect m.mu f

(* Base delay before respawning a dead worker; doubles per consecutive
   death, capped at 128x. *)
let restart_backoff_us = 1_000.

(* --- Context pool -------------------------------------------------------- *)

let max_batch m = m.spec.Batching.batch.Batch_axis.max_batch

let with_axis m plan =
  { plan with Kernel_plan.batch = Some m.spec.Batching.batch }

let set_plan m plan =
  model_locked m (fun () ->
      if Option.is_some m.plan then
        invalid_arg "Worker_pool.set_plan: the model already has its plan";
      m.plan <- Some (with_axis m plan))

(* The model's plan, compiled when it has none.  The compile runs
   OUTSIDE the model lock: two workers racing on a cold model may both
   compile, and the first plan stored is the one both use. *)
let plan_of pool m =
  match model_locked m (fun () -> m.plan) with
  | Some plan -> plan
  | None -> (
      let g = m.spec.Batching.build (max_batch m) in
      let compiled =
        with_axis m
          (Session.compile Astitch_core.Astitch.full_backend pool.arch g)
            .Session.plan
      in
      Atomic.incr pool.n_compiles;
      model_locked m (fun () ->
          match m.plan with
          | Some kept -> kept
          | None ->
              m.plan <- Some compiled;
              compiled))

let checkin m ctx = model_locked m (fun () -> m.free <- ctx :: m.free)

(* Check out a max-batch context, building one from the model's plan
   when the free list is empty. *)
let checkout pool m =
  match
    model_locked m (fun () ->
        match m.free with
        | ctx :: rest ->
            m.free <- rest;
            Some ctx
        | [] -> None)
  with
  | Some ctx -> ctx
  | None -> Executor.create_context (plan_of pool m)

(* A context a fault touched never rejoins the pool; the next checkout
   builds a fresh one from the model's plan.  Every runtime fault site
   writes into storage a context or a batch owns - kernel outputs, slab
   staging, packed and sliced tensors - never into the plan, so the
   plan is kept. *)
let quarantine pool m ~model ~reason =
  Atomic.incr pool.n_quarantined;
  if Trace.enabled () then begin
    let attrs =
      [
        ("model", Trace.Str model);
        ("batch", Trace.Int (max_batch m));
        ("reason", Trace.Str reason);
      ]
    in
    Trace.instant ~attrs ~phase:"serve" "quarantine";
    ignore (Flight.incident ~attrs ~reason:"quarantine" ())
  end

(* --- Serving one batch --------------------------------------------------- *)

(* What every served output must reproduce bit for bit: the
   interpreter on the model's batch-1 graph, under the server's weights
   and the request's own bindings. *)
let reference m (req : Request.t) =
  Interp.run m.spec.Batching.base ~params:(m.shared @ req.params)

(* Bit-identity spot check: the batch's first request against its
   {!reference}.  A mismatch means a row-dependent builder slipped past
   analysis - that is a server bug, not a request failure, so it raises
   (and the batch goes down the recovery path). *)
let verify_first pool m (req : Request.t) sliced =
  if not (List.for_all2 Tensor.equal_bits (reference m req) sliced) then
    failwith "batched outputs diverge from the interpreter";
  Metrics.inc pool.m_verified

let complete_done pool ~t_done ~batch_size ~degraded (req : Request.t) outputs
    =
  let latency = t_done -. req.submitted_us in
  Metrics.observe pool.m_request_us latency;
  Scheduler.complete pool.scheduler req
    (Request.Done
       { outputs; latency_us = latency; batch = batch_size; degraded })

(* Feed the five-phase latency decomposition for one completed request.
   The stamps all come from the same clock, so the five observations
   telescope to [t_done - submitted_us] - exactly the [request_us]
   latency recorded by [complete_done] with the same [t_done].
   [t_pack] = pack begin (batch-wait runs dispatch -> here, covering
   the worker handoff and context checkout), [t_exec] = execution
   begin, [t_unpack] = execution end; completion bookkeeping between
   unpack and [t_done] folds into the unpack bucket. *)
let observe_phases pool (req : Request.t) ~t_pack ~t_exec ~t_unpack ~t_done =
  Metrics.observe pool.m_queue_us (req.dispatched_us -. req.submitted_us);
  Metrics.observe pool.m_batch_wait_us (t_pack -. req.dispatched_us);
  Metrics.observe pool.m_pack_us (t_exec -. t_pack);
  Metrics.observe pool.m_exec_us (t_unpack -. t_exec);
  Metrics.observe pool.m_unpack_us (t_done -. t_unpack)

(* The terminal rung: one request alone, through its {!reference}.  No
   fault site reaches the interpreter and nothing is compiled, so
   however chaotic the run, a request that reaches here resolves to
   [Done] (degraded) or [Failed].  Never raises.

   Decomposition on this path: there is no pack, so the pack bucket is
   empty, the exec bucket holds the interpretation and the batch-wait
   bucket the handoff from the last dispatch - the per-request sum still
   telescopes to the end-to-end latency. *)
let serve_fallback pool m (req : Request.t) =
  let attrs =
    if Trace.enabled () then
      [ ("model", Trace.Str req.model); ("id", Trace.Int req.id) ]
    else []
  in
  Trace.with_span ~attrs ~phase:"serve" "fallback" (fun () ->
      if Trace.enabled () then
        Trace.flow_step ~phase:"serve" req.trace "request"
          ~attrs:[ ("hop", Trace.Str "fallback") ];
      let t_exec = Clock.now_us () in
      match reference m req with
      | outputs ->
          let t_done = Clock.now_us () in
          observe_phases pool req ~t_pack:t_exec ~t_exec ~t_unpack:t_done
            ~t_done;
          complete_done pool ~t_done ~batch_size:1 ~degraded:true req outputs
      | exception e ->
          Scheduler.complete pool.scheduler req
            (Request.Failed (Printexc.to_string e)))

(* Recovery for the requests of a batch that did not complete cleanly:
   each request re-enters the scheduler for a solo re-dispatch while it
   has retry budget left, and drops to the fallback rung when the
   budget is spent.  Completion is idempotent, so recovering requests a
   wedged worker might still finish is safe.  The whole detour is a
   span carrying the reason (batch-failure, worker-death, wedge-steal),
   so recovery time is attributable in the trace. *)
let recover_requests pool ~reason (batch : Scheduler.batch) =
  let m = Hashtbl.find pool.models batch.model in
  let attrs =
    if Trace.enabled () then
      [
        ("model", Trace.Str batch.model);
        ("reason", Trace.Str reason);
        ("requests", Trace.Int (List.length batch.requests));
      ]
    else []
  in
  Trace.with_span ~attrs ~phase:"serve" "recover" (fun () ->
      List.iter
        (fun (r : Request.t) ->
          if r.attempts < pool.retry_budget then begin
            r.attempts <- r.attempts + 1;
            Scheduler.requeue pool.scheduler r
          end
          else serve_fallback pool m r)
        batch.requests)

let serve_batch pool (batch : Scheduler.batch) =
  let m = Hashtbl.find pool.models batch.model in
  let n = List.length batch.requests in
  (* one stamp for the whole batch, set when it was dispatched *)
  let dispatched = (List.hd batch.requests).Request.dispatched_us in
  let seq = Atomic.fetch_and_add pool.batch_counter 1 in
  Metrics.observe pool.m_batch_size (float_of_int n);
  let attrs =
    [
      ("model", Trace.Str batch.model);
      ("requests", Trace.Int n);
      ("seq", Trace.Int seq);
    ]
  in
  Trace.with_span ~attrs ~phase:"serve"
    (Printf.sprintf "batch:%s" batch.model) (fun () ->
      (* Pull each request's flow arrow into this batch span: the "t"
         step is what links the client-thread submit span to this
         worker domain in Perfetto. *)
      if Trace.enabled () then
        List.iter
          (fun (r : Request.t) ->
            Trace.flow_step ~phase:"serve" r.trace "request"
              ~attrs:[ ("id", Trace.Int r.id) ])
          batch.requests;
      (* Whether a context is held is tracked outside the happy path so
         the failure handler knows whether there is one to quarantine.
         Lifecycle stages run under child spans; an exception anywhere
         leaves the open child to the batch span's auto-close. *)
      let held = ref false in
      match
        let cid = Trace.span_begin ~phase:"serve" "checkout" in
        let ctx = checkout pool m in
        Trace.span_end cid;
        held := true;
        (* Snapshot AFTER checkout: a compile-site fault firing during
           a cold-model compile surfaces as a compile error, not as
           corrupt execution, and must not poison this batch. *)
        let fired0 = Fault_site.fired () in
        let t_pack = Clock.now_us () in
        let pid = Trace.span_begin ~phase:"serve" "pack" in
        (* continuous batching packs exactly [n] rows *)
        let packed =
          Batching.pack m.spec
            (List.map (fun (r : Request.t) -> r.params) batch.requests)
        in
        Trace.span_end pid;
        let t_exec = Clock.now_us () in
        (* [run_context] opens the executor's own "run-context" span; it
           nests under this batch span via the domain stack, so the
           per-kernel exec spans are already parented correctly. *)
        let outputs =
          Executor.run_context ~batch:n ctx ~params:(m.shared @ packed)
        in
        let t_unpack = Clock.now_us () in
        let uid = Trace.span_begin ~phase:"serve" "unpack" in
        let per_request = Batching.unpack m.spec ~count:n outputs in
        Trace.span_end uid;
        let t_result = Clock.now_us () in
        (if pool.verify_every > 0 && seq mod pool.verify_every = 0 then
           match (batch.requests, per_request) with
           | req :: _, sliced :: _ ->
               Trace.with_span ~phase:"serve" "verify" (fun () ->
                   verify_first pool m req sliced)
           | _ -> ());
        (* Corrupt-mode faults don't raise - they silently perturb
           numerics.  Any site that fired during this batch poisons it:
           outputs are discarded and the requests retried, so corrupt
           results are never delivered and survivors stay bit-identical
           to solo execution. *)
        if Fault_site.fired () > fired0 then
          failwith "fault fired during batch execution";
        checkin m ctx;
        held := false;
        (per_request, t_pack, t_exec, t_unpack, t_result)
      with
      | per_request, t_pack, t_exec, t_unpack, t_result ->
          (* The breaker hears the success before any caller does: a
             caller woken by its outcome must never still read the
             half-open state this batch just closed.  The same report
             carries the batch's service time up to its result, the
             model's next hold.  The spot check is left out: it runs on
             one batch in [verify_every], and its interpreter time
             would hold the model's next partial batch that long. *)
          Scheduler.note_batch_result pool.scheduler ~model:batch.model
            ~ok:true ~service_us:(t_result -. dispatched);
          let t_done = Clock.now_us () in
          List.iter2
            (fun req outs ->
              observe_phases pool req ~t_pack ~t_exec ~t_unpack ~t_done;
              complete_done pool ~t_done ~batch_size:n ~degraded:false req
                outs)
            batch.requests per_request
      | exception _ ->
          if !held then
            quarantine pool m ~model:batch.model ~reason:"batch-failure";
          if Trace.enabled () then
            ignore
              (Flight.incident ~reason:"batch-failure"
                 ~attrs:
                   [
                     ("model", Trace.Str batch.model);
                     ("requests", Trace.Int n);
                   ]
                 ());
          Scheduler.note_batch_result pool.scheduler ~model:batch.model
            ~ok:false ~service_us:(Clock.now_us () -. dispatched);
          recover_requests pool ~reason:"batch-failure" batch)

(* --- Supervised worker loop ---------------------------------------------- *)

let set_inflight pool slot batch =
  sup_locked pool (fun () ->
      slot.inflight <- batch;
      match batch with
      | Some _ -> slot.wedge_flagged <- false
      | None ->
          (* a batch made it through: the worker is healthy again *)
          slot.deaths <- 0;
          slot.wedge_flagged <- false)

(* One worker domain.  The heartbeat is refreshed at every loop edge;
   [inflight] brackets each batch so the monitor can recover it if this
   domain dies or wedges.  The top-level handler converts any escaped
   exception (notably the injected worker-loop crash) into a [W_dead]
   marking with exponential-backoff restart gate - the domain body
   itself always returns normally, so [Domain.join] never re-raises. *)
let worker_body pool slot () =
  let rec go () =
    Atomic.set slot.hb (Clock.now_us ());
    match Scheduler.next_batch pool.scheduler with
    | None -> sup_locked pool (fun () -> slot.wstate <- W_stopped)
    | Some batch ->
        set_inflight pool slot (Some batch);
        Atomic.set slot.hb (Clock.now_us ());
        (* Injected worker failure point: batch in hand, not yet
           served - the harshest spot to die.  Raise kills the domain,
           stall freezes it (wedge detection), corrupt is treated as
           unrecoverable worker state. *)
        if
          Fault_site.check_runtime Fault_site.Worker_loop ~pass:"worker-loop"
          <> None
        then failwith "worker state corrupted";
        serve_batch pool batch;
        set_inflight pool slot None;
        go ()
  in
  try go ()
  with _ ->
    sup_locked pool (fun () ->
        slot.wstate <- W_dead;
        slot.deaths <- slot.deaths + 1;
        let backoff =
          restart_backoff_us
          *. Float.of_int (1 lsl Stdlib.min 7 (slot.deaths - 1))
        in
        slot.restart_at <- Clock.now_us () +. backoff);
    if Trace.enabled () then begin
      Trace.instant ~phase:"serve" "worker-death"
        ~attrs:[ ("worker", Trace.Int slot.wid) ];
      ignore
        (Flight.incident ~reason:"worker-death"
           ~attrs:[ ("worker", Trace.Int slot.wid) ]
           ())
    end

(* --- Monitor -------------------------------------------------------------- *)

let workers_alive_locked pool =
  Array.fold_left
    (fun acc s -> if s.wstate = W_running then acc + 1 else acc)
    0 pool.slots

(* One supervision sweep.  Decisions are made and slot state mutated
   under [sup_mu]; the slow parts (request recovery, joining the dead
   domain, spawning its replacement) run outside the lock.

   - A dead worker's inflight batch is recovered IMMEDIATELY (the
     backoff gates the respawn, never the requests).
   - A dead worker past its backoff gate is respawned; restarts are
     unbounded - a worker that keeps dying keeps its batch recovery
     working and just waits longer each time (capped at 128x).
   - A running worker with a batch in hand and a heartbeat staler than
     [wedge_timeout_us] is wedged: its batch is stolen ONCE (flagged)
     and recovered.  If the worker eventually finishes anyway, the
     scheduler's first-wins completion discards the late outcome. *)
let supervise_once pool =
  let now = Clock.now_us () in
  let to_recover = ref [] in
  let to_restart = ref [] in
  let stolen = ref [] in
  sup_locked pool (fun () ->
      Array.iter
        (fun s ->
          match s.wstate with
          | W_dead ->
              (match s.inflight with
              | Some b ->
                  s.inflight <- None;
                  to_recover := b :: !to_recover
              | None -> ());
              if now >= s.restart_at then begin
                s.wstate <- W_running;
                let old = s.dom in
                s.dom <- None;
                to_restart := (s, old) :: !to_restart
              end
          | W_running -> (
              match s.inflight with
              | Some b
                when (not s.wedge_flagged)
                     && now -. Atomic.get s.hb > pool.wedge_timeout_us ->
                  s.wedge_flagged <- true;
                  stolen := b :: !stolen
              | _ -> ())
          | W_stopped -> ())
        pool.slots);
  List.iter
    (fun b ->
      Atomic.incr pool.n_wedged;
      if Trace.enabled () then begin
        Trace.instant ~phase:"serve" "wedge-steal"
          ~attrs:[ ("model", Trace.Str b.Scheduler.model) ];
        ignore
          (Flight.incident ~reason:"wedge-steal"
             ~attrs:[ ("model", Trace.Str b.Scheduler.model) ]
             ())
      end;
      recover_requests pool ~reason:"wedge-steal" b)
    !stolen;
  List.iter
    (fun b -> recover_requests pool ~reason:"worker-death" b)
    !to_recover;
  List.iter
    (fun (s, old) ->
      (* the dead domain has already exited; join reclaims it *)
      (match old with Some d -> Domain.join d | None -> ());
      let d = Domain.spawn (worker_body pool s) in
      sup_locked pool (fun () -> s.dom <- Some d);
      Atomic.incr pool.n_restarts;
      if Trace.enabled () then
        Trace.instant ~phase:"serve" "worker-restart"
          ~attrs:[ ("worker", Trace.Int s.wid) ])
    !to_restart

let monitor_body pool () =
  (* fast enough to catch a wedge well inside the timeout, slow enough
     to be invisible in the profile *)
  let period_s =
    Float.max 0.0002 (Float.min 0.005 (1e-6 *. pool.wedge_timeout_us /. 8.))
  in
  while not (Atomic.get pool.stop_monitor) do
    supervise_once pool;
    Unix.sleepf period_s
  done;
  (* final sweep so a death racing the shutdown still gets recovered *)
  supervise_once pool

(* --- Pool lifecycle ------------------------------------------------------ *)

let create ~scheduler ~models ~arch ~verify_every ~retry_budget
    ~wedge_timeout_us ~workers =
  let r = Metrics.default in
  let pool =
    {
      scheduler;
      models;
      arch;
      verify_every;
      retry_budget;
      wedge_timeout_us;
      batch_counter = Atomic.make 1;
      sup_mu = Mutex.create ();
      slots =
        Array.init workers (fun wid ->
            {
              wid;
              hb = Atomic.make (Clock.now_us ());
              dom = None;
              inflight = None;
              wstate = W_running;
              deaths = 0;
              restart_at = 0.;
              wedge_flagged = false;
            });
      monitor = None;
      stop_monitor = Atomic.make false;
      n_restarts = Atomic.make 0;
      n_quarantined = Atomic.make 0;
      n_wedged = Atomic.make 0;
      n_compiles = Atomic.make 0;
      m_batch_size = Metrics.histogram r "serve.batch_size";
      m_request_us = Metrics.histogram r "serve.request_us";
      m_queue_us = Metrics.histogram r "serve.queue_us";
      m_batch_wait_us = Metrics.histogram r "serve.batch_wait_us";
      m_pack_us = Metrics.histogram r "serve.pack_us";
      m_exec_us = Metrics.histogram r "serve.exec_us";
      m_unpack_us = Metrics.histogram r "serve.unpack_us";
      m_verified = Metrics.counter r "serve.verified";
    }
  in
  Array.iter
    (fun s -> s.dom <- Some (Domain.spawn (worker_body pool s)))
    pool.slots;
  pool.monitor <- Some (Domain.spawn (monitor_body pool));
  pool

(* Blocks until the monitor and every worker exit; call after
   [Scheduler.shutdown].  The monitor goes down first (with a final
   recovery sweep) so no restart races the joins. *)
let join pool =
  Atomic.set pool.stop_monitor true;
  (match pool.monitor with Some d -> Domain.join d | None -> ());
  pool.monitor <- None;
  Array.iter
    (fun s ->
      match sup_locked pool (fun () ->
                let d = s.dom in
                s.dom <- None;
                d)
      with
      | Some d -> Domain.join d
      | None -> ())
    pool.slots

let supervision pool =
  {
    restarts = Atomic.get pool.n_restarts;
    quarantined = Atomic.get pool.n_quarantined;
    wedged = Atomic.get pool.n_wedged;
    workers_alive = sup_locked pool (fun () -> workers_alive_locked pool);
  }

let plan_compiles pool = Atomic.get pool.n_compiles

let context_counts pool =
  Hashtbl.fold
    (fun name m acc ->
      (name, model_locked m (fun () -> List.length m.free)) :: acc)
    pool.models []
  |> List.sort compare

(* Build one context per model, compiling the plans not yet set, so
   the first requests pay neither (the CLI does this before the clock
   starts). *)
let warm pool =
  Hashtbl.iter (fun _ m -> checkin m (checkout pool m)) pool.models
