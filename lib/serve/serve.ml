(* The serving front end: load models, submit requests, get outcomes.

   [create] analyzes every registered builder for batchability
   ([Batching.analyze]: the node-level batch-axis classification,
   cross-checked at [max_batch]) and refuses one the analysis rejects,
   fixes its shared weights deterministically from the config seed (a
   served model's weights do not change between requests - only
   per-request parameters do), and spins up the scheduler plus worker
   pool.  Every model compiles one plan at [max_batch] and serves every
   batch size 1..max on it by prefix rebinding, so batches execute at
   exactly their request count.  Requests are stamped with
   [Clock.now_us], the clock the scheduler and workers read.
   After that the surface is small: [submit]/[submit_async] with
   per-request bindings, [submit_all] for a burst admitted at once,
   [drain] to flush, [shutdown] to stop, [stats] to look.

   Admission control is the submit path: a request either comes back
   with a ticket (its outcome will land) or with the structured
   [Request.overload] - the server never queues beyond [queue_depth]
   and never blocks a submitter on a full queue. *)

open Astitch_ir
open Astitch_runtime
open Astitch_obs

type model = { name : string; build : batch:int -> Graph.t }

type config = {
  workers : int;
  max_batch : int;
  max_wait_us : float;
      (** upper bound on how long a partial batch is held; within it a
          batch is held for one measured service time of its model *)
  queue_depth : int;  (** admission-control bound, across models *)
  arch : Astitch_simt.Arch.t;
  verify_every : int;  (** bit-identity spot checks; 0 = off *)
  seed : int;  (** shared-weight generation *)
  retry_budget : int;  (** failed-batch re-dispatches per request *)
  breaker_threshold : int;  (** consecutive failures to open; 0 = off *)
  breaker_cooldown_us : float;  (** open-breaker fast-reject window *)
  wedge_timeout_us : float;  (** stale-heartbeat bound mid-batch *)
  slos : (string * Slo.t) list;
      (** per-model SLO classes; a model not listed is best-effort *)
  fair_share_floor : float;
      (** fraction of dispatches reserved for the least-served model
          when two or more classes are served; 0 = pure strict priority *)
}

let default_config =
  {
    workers = 2;
    max_batch = 8;
    max_wait_us = 2_000.;
    queue_depth = 64;
    arch = Astitch_simt.Arch.v100;
    verify_every = 0;
    seed = 42;
    retry_budget = 2;
    breaker_threshold = 4;
    breaker_cooldown_us = 5_000.;
    wedge_timeout_us = 50_000.;
    slos = [];
    fair_share_floor = 0.125;
  }

type t = {
  config : config;
  scheduler : Scheduler.t;
  pool : Worker_pool.t;
  models : (string, Worker_pool.model_state) Hashtbl.t;
  next_id : int Atomic.t;
  mutable closed : bool;
}

(* A stable per-model seed offset so two models in one server don't get
   identical weights. *)
let model_seed ~seed name =
  seed + (Hashtbl.hash name land 0xffff)

let create ?(config = default_config) models =
  (* Every argument is checked before the scheduler opens its wake pipe
     and the pool spawns domains, so a refused config leaks nothing. *)
  if models = [] then invalid_arg "Serve.create: no models";
  if config.workers < 1 then invalid_arg "Serve.create: workers must be >= 1";
  if config.max_batch < 1 then
    invalid_arg "Serve.create: max_batch must be >= 1";
  if config.retry_budget < 0 then
    invalid_arg "Serve.create: retry_budget must be >= 0";
  let table = Hashtbl.create (List.length models) in
  List.iter
    (fun m ->
      if Hashtbl.mem table m.name then
        invalid_arg (Printf.sprintf "Serve.create: duplicate model %s" m.name);
      let spec =
        try
          Batching.analyze
            (fun b -> m.build ~batch:b)
            ~max_batch:config.max_batch
        with Batching.Not_batchable why ->
          raise (Batching.Not_batchable (m.name ^ ": " ^ why))
      in
      let shared =
        Batching.random_shared spec ~seed:(model_seed ~seed:config.seed m.name)
      in
      Hashtbl.add table m.name
        {
          Worker_pool.spec;
          shared;
          mu = Mutex.create ();
          plan = None;
          free = [];
        })
    models;
  let policy =
    Batcher.policy ~max_batch:config.max_batch ~max_wait_us:config.max_wait_us
  in
  List.iter
    (fun (name, _) ->
      if not (Hashtbl.mem table name) then
        invalid_arg
          (Printf.sprintf "Serve.create: SLO for unregistered model %s" name))
    config.slos;
  (* A class for every served model, so the scheduler sees how many
     classes it is fair between. *)
  let slos =
    List.map
      (fun m ->
        ( m.name,
          Option.value ~default:Slo.Best_effort
            (List.assoc_opt m.name config.slos) ))
      models
  in
  let scheduler =
    Scheduler.create ~breaker_threshold:config.breaker_threshold
      ~breaker_cooldown_us:config.breaker_cooldown_us ~slos
      ~fair_share_floor:config.fair_share_floor ~policy
      ~queue_depth:config.queue_depth ()
  in
  let pool =
    Worker_pool.create ~scheduler ~models:table ~arch:config.arch
      ~verify_every:config.verify_every ~retry_budget:config.retry_budget
      ~wedge_timeout_us:config.wedge_timeout_us ~workers:config.workers
  in
  {
    config;
    scheduler;
    pool;
    models = table;
    next_id = Atomic.make 1;
    closed = false;
  }

let model_state t name =
  match Hashtbl.find_opt t.models name with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Serve: unknown model %s" name)

let spec t ~model = (model_state t model).Worker_pool.spec

(* True while every pooled context of [model] rebinds: always, since
   every plan the pool runs carries its model's batch axis. *)
let symbolic t ~model =
  let m = model_state t model in
  Mutex.protect m.Worker_pool.mu (fun () ->
      List.for_all Executor.rebindable m.Worker_pool.free)

let set_plan t ~model plan = Worker_pool.set_plan (model_state t model) plan
let warm t = Worker_pool.warm t.pool

(* A ticket names an admitted request; redeem it with [await]. *)
type ticket = int

(* Stamp request [id] for [model] and start its flow arrow.  Deadline
   precedence: explicit per-request, then the model's SLO class (a
   Latency class carries one). *)
let make_request ?deadline_us t ~model ~now ~id params =
  let rel =
    match (deadline_us, Scheduler.slo t.scheduler model) with
    | Some _, _ -> deadline_us
    | None, Slo.Latency { deadline_us } -> Some deadline_us
    | None, (Slo.Throughput | Slo.Best_effort) -> None
  in
  let trace = Trace.new_context () in
  if Trace.enabled () then
    Trace.flow_start ~phase:"serve" trace "request"
      ~attrs:[ ("id", Trace.Int id); ("model", Trace.Str model) ];
  {
    Request.id;
    model;
    params;
    submitted_us = now;
    deadline_us = Option.map (fun d -> now +. d) rel;
    attempts = 0;
    trace;
    dispatched_us = 0.;
    resolved = false;
  }

(* The ticket of an admitted request.  A refusal never reaches the
   scheduler's completion path, so its flow must terminate here or the
   "s" arrow dangles. *)
let ticket_of (req : Request.t) = function
  | Ok () -> Ok req.id
  | Error o ->
      if Trace.enabled () then
        Trace.flow_end ~phase:"serve" req.trace "request"
          ~attrs:
            [
              ("id", Trace.Int req.id);
              ("outcome", Trace.Str (Request.overload_to_string o));
            ];
      Error o

(* Admission runs inside a client-thread span; each request's trace
   context is minted under it, so the flow arrow leaves from here and
   lands in whatever worker-domain span serves the request. *)
let with_submit_span ~model attr f =
  let attrs =
    if Trace.enabled () then [ ("model", Trace.Str model); attr ] else []
  in
  Trace.with_span ~attrs ~phase:"serve" "submit" f

let submit_async ?deadline_us t ~model ~params =
  ignore (model_state t model);
  let now = Clock.now_us () in
  let id = Atomic.fetch_and_add t.next_id 1 in
  with_submit_span ~model ("id", Trace.Int id) (fun () ->
      let req = make_request ?deadline_us t ~model ~now ~id params in
      ticket_of req (Scheduler.submit t.scheduler req))

let submit_all t ~model params_list =
  ignore (model_state t model);
  let now = Clock.now_us () in
  with_submit_span ~model
    ("burst", Trace.Int (List.length params_list))
    (fun () ->
      let reqs =
        List.map
          (fun params ->
            let id = Atomic.fetch_and_add t.next_id 1 in
            make_request t ~model ~now ~id params)
          params_list
      in
      List.map2 ticket_of reqs (Scheduler.submit_all t.scheduler reqs))

let await t ticket = Scheduler.await t.scheduler ticket

let poll t ticket = Scheduler.poll t.scheduler ticket
let class_stats t = Scheduler.class_stats t.scheduler

let submit ?deadline_us t ~model ~params =
  match submit_async ?deadline_us t ~model ~params with
  | Ok ticket -> await t ticket
  | Error o -> Request.Overloaded o

(* Deterministic per-request bindings: what the CLI generator and the
   benches feed the server. *)
let random_request t ~model ~seed =
  Batching.random_request (spec t ~model) ~seed

(* The weights the server bound at load time - what a reference
   (solo) execution must use to reproduce served outputs. *)
let shared_weights t ~model = (model_state t model).Worker_pool.shared

let drain t = Scheduler.drain t.scheduler

let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    drain t;
    Scheduler.shutdown t.scheduler;
    Worker_pool.join t.pool;
    (* all workers have joined: nobody can be parked on the wake pipe *)
    Scheduler.dispose t.scheduler
  end

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
  padded_rows : int;  (** always 0: every context rebinds *)
  plan_compiles : int;  (** plans compiled at context checkout *)
  outstanding : int;
  queue_depth : int;
  max_depth_seen : int;
  retried : int;
  duplicates : int;
  breaker_opens : int;
  breaker_closes : int;
}

let stats t =
  let s = Scheduler.stats t.scheduler in
  {
    submitted = s.Scheduler.submitted;
    rejected = s.Scheduler.rejected;
    shed = s.Scheduler.shed;
    shed_admission = s.Scheduler.shed_admission;
    displaced = s.Scheduler.displaced;
    floor_picks = s.Scheduler.floor_picks;
    completed = s.Scheduler.completed;
    failed = s.Scheduler.failed;
    degraded = s.Scheduler.degraded;
    batches = s.Scheduler.batches;
    padded_rows = 0;
    plan_compiles = Worker_pool.plan_compiles t.pool;
    outstanding = s.Scheduler.outstanding;
    queue_depth = s.Scheduler.queue_depth;
    max_depth_seen = s.Scheduler.max_depth_seen;
    retried = s.Scheduler.retried;
    duplicates = s.Scheduler.duplicates;
    breaker_opens = s.Scheduler.breaker_opens;
    breaker_closes = s.Scheduler.breaker_closes;
  }

let context_pool_sizes t = Worker_pool.context_counts t.pool

type supervision = Worker_pool.supervision = {
  restarts : int;
  quarantined : int;
  wedged : int;
  workers_alive : int;
}

let supervision t = Worker_pool.supervision t.pool
let breaker_state t ~model = Scheduler.breaker_state t.scheduler model

(* The per-run request ledger: where every admitted request ended up.
   [lost] is the difference between what went in and what came out -
   the supervision contract is that it is always 0 once the server is
   drained, under any fault. *)
type disposition = {
  served : int;
  d_degraded : int;
  d_failed : int;
  overloaded : int;
  d_rejected : int;
  lost : int;
}

let disposition t =
  let s = stats t in
  {
    served = s.completed;
    d_degraded = s.degraded;
    d_failed = s.failed;
    overloaded = s.shed;
    d_rejected = s.rejected;
    lost = s.submitted - s.completed - s.failed - s.shed - s.outstanding;
  }

(* Per-phase latency attribution.  The five phase histograms telescope:
   for every completed request queue + batch_wait + pack + exec + unpack
   equals its end-to-end serve.request_us sample (same stamps), so the
   blame table's per-phase totals reconcile with the latency total. *)
type phase_latency = {
  phase : string;
  count : int;
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  max_us : float;
}

let phase_names =
  [ "queue"; "batch_wait"; "pack"; "exec"; "unpack"; "request" ]

let latency_breakdown () =
  let r = Metrics.default in
  List.map
    (fun phase ->
      let h = Metrics.histogram r ("serve." ^ phase ^ "_us") in
      {
        phase;
        count = Metrics.hist_count h;
        mean_us = Metrics.hist_mean h;
        p50_us = Metrics.quantile h 0.50;
        p95_us = Metrics.quantile h 0.95;
        p99_us = Metrics.quantile h 0.99;
        max_us = Metrics.hist_max h;
      })
    phase_names
