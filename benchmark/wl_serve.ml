(* The two serving workloads.

   serve-closed: one Serve with all five models on the FIFO scheduler
   (no SLO classes), max batch 8, 500 us window, queue depth 64, one
   worker domain.  One thread keeps 16 requests outstanding, so queue
   depth is set by the concurrency rather than by arrival bursts and
   throughput measures batching, pack/unpack and exec.  Set-up is cold:
   Serve.create plus the warm compiles.

   zoo-open: the same serve layers behind a Zoo - ASR latency class
   (20 ms deadline), DIEN and CRNN throughput, Transformer and BERT
   best-effort - driven open loop by Poisson arrivals at a ladder of
   fixed rates.  It exercises the SLO scheduler (EDF, fair-share floor,
   displacement, shedding) under overload, and the plan store and codec
   at set-up, which is warm: Zoo.create plus prewarm against a store
   written beforehand, untimed.

   Both draw payloads from a pool built at set-up (64 per model via
   Serve.random_request) and model picks from a skewed 1/(i+1)
   popularity, all seeded.  After the window a seeded 1-in-256 sample
   of served outputs is checked bit for bit against Interp.run on the
   model's batch-1 graph. *)

module Stats = Bench_stats.Stats
module Serve = Astitch_serve.Serve
module Zoo = Astitch_serve.Zoo
module Slo = Astitch_serve.Slo
module Request = Astitch_serve.Request
module Metrics = Astitch_obs.Metrics
module Interp = Astitch_tensor.Interp
module Tensor = Astitch_tensor.Tensor

let serve_config =
  {
    Serve.default_config with
    workers = 1;
    max_batch = 8;
    max_wait_us = 500.;
    queue_depth = 64;
    slos = [];
  }

let entry name = Option.get (Astitch_workloads.Zoo.find name)

let model (e : Astitch_workloads.Zoo.entry) = { Serve.name = e.name; build = e.batched }

let pool_size = 64

(* --- Shared pieces: payload pool, completions, output sample ------------ *)

type traffic = {
  names : string array;  (** popularity order, hottest first *)
  cdf : float array;
  pool : (string * Tensor.t) list array array;  (** [model][payload] *)
  offset : int;  (** a completion is checked when its sequence number is this mod 256 *)
  mutable samples : (int * int * Tensor.t list) list;  (** model, payload, outputs *)
}

let traffic server names ~seed =
  {
    names;
    cdf = Common.skewed_cdf (Array.length names);
    pool =
      Array.mapi
        (fun m model ->
          Array.init pool_size (fun j ->
              Serve.random_request server ~model ~seed:((seed * 7919) + (m * pool_size) + j)))
        names;
    offset = seed land 255;
    samples = [];
  }

let keep_sample tr ~seq ~m ~j outputs =
  if seq land 255 = tr.offset then tr.samples <- (m, j, outputs) :: tr.samples

(* Check every kept sample against the reference interpreter on the
   model's batch-1 graph with the server's shared weights. *)
let check_samples r server tr =
  let expect = Hashtbl.create 64 in
  List.iter
    (fun (m, j, outputs) ->
      let model = tr.names.(m) in
      let want =
        match Hashtbl.find_opt expect (m, j) with
        | Some w -> w
        | None ->
            let base = (Serve.spec server ~model).Astitch_serve.Batching.base in
            let w = Interp.run base ~params:(Serve.shared_weights server ~model @ tr.pool.(m).(j)) in
            Hashtbl.replace expect (m, j) w;
            w
      in
      if not (Common.same_outputs outputs want) then
        Common.fail r 1 (model ^ ": served outputs differ from Interp.run"))
    tr.samples;
  Common.note r "checked %d sampled outputs against Interp.run" (List.length tr.samples);
  tr.samples <- []

let check_lost r server =
  let d = Serve.disposition server in
  Common.fail r d.Serve.lost "requests lost"

(* The serve-layer rows shared by both serving workloads: the five
   phase histograms and the batching counters over one window. *)
let phases = [ "queue"; "batch_wait"; "pack"; "exec"; "unpack" ]

let serve_metrics r server ~(before : Serve.stats) =
  let s = Serve.stats server in
  let rows = Serve.latency_breakdown () in
  List.iter
    (fun (p : Serve.phase_latency) ->
      if List.mem p.phase phases then begin
        Common.add r ("serve." ^ p.phase ^ "_mean_us") "us" p.mean_us;
        Common.add r ("serve." ^ p.phase ^ "_p99_bucket_us") "us" p.p99_us
      end)
    rows;
  let delta f = float_of_int (f s - f before) in
  Common.add r "serve.batches" "count" (delta (fun s -> s.batches));
  Common.add r "serve.mean_batch" "count"
    (Metrics.hist_mean (Metrics.histogram Metrics.default "serve.batch_size"));
  Common.add r "serve.padded_rows" "count" (delta (fun s -> s.padded_rows));
  Common.add r "serve.max_depth" "count" (float_of_int s.max_depth_seen);
  Common.add r "serve.compiles" "count" (delta (fun s -> s.plan_compiles));
  Common.add r "sched.floor_picks" "count" (delta (fun s -> s.floor_picks));
  Common.add r "sched.displaced" "count" (delta (fun s -> s.displaced));
  Common.add r "sched.shed_admission" "count" (delta (fun s -> s.shed_admission));
  rows

(* The phase means telescope to the request mean. *)
let phase_checks rows =
  let mean p =
    match List.find_opt (fun (x : Serve.phase_latency) -> x.phase = p) rows with
    | Some x -> x.mean_us
    | None -> 0.
  in
  let sum = List.fold_left (fun acc p -> acc +. mean p) 0. phases in
  List.map (fun p -> { Layers.label = p ^ " mean"; value = mean p; unit = "us" }) phases
  @ [
      { label = "sum of phase means"; value = sum; unit = "us" };
      { label = "request mean (serve.request_us)"; value = mean "request"; unit = "us" };
      { label = "phases vs request gap"; value = 100. *. ((sum /. mean "request") -. 1.); unit = "%" };
      { label = "queue share of request"; value = 100. *. mean "queue" /. mean "request"; unit = "%" };
    ]

(* Run [n] set-ups, each traced in its own chunk and followed, untraced,
   by [after] on its result; each server is stopped before the next
   set-up and the last one stays up. *)
let traced_setups ?(after = ignore) layers n setup stop =
  let last = ref (Layers.chunk layers setup) in
  after !last;
  for _ = 2 to n do
    stop !last;
    last := Layers.chunk layers setup;
    after !last
  done;
  !last

(* --- serve-closed -------------------------------------------------------- *)

(* Model popularity, hottest first; both serving workloads share it so
   their mixes differ only in how requests arrive. *)
let popularity = [| "ASR"; "DIEN"; "CRNN"; "Transformer"; "BERT" |]

let outstanding = 16

let closed_setup () =
  let server =
    Common.span "serve.create" (fun () ->
        Affinity.spawning_workers (fun () ->
            Serve.create ~config:serve_config (List.map model Astitch_workloads.Zoo.all)))
  in
  Common.span "serve.warm" (fun () -> Serve.warm server);
  server

(* One closed-loop slice: request latencies (seconds), and the requests
   completed while the loop was open, over how long it was open. *)
type closed = { lat : Stats.Samples.t; completed : int; open_s : float }

(* Keep [outstanding] requests in flight until [until]: block on the
   slots in turn, poll the others after each wake-up and refill every
   finished slot at once; then let the last ones finish. *)
let closed_loop r server tr st ~until =
  let ticket = Array.make outstanding (-1)
  and mdl = Array.make outstanding 0
  and pay = Array.make outstanding 0
  and seq = Array.make outstanding 0 in
  let lat = Stats.Samples.create () in
  let completed = ref 0 in
  let next_seq = ref 0 in
  let submit k =
    let m = Common.pick tr.cdf st in
    let j = Random.State.int st pool_size in
    r.Common.attempted <- r.Common.attempted + 1;
    match Serve.submit_async server ~model:tr.names.(m) ~params:tr.pool.(m).(j) with
    | Ok t ->
        ticket.(k) <- t;
        mdl.(k) <- m;
        pay.(k) <- j;
        seq.(k) <- !next_seq;
        incr next_seq
    | Error o ->
        ticket.(k) <- -1;
        Common.fail r 1 ("refused under closed loop: " ^ Request.overload_to_string o)
  in
  let open_ = ref true in
  let settle k outcome =
    ticket.(k) <- -1;
    (match (outcome : Request.outcome) with
    | Done { outputs; latency_us; _ } ->
        Stats.Samples.add lat (latency_us /. 1e6);
        if !open_ then incr completed;
        keep_sample tr ~seq:seq.(k) ~m:mdl.(k) ~j:pay.(k) outputs
    | Overloaded o -> Common.fail r 1 ("shed under closed loop: " ^ Request.overload_to_string o)
    | Failed m -> Common.fail r 1 ("failed: " ^ m));
    if !open_ then submit k
  in
  let t0 = Common.now_s () in
  let closed_at = ref until in
  for k = 0 to outstanding - 1 do
    submit k
  done;
  let cursor = ref 0 and pending = ref outstanding in
  while !pending > 0 do
    let k = !cursor in
    cursor := (k + 1) mod outstanding;
    if ticket.(k) >= 0 then begin
      settle k (Serve.await server ticket.(k));
      if !open_ && Common.now_s () >= until then begin
        open_ := false;
        closed_at := Common.now_s ()
      end;
      for i = 0 to outstanding - 1 do
        if ticket.(i) >= 0 then
          match Serve.poll server ticket.(i) with Some o -> settle i o | None -> ()
      done;
      pending := Array.fold_left (fun acc t -> if t >= 0 then acc + 1 else acc) 0 ticket
    end
  done;
  { lat; completed = !completed; open_s = !closed_at -. t0 }

let run_closed (cfg : Common.config) =
  let r = Common.new_result () in
  (* One server, set up untimed, serves the whole window, so plans for
     the batch sizes traffic forms are compiled once, as in a long-lived
     server.  Each slice times a set-up of a spare server, shut down
     before the slice's requests start. *)
  let server = closed_setup () in
  let tr = traffic server popularity ~seed:cfg.seed in
  let st = Random.State.make [| cfg.seed; 0x5E |] in
  Metrics.reset Metrics.default;
  let before = Serve.stats server in
  let slices =
    Common.sliced r ~seconds:(Common.window cfg) ~slice_s:1. ~cpus:[ 0; 1 ] ~setup:closed_setup
      (fun spare ~until ->
        Serve.shutdown spare;
        Affinity.on_main (fun () -> closed_loop r server tr st ~until))
  in
  Serve.drain server;
  let rows = serve_metrics r server ~before in
  check_samples r server tr;
  check_lost r server;
  let figure f = Array.map (fun (speed, s) -> (speed, f s)) slices in
  Common.add r "latency_ms" "ms"
    (Common.ms
       (Common.at_speed ~rate:false
          (figure (fun s -> Stats.quantile (Stats.Samples.sorted s.lat) 0.5))));
  Common.add r "goodput_per_s" "1/s"
    (Common.at_speed ~rate:true (figure (fun s -> float_of_int s.completed /. s.open_s)));
  Common.tail r (Common.pool (Array.map (fun (_, s) -> [| s.lat |]) slices));
  Serve.shutdown server;
  if cfg.trace then begin
    let layers = Layers.create ~capacity:(1 lsl 19) () in
    let traced_server = traced_setups layers cfg.setups closed_setup Serve.shutdown in
    let per_setup_ms ns = ns /. 1e6 /. float_of_int cfg.setups in
    let warm_compile_ms =
      Wl_compile.pass_metrics r layers ~root:(fun l -> l = "bench/serve.warm") ~units:cfg.setups
    in
    Common.add r "exec.create_context_us" "us"
      (1e3 *. per_setup_ms (Layers.total_ns layers "exec/create-context"));
    (* half-second traced slices, each after an untraced one that the
       overhead is measured against *)
    let plain = Stats.Samples.create () and traced = Stats.Samples.create () in
    let keep into s = Array.iter (Stats.Samples.add into) (Stats.Samples.sorted s.lat) in
    let half_second () = Common.now_s () +. 0.5 in
    let t_end = Common.now_s () +. Common.window cfg in
    Affinity.on_main (fun () ->
        while Stats.Samples.length traced = 0 || Common.now_s () < t_end do
          keep plain (closed_loop r traced_server tr st ~until:(half_second ()));
          keep traced
            (Layers.chunk layers (fun () -> closed_loop r traced_server tr st ~until:(half_second ())))
        done);
    check_samples r traced_server tr;
    check_lost r traced_server;
    Serve.shutdown traced_server;
    Common.add r "trace.overhead_pct" "%" (Common.overhead_pct ~traced:[| traced |] ~plain:[| plain |]);
    Layers.write layers ~dir:cfg.out_dir ~workload:"serve-closed"
      (phase_checks rows
      @ [
          {
            Layers.label = "cold set-up: serve.create";
            value = per_setup_ms (Layers.total_ns layers "bench/serve.create");
            unit = "ms";
          };
          {
            label = "cold set-up: serve.warm";
            value = per_setup_ms (Layers.total_ns layers "bench/serve.warm");
            unit = "ms";
          };
          {
            label = "  create-context spans";
            value = per_setup_ms (Layers.total_ns layers "exec/create-context");
            unit = "ms";
          };
          { label = "  compile pass rows"; value = warm_compile_ms; unit = "ms" };
        ]);
    if Layers.dropped layers > 0 then Common.fail r 1 "trace records dropped"
  end;
  r

(* --- zoo-open ------------------------------------------------------------ *)

let deadline_us = 20_000.
let ladder = [| 6000.; 9000.; 12000.; 15000. |]
let registrations =
  List.map2
    (fun name slo -> (model (entry name), slo))
    (Array.to_list popularity)
    [
      Slo.Latency { deadline_us };
      Slo.Throughput;
      Slo.Throughput;
      Slo.Best_effort;
      Slo.Best_effort;
    ]

(* Per-class rows are indexed by SLO rank, the order of
   Slo.all_class_names. *)
let classes = Slo.all_class_names
let cls_index = Array.of_list (List.map (fun (_, slo) -> Slo.rank slo) registrations)

let zoo_create ~dir =
  Common.span "zoo.create" (fun () ->
      Affinity.spawning_workers (fun () ->
          Zoo.create
            ~config:{ Zoo.serve = serve_config; plan_dir = Some dir; verify_plans = false }
            registrations))

(* Write the store untimed: a cold prewarm, then one burst of every size
   1..max_batch for each fixed-extent model so the sizes traffic forms
   are compiled and persisted too.  Also the payload pool. *)
let write_store ~dir ~seed =
  let zoo = zoo_create ~dir in
  let p, cold_s = Common.time (fun () -> Zoo.prewarm zoo) in
  let server = Zoo.server zoo in
  Array.iter
    (fun model ->
      if not (Serve.symbolic server ~model) then
        for n = 1 to serve_config.max_batch do
          let tickets =
            List.init n (fun j ->
                Zoo.submit_async zoo ~model ~params:(Serve.random_request server ~model ~seed:j))
          in
          Zoo.drain zoo;
          List.iter (function Ok t -> ignore (Zoo.await zoo t) | Error _ -> ()) tickets
        done)
    popularity;
  let tr = traffic server popularity ~seed in
  ignore (Zoo.shutdown zoo);
  (p, cold_s, tr)

(* The work a warm prewarm does per plan, timed from outside on the same
   plans: graph build and fingerprint, store load (read + decode),
   decode alone, the structural check, the cost-model profile seeding
   the cache, and the second build and fingerprint of each warm
   checkout; plus encode, which the save path pays.  Seconds summed over
   the plans, one pass. *)
type legs = {
  build_fp : float;
  rebuild : float;
  load : float;
  decode : float;
  check : float;
  profile : float;
  encode : float;
}

let store_legs ~dir server =
  let store = Astitch_runtime.Plan_store.open_ ~dir in
  let arch = serve_config.arch.Astitch_simt.Arch.name in
  let keys =
    Array.to_list popularity
    |> List.concat_map (fun model ->
           let spec = Serve.spec server ~model in
           let sizes =
             if Serve.symbolic server ~model then [ serve_config.max_batch ]
             else List.init serve_config.max_batch (fun i -> i + 1)
           in
           List.map (fun n -> (spec, n)) sizes)
  in
  let rebuild =
    Array.to_list popularity
    |> List.concat_map (fun model ->
           let spec = Serve.spec server ~model in
           if Serve.symbolic server ~model then [ (spec, serve_config.max_batch) ]
           else [ (spec, 1); (spec, serve_config.max_batch) ])
    |> List.fold_left
         (fun acc ((spec : Astitch_serve.Batching.spec), n) ->
           acc +. snd (Common.time (fun () -> Astitch_ir.Fingerprint.of_graph (spec.build n))))
         0.
  in
  let build_fp = ref 0. and load = ref 0. and decode = ref 0. and encode = ref 0.
  and check = ref 0. and profile = ref 0. in
  List.iter
    (fun ((spec : Astitch_serve.Batching.spec), n) ->
      let fingerprint, dt =
        Common.time (fun () -> Astitch_ir.Fingerprint.of_graph (spec.build n))
      in
      build_fp := !build_fp +. dt;
      match Common.time (fun () -> Astitch_runtime.Plan_store.load store ~fingerprint ~arch) with
      | Astitch_runtime.Plan_store.Loaded plan, dt ->
          load := !load +. dt;
          let path =
            Filename.concat dir (Astitch_runtime.Plan_store.filename ~fingerprint ~arch)
          in
          let bytes = In_channel.with_open_bin path In_channel.input_all in
          let _, dt = Common.time (fun () -> Astitch_plan.Plan_codec.decode bytes) in
          decode := !decode +. dt;
          let _, dt = Common.time (fun () -> Astitch_plan.Plan_codec.encode plan) in
          encode := !encode +. dt;
          let _, dt =
            Common.time (fun () ->
                ignore (Astitch_ir.Fingerprint.of_graph plan.Astitch_plan.Kernel_plan.graph);
                Astitch_plan.Kernel_plan.check_all plan)
          in
          check := !check +. dt;
          let _, dt =
            Common.time (fun () ->
                Astitch_runtime.Profile.profile ~config:Astitch_core.Astitch.cost_config plan)
          in
          profile := !profile +. dt
      | _ -> ())
    keys;
  { build_fp = !build_fp; rebuild; load = !load; decode = !decode; check = !check; profile = !profile; encode = !encode }

type step = {
  at_ns : int array;  (** scheduled send offsets *)
  mdl : int array;
  pay : int array;
}

let schedule ~seed ~k ~rate ~seconds ~cdf =
  let st = Random.State.make [| seed; 0x200; k |] in
  let at = Stats.Samples.create ~capacity:(int_of_float (rate *. seconds) + 16) () in
  let t = ref (-.Float.log (1. -. Random.State.float st 1.) /. rate) in
  while !t < seconds do
    Stats.Samples.add at !t;
    t := !t -. (Float.log (1. -. Random.State.float st 1.) /. rate)
  done;
  let n = Stats.Samples.length at in
  let at_ns = Array.map (fun t -> int_of_float (t *. 1e9)) (Stats.Samples.sorted at) in
  let mdl = Array.init n (fun _ -> Common.pick cdf st) in
  let pay = Array.init n (fun _ -> Random.State.int st pool_size) in
  { at_ns; mdl; pay }

type outcome = {
  attempted : int array;  (** per class *)
  completed : int array;
  met : int array;  (** completed within the deadline, lateness included *)
  shed : int array;  (** refused at admission or shed after it *)
  failed : int array;
  lat : Stats.Samples.t array;  (** ms from the scheduled send, per class *)
  all_lat : Stats.Samples.t;
  late : Stats.Samples.t;  (** generator lateness, ms *)
  mutable outstanding_at_end : int;
}

let ncls = List.length classes

let new_outcome ~capacity =
  {
    attempted = Array.make ncls 0;
    completed = Array.make ncls 0;
    met = Array.make ncls 0;
    shed = Array.make ncls 0;
    failed = Array.make ncls 0;
    lat = Array.init ncls (fun _ -> Stats.Samples.create ~capacity ());
    all_lat = Stats.Samples.create ~capacity ();
    late = Stats.Samples.create ~capacity ();
    outstanding_at_end = 0;
  }

(* One step's outcomes over every cycle: counts summed, samples pooled,
   the largest backlog left at a step's end. *)
let merge (os : outcome array) =
  let m = new_outcome ~capacity:1024 in
  let add_counts dst src = Array.iteri (fun c x -> dst.(c) <- dst.(c) + x) src in
  let append dst src = Array.iter (Stats.Samples.add dst) (Stats.Samples.sorted src) in
  Array.iter
    (fun o ->
      add_counts m.attempted o.attempted;
      add_counts m.completed o.completed;
      add_counts m.met o.met;
      add_counts m.shed o.shed;
      add_counts m.failed o.failed;
      Array.iteri (fun c s -> append m.lat.(c) s) o.lat;
      append m.all_lat o.all_lat;
      append m.late o.late;
      m.outstanding_at_end <- Stdlib.max m.outstanding_at_end o.outstanding_at_end)
    os;
  m

(* One open-loop step.  Pending tickets live in fixed slot arrays and
   are polled in place, and the clock is read as an integer, so the
   waiting loop allocates nothing: on OCaml 5 every minor collection
   stops the server's worker domain too. *)
let open_step r zoo tr (s : step) ~seq0 =
  let o = new_outcome ~capacity:(Array.length s.at_ns) in
  let slots = 1024 in
  let ticket = Array.make slots (-1)
  and mdl = Array.make slots 0
  and pay = Array.make slots 0
  and late = Array.make slots 0.
  and seq = Array.make slots 0 in
  let free = Array.init slots (fun i -> slots - 1 - i) and nfree = ref slots in
  let settle k outcome =
    let m = mdl.(k) in
    let c = cls_index.(m) in
    ticket.(k) <- -1;
    free.(!nfree) <- k;
    incr nfree;
    match (outcome : Request.outcome) with
    | Done { outputs; latency_us; _ } ->
        let ms = (latency_us /. 1e3) +. late.(k) in
        o.completed.(c) <- o.completed.(c) + 1;
        Stats.Samples.add o.lat.(c) ms;
        Stats.Samples.add o.all_lat ms;
        if ms <= deadline_us /. 1e3 then o.met.(c) <- o.met.(c) + 1;
        keep_sample tr ~seq:seq.(k) ~m ~j:pay.(k) outputs
    | Overloaded _ -> o.shed.(c) <- o.shed.(c) + 1
    | Failed _ -> o.failed.(c) <- o.failed.(c) + 1
  in
  let sweep () =
    for k = 0 to slots - 1 do
      if ticket.(k) >= 0 then
        match Zoo.poll zoo ticket.(k) with Some x -> settle k x | None -> ()
    done
  in
  let n = Array.length s.at_ns in
  let t0 = Common.now_ns () in
  let i = ref 0 and last_sweep = ref 0 in
  while !i < n do
    let now = Common.now_ns () - t0 in
    if now >= s.at_ns.(!i) then begin
      let m = s.mdl.(!i) and j = s.pay.(!i) in
      let c = cls_index.(m) in
      let l = float_of_int (now - s.at_ns.(!i)) *. 1e-6 in
      Stats.Samples.add o.late l;
      o.attempted.(c) <- o.attempted.(c) + 1;
      if !nfree = 0 then sweep ();
      (match Zoo.submit_async zoo ~model:tr.names.(m) ~params:tr.pool.(m).(j) with
      | Ok t ->
          decr nfree;
          let k = free.(!nfree) in
          ticket.(k) <- t;
          mdl.(k) <- m;
          pay.(k) <- j;
          late.(k) <- l;
          seq.(k) <- seq0 + !i
      | Error _ -> o.shed.(c) <- o.shed.(c) + 1);
      incr i
    end
    else if now - !last_sweep > 200_000 then begin
      sweep ();
      last_sweep := Common.now_ns () - t0
    end
    else Domain.cpu_relax ()
  done;
  sweep ();
  o.outstanding_at_end <- slots - !nfree;
  while !nfree < slots do
    Unix.sleepf 2e-4;
    sweep ()
  done;
  r.Common.attempted <- r.Common.attempted + n;
  o

let sum a = Array.fold_left ( + ) 0 a

let step_goodput (o : outcome) ~seconds =
  let lat_i = 0 in
  let good =
    o.met.(lat_i) + sum (Array.mapi (fun i c -> if i = lat_i then 0 else c) o.completed)
  in
  float_of_int good /. seconds

(* Share of attempted requests, all classes, that did not complete
   within the deadline; refused, shed and failed requests count as
   misses. *)
let miss_frac (o : outcome) =
  let within =
    Array.fold_left
      (fun acc x -> if x <= deadline_us /. 1e3 then acc + 1 else acc)
      0 (Stats.Samples.sorted o.all_lat)
  in
  1. -. (float_of_int within /. float_of_int (Stdlib.max 1 (sum o.attempted)))

let q samples p =
  if Stats.Samples.length samples = 0 then 0. else Stats.quantile (Stats.Samples.sorted samples) p

(* One climb of the rate ladder, [step_s] a step, on the arrival
   schedule of [seed] and [cycle]; outcomes by step.  [chunk] wraps each
   step (a trace chunk in traced runs). *)
let ladder_cycle ?(chunk = fun f -> f ()) r zoo tr ~seed ~cycle ~step_s =
  let seq0 = ref 0 in
  Affinity.on_main @@ fun () ->
  Array.mapi
    (fun k rate ->
      let s = schedule ~seed ~k:((cycle * Array.length ladder) + k) ~rate ~seconds:step_s ~cdf:tr.cdf in
      let o = chunk (fun () -> open_step r zoo tr s ~seq0:!seq0) in
      seq0 := !seq0 + Array.length s.at_ns;
      List.iteri (fun c cls -> Common.fail r o.failed.(c) ("failed outcomes, class " ^ cls)) classes;
      o)
    ladder

(* Each step's outcomes pooled over the cycles. *)
let pooled_steps cycles = Array.init (Array.length ladder) (fun k -> merge (Array.map (fun c -> c.(k)) cycles))

(* The latency figure's step and the goodput figure's.  Latency is read
   at the lowest rate: near the knee (9000 req/s and up) queueing
   amplifies any slowdown of the machine into a much larger latency
   swing, which would hide a change of the server behind run-to-run
   noise.  Goodput is read at the top, under overload. *)
let latency_step = 0
let top = Array.length ladder - 1

let run_zoo (cfg : Common.config) =
  let r = Common.new_result () in
  let dir = Filename.concat cfg.out_dir (Printf.sprintf "plan-store-%d" (Unix.getpid ())) in
  Common.remove_tree dir;
  Common.mkdir_p dir;
  Fun.protect
    ~finally:(fun () -> Common.remove_tree dir)
    (fun () ->
      let cold, cold_s, tr = write_store ~dir ~seed:cfg.seed in
      Common.note r "cold prewarm (untimed store write): %.3f ms, %d compiled, %d saved"
        (Common.ms cold_s) cold.Zoo.compiled cold.Zoo.saved;
      Common.add r "zoo.cold_prewarm_ms" "ms" (Common.ms cold_s);
      (* As in serve-closed, one zoo serves the whole window and each
         slice times the set-up of a spare one: every slice is one climb
         of the ladder. *)
      let zoo = zoo_create ~dir in
      ignore (Zoo.prewarm zoo);
      let server = Zoo.server zoo in
      Metrics.reset Metrics.default;
      let before = Serve.stats server in
      let prewarms = Stats.Samples.create () and last = ref cold and cycle = ref 0 in
      let seconds = Common.window cfg in
      let slice_s = 2. in
      let step_s = Common.slice_seconds ~slice_s seconds /. float_of_int (Array.length ladder) in
      let cycles =
        Common.sliced r ~seconds ~slice_s ~cpus:[ 0; 1 ]
          ~setup:(fun () ->
            let spare = zoo_create ~dir in
            let p, dt = Common.time (fun () -> Common.span "zoo.prewarm" (fun () -> Zoo.prewarm spare)) in
            Stats.Samples.add prewarms dt;
            (spare, p))
          (fun (spare, p) ~until:_ ->
            ignore (Zoo.shutdown spare);
            last := p;
            let o = ladder_cycle r zoo tr ~seed:cfg.seed ~cycle:!cycle ~step_s in
            incr cycle;
            o)
      in
      Zoo.drain zoo;
      ignore (serve_metrics r server ~before);
      check_samples r server tr;
      check_lost r server;
      ignore (Zoo.shutdown zoo);
      Common.add r "zoo.prewarm_ms" "ms" (Common.ms (Stats.quantile (Stats.Samples.sorted prewarms) 0.5));
      Common.add r "zoo.loaded" "count" (float_of_int !last.Zoo.loaded);
      Common.add r "zoo.compiled" "count" (float_of_int !last.Zoo.compiled);
      let lat_p50 (o : outcome) = q o.lat.(0) 0.5 in
      let figure f = Array.map (fun (speed, c) -> (speed, f c)) cycles in
      Common.add r "latency_ms" "ms"
        (Common.at_speed ~rate:false (figure (fun c -> lat_p50 c.(latency_step))));
      Common.add r "goodput_per_s" "1/s"
        (Common.at_speed ~rate:true (figure (fun c -> step_goodput c.(top) ~seconds:step_s)));
      let cycles = Array.map snd cycles in
      let steps = pooled_steps cycles in
      let latency_s = Stats.Samples.create () in
      Array.iter
        (fun ms -> Stats.Samples.add latency_s (ms /. 1e3))
        (Stats.Samples.sorted steps.(latency_step).lat.(0));
      Common.tail r [| latency_s |];
      let pooled_s = step_s *. float_of_int (Array.length cycles) in
      let slo = ref 0. in
      Array.iteri
        (fun k (o : outcome) ->
          let name = Printf.sprintf "zoo.step%d" (k + 1) in
          let mf = miss_frac o in
          Common.add r (name ^ ".goodput_rps") "req/s" (step_goodput o ~seconds:pooled_s);
          Common.add r (name ^ ".miss_frac") "ratio" mf;
          Common.add r (name ^ ".p50_ms") "ms" (lat_p50 o);
          Common.add r (name ^ ".p99_ms") "ms" (q o.all_lat 0.99);
          let gen = Printf.sprintf "gen.step%d" (k + 1) in
          let late_p99 = q o.late 0.99 in
          Common.add r (gen ^ ".late_p99_ms") "ms" late_p99;
          Common.add r (gen ^ ".late_max_ms") "ms" (q o.late 1.);
          if late_p99 > 1. then
            Common.note r "step %d (%.0f req/s): generator p99 lateness %.3f ms exceeds 1 ms"
              (k + 1) ladder.(k) late_p99;
          if mf <= 0.01 && o.outstanding_at_end < serve_config.queue_depth then slo := ladder.(k))
        steps;
      Common.add r "zoo.slo_rps" "req/s" !slo;
      List.iteri
        (fun c cls ->
          let o = steps.(top) in
          let good = if c = 0 then o.met.(c) else o.completed.(c) in
          Common.add r ("zoo." ^ cls ^ ".goodput_rps") "req/s" (float_of_int good /. pooled_s);
          Common.add r ("zoo." ^ cls ^ ".p99_ms") "ms" (q o.lat.(c) 0.99);
          Common.add r ("zoo." ^ cls ^ ".shed") "count" (float_of_int o.shed.(c)))
        classes;
      if cfg.trace then begin
        let layers = Layers.create ~capacity:(1 lsl 20) () in
        (* the store legs, timed from outside right after each traced set-up *)
        let legs = ref [] in
        let tzoo =
          traced_setups layers cfg.setups
            ~after:(fun z -> legs := store_legs ~dir (Zoo.server z) :: !legs)
            (fun () ->
              let z = zoo_create ~dir in
              ignore (Common.span "zoo.prewarm" (fun () -> Zoo.prewarm z));
              z)
            (fun z -> ignore (Zoo.shutdown z))
        in
        let legs = Array.of_list !legs in
        let leg f = Stats.median (Array.map f legs) in
        Common.add r "store.load_us" "us" (Common.us (leg (fun l -> l.load)));
        Common.add r "codec.decode_us" "us" (Common.us (leg (fun l -> l.decode)));
        Common.add r "codec.encode_us" "us" (Common.us (leg (fun l -> l.encode)));
        let per_setup_ms ns = ns /. 1e6 /. float_of_int cfg.setups in
        Common.add r "exec.create_context_us" "us"
          (1e3 *. per_setup_ms (Layers.total_ns layers "exec/create-context"));
        let compile_ms =
          Wl_compile.pass_metrics r layers ~root:(fun l -> l = "bench/zoo.prewarm") ~units:cfg.setups
        in
        let tserver = Zoo.server tzoo in
        (* ladder climbs, untraced and traced in turn on the same arrival
           schedule; the overhead compares the two *)
        let plain = ref [] and traced = ref [] in
        for i = 1 to Stdlib.max 1 (Common.slice_count ~slice_s seconds / 2) do
          plain := ladder_cycle r tzoo tr ~seed:cfg.seed ~cycle:i ~step_s :: !plain;
          traced := ladder_cycle r tzoo tr ~seed:cfg.seed ~cycle:i ~step_s ~chunk:(Layers.chunk layers) :: !traced
        done;
        check_samples r tserver tr;
        check_lost r tserver;
        ignore (Zoo.shutdown tzoo);
        let latency_class cycles = (pooled_steps (Array.of_list cycles)).(latency_step).lat.(0) in
        let traced = latency_class !traced and plain = latency_class !plain in
        Common.add r "trace.overhead_pct" "%" (Common.overhead_pct ~traced:[| traced |] ~plain:[| plain |]);
        let prewarm_ms = per_setup_ms (Layers.total_ns layers "bench/zoo.prewarm") in
        let context_ms =
          per_setup_ms
            (Layers.self_ns layers ~root:(fun x -> x = "bench/zoo.prewarm") "exec/create-context")
        in
        let ms f = Common.ms (Array.fold_left (fun acc l -> acc +. f l) 0. legs /. float_of_int cfg.setups) in
        let named =
          ms (fun l -> l.build_fp) +. ms (fun l -> l.load) +. ms (fun l -> l.check)
          +. ms (fun l -> l.profile) +. ms (fun l -> l.rebuild) +. context_ms +. compile_ms
        in
        Layers.write layers ~dir:cfg.out_dir ~workload:"zoo-open"
          [
            { Layers.label = "warm set-up, mean of the traced set-ups: zoo.create"; value = per_setup_ms (Layers.total_ns layers "bench/zoo.create"); unit = "ms" };
            { label = "warm set-up, mean of the traced set-ups: zoo.prewarm"; value = prewarm_ms; unit = "ms" };
            { label = "  graph build + fingerprint (outside)"; value = ms (fun l -> l.build_fp); unit = "ms" };
            { label = "  store load incl. decode (outside)"; value = ms (fun l -> l.load); unit = "ms" };
            { label = "    of which codec decode (outside)"; value = ms (fun l -> l.decode); unit = "ms" };
            { label = "  structural check (outside)"; value = ms (fun l -> l.check); unit = "ms" };
            { label = "  cost-model profile for the cache (outside)"; value = ms (fun l -> l.profile); unit = "ms" };
            { label = "  warm checkouts: graph rebuild + fingerprint (outside)"; value = ms (fun l -> l.rebuild); unit = "ms" };
            { label = "  create-context spans"; value = context_ms; unit = "ms" };
            { label = "  compile pass rows"; value = compile_ms; unit = "ms" };
            { label = "  residue: cache bookkeeping, allocation and GC"; value = prewarm_ms -. named; unit = "ms" };
            { label = "codec encode (outside, not on the prewarm path)"; value = ms (fun l -> l.encode); unit = "ms" };
            { label = "cold prewarm (untimed store write)"; value = Common.ms cold_s; unit = "ms" };
            { label = "traced latency-class p50 at step 1"; value = q traced 0.5; unit = "ms" };
            { label = "untraced latency-class p50 at step 1, same schedule"; value = q plain 0.5; unit = "ms" };
          ];
        if Layers.dropped layers > 0 then Common.fail r 1 "trace records dropped"
      end;
      r)
