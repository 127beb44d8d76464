(* Multi-tenant zoo serving: SLO-class scheduling and the persistent
   plan store.

   Scheduler level (driven directly, no worker domains, so dispatch
   order is fully observable and deterministic):
   - EDF across latency-class models: the earlier absolute deadline
     dispatches first regardless of submission order;
   - strict class priority: Latency > Throughput > Best_effort;
   - the fair-share floor: under a strict-priority backlog, every
     floor-period-th dispatch goes to the least-served model, so
     best-effort completes work while higher classes are still queued
     (and floor_picks counts it);
   - admission-time expiry: a request whose deadline is already past is
     refused as [Deadline_exceeded] at submit - counted under
     [shed_admission], never queued, never producing an outcome;
   - dispatch-time shedding: a queued request whose deadline passes
     while it waits resolves [Overloaded Deadline_exceeded], and the
     live request behind it dispatches;
   - the batching hold: a partial batch is held for one measured
     service time of its model (below the max wait), a model with no
     measured batch dispatches at once, and a failed batch leaves the
     hold as it was;
   - displacement shedding: a full queue evicts its newest
     strictly-lower-class entry (completed [Overloaded Displaced]) to
     admit a higher-class arrival, and never displaces an equal class;
   - one rule without classes: with no SLOs every model is
     best-effort, so picks are oldest head first with no floor and no
     displacement; equal timestamps dispatch in admission (id) order;
     two models of one class get no floor either;
   - per-class accounts sum to the scheduler's totals across
     admission, refusal, displacement and late completion;
   - monotonic stamps: a request stamped with [Clock.now_us] and a
     one-second deadline is admitted and dispatched, because the
     scheduler reads the same clock;
   - first-wins keeps no per-request state: a second completion is a
     counted duplicate that delivers nothing, and 100k completed and
     awaited requests leave the live heap where it was.

   Zoo level (one worker domain, a cheap batchable builder):
   - traffic is refused before prewarm;
   - per-class accounting sums to the outcomes observed;
   - invalid scheduler and server configs (no worker domain included)
     are refused before any fd is opened, and a zoo whose plan store
     cannot open starts no server (no domain leaks);
   - the plan store round-trips across zoo restarts: cold prewarm
     compiles and saves, warm prewarm loads everything and compiles
     nothing, the warm run rewrites no store file, and the served
     outputs are bit-identical either way;
   - the bit-identity gate: --verify-plans accepts an intact store
     (all loaded plans verified) and a corrupted store file is
     rejected and recompiled without the zoo missing a request. *)

open Astitch_ir
open Astitch_tensor
open Astitch_serve

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Scheduler-level fixtures --------------------------------------------- *)

let next_id = ref 0

let mk_req ?deadline_us ~model () =
  incr next_id;
  let now = Astitch_obs.Clock.now_us () in
  {
    Request.id = !next_id;
    model;
    params = [];
    submitted_us = now;
    deadline_us = Option.map (fun d -> now +. d) deadline_us;
    attempts = 0;
    trace = Astitch_obs.Trace.new_context ();
    dispatched_us = 0.;
    resolved = false;
  }

let done_outcome =
  Request.Done { outputs = []; latency_us = 0.; batch = 1; degraded = false }

(* One-request batches + zero batching window: each [next_batch] call
   returns exactly the scheduler's next pick. *)
let mk_sched ?(queue_depth = 16) ?(fair_share_floor = 0.) ~slos () =
  Scheduler.create ~slos ~fair_share_floor
    ~policy:(Batcher.policy ~max_batch:1 ~max_wait_us:0.)
    ~queue_depth ()

let submit_ok s req =
  match Scheduler.submit s req with
  | Ok () -> ()
  | Error o ->
      Alcotest.failf "submit refused: %s" (Request.overload_to_string o)

(* Drain [n] picks, completing each, returning the model order. *)
let pick_models s n =
  List.init n (fun _ ->
      match Scheduler.next_batch s with
      | None -> Alcotest.fail "scheduler shut down mid-test"
      | Some b ->
          List.iter (fun r -> Scheduler.complete s r done_outcome) b.requests;
          b.Scheduler.model)

let test_edf_across_latency_models () =
  let s =
    mk_sched
      ~slos:
        [
          ("A", Slo.Latency { deadline_us = 1e9 });
          ("B", Slo.Latency { deadline_us = 1e9 });
        ]
      ()
  in
  (* A submitted first but with the later absolute deadline *)
  submit_ok s (mk_req ~model:"A" ~deadline_us:10_000_000. ());
  submit_ok s (mk_req ~model:"B" ~deadline_us:1_000_000. ());
  Alcotest.(check (list string))
    "earliest deadline first" [ "B"; "A" ] (pick_models s 2);
  Scheduler.shutdown s;
  Scheduler.dispose s

let test_strict_class_priority () =
  let s =
    mk_sched
      ~slos:
        [
          ("L", Slo.Latency { deadline_us = 1e9 });
          ("T", Slo.Throughput);
          ("E", Slo.Best_effort);
        ]
      ()
  in
  (* submitted in reverse priority order *)
  submit_ok s (mk_req ~model:"E" ());
  submit_ok s (mk_req ~model:"T" ());
  submit_ok s (mk_req ~model:"L" ~deadline_us:1e9 ());
  Alcotest.(check (list string))
    "latency > throughput > best-effort" [ "L"; "T"; "E" ] (pick_models s 3);
  Scheduler.shutdown s;
  Scheduler.dispose s

let test_fair_share_floor () =
  let s =
    mk_sched ~fair_share_floor:0.5
      ~slos:[ ("L", Slo.Latency { deadline_us = 1e9 }); ("E", Slo.Best_effort) ]
      ()
  in
  List.iter
    (fun _ -> submit_ok s (mk_req ~model:"L" ~deadline_us:1e9 ()))
    (List.init 6 Fun.id);
  submit_ok s (mk_req ~model:"E" ());
  submit_ok s (mk_req ~model:"E" ());
  let order = pick_models s 8 in
  (* floor period 2: every second dispatch goes to the least-served
     model, so both E requests complete while L is still backlogged *)
  Alcotest.(check (list string))
    "floor interleaves best-effort under a latency backlog"
    [ "L"; "E"; "L"; "E"; "L"; "L"; "L"; "L" ]
    order;
  let st = Scheduler.stats s in
  (* every second dispatch is a floor turn, counted even once the floor
     pick coincides with strict priority (E drained) *)
  check_int "floor picks counted" 4 st.Scheduler.floor_picks;
  Scheduler.shutdown s;
  Scheduler.dispose s

let test_pure_strict_priority_starves () =
  (* floor 0 is the control: best-effort waits out the entire backlog *)
  let s =
    mk_sched ~fair_share_floor:0.
      ~slos:[ ("L", Slo.Latency { deadline_us = 1e9 }); ("E", Slo.Best_effort) ]
      ()
  in
  List.iter
    (fun _ -> submit_ok s (mk_req ~model:"L" ~deadline_us:1e9 ()))
    (List.init 4 Fun.id);
  submit_ok s (mk_req ~model:"E" ());
  Alcotest.(check (list string))
    "strict priority first" [ "L"; "L"; "L"; "L"; "E" ] (pick_models s 5);
  check_int "no floor picks" 0 (Scheduler.stats s).Scheduler.floor_picks;
  Scheduler.shutdown s;
  Scheduler.dispose s

let test_admission_expiry_refused () =
  List.iter
    (fun slos ->
      let s = mk_sched ~slos () in
      let req = mk_req ~model:"L" ~deadline_us:(-1000.) () in
      (match Scheduler.submit s req with
      | Error Request.Deadline_exceeded -> ()
      | Error o ->
          Alcotest.failf "wrong refusal: %s" (Request.overload_to_string o)
      | Ok () -> Alcotest.fail "expired request admitted");
      let st = Scheduler.stats s in
      check_int "counted under shed_admission" 1 st.Scheduler.shed_admission;
      check_int "counted under rejected" 1 st.Scheduler.rejected;
      check_int "never admitted" 0 st.Scheduler.submitted;
      check_int "nothing outstanding" 0 (Scheduler.outstanding s);
      Scheduler.shutdown s;
      Scheduler.dispose s)
    (* the admission-time check applies without SLO classes too *)
    [ [ ("L", Slo.Latency { deadline_us = 1e9 }) ]; [] ]

(* Queued past its deadline: the request is spun past it (no sleep),
   and the next pick sheds it and dispatches the live request behind. *)
let test_deadline_shedding () =
  let s = mk_sched ~slos:[] () in
  let doomed = mk_req ~model:"A" ~deadline_us:2_000. () in
  let live = mk_req ~model:"A" () in
  submit_ok s doomed;
  submit_ok s live;
  let deadline = Option.get doomed.Request.deadline_us in
  while Astitch_obs.Clock.now_us () <= deadline do
    ()
  done;
  (match Scheduler.next_batch s with
  | Some { Scheduler.requests = [ r ]; _ } when r == live ->
      Scheduler.complete s r done_outcome
  | _ -> Alcotest.fail "next_batch must return the live request");
  (match Scheduler.poll s doomed.Request.id with
  | Some (Request.Overloaded Request.Deadline_exceeded) -> ()
  | _ -> Alcotest.fail "the expired request must resolve Deadline_exceeded");
  check_int "shed once" 1 (Scheduler.stats s).Scheduler.shed;
  Scheduler.shutdown s;
  Scheduler.dispose s

(* --- The batching hold ----------------------------------------------------- *)

(* Partial batches (max_batch 8) under a one-second max wait. *)
let hold_max_wait_us = 1e6

let mk_hold_sched () =
  Scheduler.create
    ~policy:(Batcher.policy ~max_batch:8 ~max_wait_us:hold_max_wait_us)
    ~queue_depth:16 ()

(* Submit one request for [model] and dispatch it alone; its wait from
   submission to dispatch. *)
let lone_wait s ~model =
  let req = mk_req ~model () in
  submit_ok s req;
  match Scheduler.next_batch s with
  | Some { Scheduler.requests = [ r ]; _ } when r == req ->
      Scheduler.complete s r done_outcome;
      req.dispatched_us -. req.submitted_us
  | _ -> Alcotest.fail "expected the lone request alone"

let test_hold_one_service_time () =
  let s = mk_hold_sched () in
  Scheduler.note_batch_result s ~model:"A" ~ok:true ~service_us:2_000.;
  let w = lone_wait s ~model:"A" in
  check_bool
    (Printf.sprintf "held one service time, below the max wait (%.0f us)" w)
    true
    (w >= 2_000. && w < hold_max_wait_us);
  Scheduler.shutdown s;
  Scheduler.dispose s

let test_unmeasured_dispatches_at_once () =
  let s = mk_hold_sched () in
  (* another model's hold is not this one's *)
  Scheduler.note_batch_result s ~model:"A" ~ok:true
    ~service_us:hold_max_wait_us;
  let w = lone_wait s ~model:"B" in
  check_bool
    (Printf.sprintf "no measured batch: dispatched at once (%.0f us)" w)
    true
    (w < hold_max_wait_us /. 2.);
  Scheduler.shutdown s;
  Scheduler.dispose s

let test_failed_batch_keeps_hold () =
  let s = mk_hold_sched () in
  Scheduler.note_batch_result s ~model:"A" ~ok:true ~service_us:2_000.;
  Scheduler.note_batch_result s ~model:"A" ~ok:false
    ~service_us:(hold_max_wait_us /. 2.);
  let w = lone_wait s ~model:"A" in
  check_bool
    (Printf.sprintf "the successful batch's hold stands (%.0f us)" w)
    true
    (w >= 2_000. && w < hold_max_wait_us /. 2.);
  Scheduler.shutdown s;
  Scheduler.dispose s

let test_displacement () =
  let s =
    mk_sched ~queue_depth:2
      ~slos:[ ("L", Slo.Latency { deadline_us = 1e9 }); ("E", Slo.Best_effort) ]
      ()
  in
  let e1 = mk_req ~model:"E" () in
  let e2 = mk_req ~model:"E" () in
  submit_ok s e1;
  submit_ok s e2;
  (* equal class cannot displace: a third E is a plain refusal *)
  (match Scheduler.submit s (mk_req ~model:"E" ()) with
  | Error Request.Queue_full -> ()
  | Error o -> Alcotest.failf "wrong refusal: %s" (Request.overload_to_string o)
  | Ok () -> Alcotest.fail "over-depth equal-class admitted");
  (* a latency arrival displaces the NEWEST best-effort entry *)
  let l1 = mk_req ~model:"L" ~deadline_us:1e9 () in
  submit_ok s l1;
  (match Scheduler.await s e2.Request.id with
  | Request.Overloaded Request.Displaced -> ()
  | o ->
      Alcotest.failf "displaced request got %s"
        (match o with
        | Request.Done _ -> "Done"
        | Request.Failed m -> "Failed " ^ m
        | Request.Overloaded o -> Request.overload_to_string o));
  check_int "displacement counted" 1 (Scheduler.stats s).Scheduler.displaced;
  (* dispatch order after displacement: the latency request, then the
     surviving oldest best-effort *)
  Alcotest.(check (list string)) "L then e1" [ "L"; "E" ] (pick_models s 2);
  (match Scheduler.await s e1.Request.id with
  | Request.Done _ -> ()
  | _ -> Alcotest.fail "e1 not served");
  (match Scheduler.await s l1.Request.id with
  | Request.Done _ -> ()
  | _ -> Alcotest.fail "l1 not served");
  Scheduler.shutdown s;
  Scheduler.dispose s

let test_no_slos_one_class () =
  (* without slos every model is best-effort: picks are the oldest head
     across models, and one class leaves the floor nothing to do *)
  let s = mk_sched ~fair_share_floor:0.5 ~slos:[] () in
  submit_ok s (mk_req ~model:"E" ());
  submit_ok s (mk_req ~model:"T" ());
  submit_ok s (mk_req ~model:"L" ());
  Alcotest.(check (list string))
    "submission order" [ "E"; "T"; "L" ] (pick_models s 3);
  let st = Scheduler.stats s in
  check_int "no floor picks with one class" 0 st.Scheduler.floor_picks;
  check_int "no displacement with one class" 0 st.Scheduler.displaced;
  Scheduler.shutdown s;
  Scheduler.dispose s

let test_equal_timestamps_id_order () =
  let s = mk_sched ~slos:[] () in
  let at = Astitch_obs.Clock.now_us () in
  (* ids ascend C, A, B: neither name order nor hash order *)
  List.iter
    (fun model ->
      submit_ok s { (mk_req ~model ()) with Request.submitted_us = at })
    [ "C"; "A"; "B" ];
  Alcotest.(check (list string))
    "admission order" [ "C"; "A"; "B" ] (pick_models s 3);
  Scheduler.shutdown s;
  Scheduler.dispose s

let test_one_class_no_floor () =
  let s =
    mk_sched ~fair_share_floor:0.5
      ~slos:[ ("A", Slo.Throughput); ("B", Slo.Throughput) ]
      ()
  in
  List.iter (fun model -> submit_ok s (mk_req ~model ())) [ "A"; "A"; "A"; "B" ];
  Alcotest.(check (list string))
    "oldest head first" [ "A"; "A"; "A"; "B" ] (pick_models s 4);
  check_int "no floor within one class" 0
    (Scheduler.stats s).Scheduler.floor_picks;
  Scheduler.shutdown s;
  Scheduler.dispose s

let test_class_accounts_sum () =
  let s =
    mk_sched ~queue_depth:2
      ~slos:[ ("L", Slo.Latency { deadline_us = 1e9 }); ("E", Slo.Best_effort) ]
      ()
  in
  let refused req expect =
    match Scheduler.submit s req with
    | Error o when o = expect -> ()
    | Error o -> Alcotest.failf "wrong refusal: %s" (Request.overload_to_string o)
    | Ok () -> Alcotest.fail "request admitted"
  in
  let next () =
    match Scheduler.next_batch s with
    | Some { Scheduler.requests = [ r ]; _ } -> r
    | _ -> Alcotest.fail "expected a one-request batch"
  in
  (* E: two admitted, one refused on a full queue *)
  submit_ok s (mk_req ~model:"E" ());
  submit_ok s (mk_req ~model:"E" ());
  refused (mk_req ~model:"E" ()) Request.Queue_full;
  (* L: one admitted by displacing the newest E, one dead on arrival *)
  submit_ok s (mk_req ~model:"L" ~deadline_us:1e9 ());
  refused (mk_req ~model:"L" ~deadline_us:(-1000.) ()) Request.Deadline_exceeded;
  (* L completes after its deadline, E completes, a later E fails *)
  let late = next () in
  Scheduler.complete s late
    (Request.Done
       { outputs = []; latency_us = 2e9; batch = 1; degraded = false });
  Scheduler.complete s (next ()) done_outcome;
  submit_ok s (mk_req ~model:"E" ());
  Scheduler.complete s (next ()) (Request.Failed "boom");
  let rows = Scheduler.class_stats s in
  Alcotest.(check (list string))
    "one row per class seen, in rank order" [ "latency"; "best-effort" ]
    (List.map (fun (c : Scheduler.class_stats) -> c.cls) rows);
  let row (c : Scheduler.class_stats) =
    [ c.submitted; c.rejected; c.completed; c.shed; c.failed; c.deadline_met ]
  in
  let ints = Alcotest.(list int) in
  Alcotest.check ints "latency: sub rej done shed fail met" [ 1; 1; 1; 0; 0; 0 ]
    (row (List.nth rows 0));
  Alcotest.check ints "best-effort: sub rej done shed fail met"
    [ 3; 1; 1; 1; 1; 1 ]
    (row (List.nth rows 1));
  Alcotest.(check (float 0.)) "exact latency mean" 2e9 (List.nth rows 0).mean_us;
  let st = Scheduler.stats s in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 rows in
  Alcotest.check ints "class sums = scheduler totals"
    [
      st.Scheduler.submitted;
      st.Scheduler.rejected;
      st.Scheduler.shed;
      st.Scheduler.completed;
      st.Scheduler.failed;
    ]
    (List.map sum
       [
         (fun (c : Scheduler.class_stats) -> c.submitted);
         (fun c -> c.rejected);
         (fun c -> c.shed);
         (fun c -> c.completed);
         (fun c -> c.failed);
       ]);
  check_int "one displacement" 1 st.Scheduler.displaced;
  check_int "one refusal at admission" 1 st.Scheduler.shed_admission;
  Scheduler.shutdown s;
  Scheduler.dispose s

let test_monotonic_stamps () =
  let s = mk_sched ~slos:[] () in
  let req = mk_req ~model:"E" ~deadline_us:1e6 () in
  submit_ok s req;
  (match Scheduler.next_batch s with
  | Some { Scheduler.requests = [ r ]; _ } ->
      check_int "the stamped request dispatched" req.Request.id r.Request.id
  | _ -> Alcotest.fail "expected a one-request batch");
  let st = Scheduler.stats s in
  check_int "nothing refused" 0 st.Scheduler.rejected;
  check_int "nothing shed" 0 st.Scheduler.shed;
  Scheduler.shutdown s;
  Scheduler.dispose s

let test_first_wins_no_per_request_state () =
  let s = mk_sched ~slos:[] () in
  let cycle () =
    let req = mk_req ~model:"E" () in
    submit_ok s req;
    (match Scheduler.next_batch s with
    | Some { Scheduler.requests; _ } ->
        List.iter (fun r -> Scheduler.complete s r done_outcome) requests
    | None -> Alcotest.fail "scheduler shut down mid-test");
    req
  in
  (* a wedge-steal's late completion: counted, never delivered *)
  let req = cycle () in
  Scheduler.complete s req (Request.Failed "late duplicate");
  (match Scheduler.await s req.Request.id with
  | Request.Done _ -> ()
  | _ -> Alcotest.fail "the first outcome must be the one delivered");
  check_bool "no second outcome" true (Scheduler.poll s req.Request.id = None);
  let st = Scheduler.stats s in
  check_int "one duplicate" 1 st.Scheduler.duplicates;
  check_int "one completion" 1 st.Scheduler.completed;
  check_int "nothing failed" 0 st.Scheduler.failed;
  check_int "nothing outstanding" 0 (Scheduler.outstanding s);
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  for _ = 1 to 100_000 do
    ignore (Scheduler.await s (cycle ()).Request.id)
  done;
  let grown = live () - before in
  check_bool
    (Printf.sprintf "live heap grew %d words over 100k requests" grown)
    true (grown < 50_000);
  Scheduler.shutdown s;
  Scheduler.dispose s

(* --- Zoo level ------------------------------------------------------------- *)

(* The cheap batchable fixture: dense layer + softmax over shared
   weights, per-request rows. *)
let mlp_build ~batch =
  let k = 6 in
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ batch; k ] in
  let w = Builder.parameter b "w" [ k; k ] in
  let h = Builder.dot b x w in
  let out = Builder.softmax b (Builder.gelu b h) in
  Builder.finish b ~outputs:[ out ]

let mlp2_build ~batch =
  let k = 5 in
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ batch; k ] in
  let w = Builder.parameter b "w" [ k; k ] in
  let out = Builder.tanh b (Builder.dot b x w) in
  Builder.finish b ~outputs:[ out ]

let registrations =
  [
    ({ Serve.name = "mlp"; build = mlp_build }, Slo.Latency { deadline_us = 1e8 });
    ({ Serve.name = "mlp2"; build = mlp2_build }, Slo.Best_effort);
  ]

let zoo_config ?plan_dir ?(verify_plans = false) ?(workers = 1) () =
  {
    Zoo.serve =
      { Serve.default_config with workers; max_batch = 4; queue_depth = 32 };
    plan_dir;
    verify_plans;
  }

let with_store_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "astitch-test-zoo-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun x ->
             try Sys.remove (Filename.concat dir x) with Sys_error _ -> ())
           (Sys.readdir dir);
         Unix.rmdir dir
       with Sys_error _ | Unix.Unix_error _ -> ()))
    (fun () -> f dir)

let test_refuses_traffic_before_prewarm () =
  let zoo = Zoo.create ~config:(zoo_config ()) registrations in
  (match
     Zoo.submit_async zoo ~model:"mlp"
       ~params:(Serve.random_request (Zoo.server zoo) ~model:"mlp" ~seed:1)
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zoo accepted traffic before prewarm");
  Zoo.shutdown zoo

let run_some zoo n =
  let outs = ref [] in
  for i = 1 to n do
    let model = if i mod 3 = 0 then "mlp2" else "mlp" in
    let params = Serve.random_request (Zoo.server zoo) ~model ~seed:i in
    match Zoo.submit zoo ~model ~params with
    | Request.Done { outputs; _ } -> outs := (model, i, outputs) :: !outs
    | Request.Failed m -> Alcotest.failf "request %d failed: %s" i m
    | Request.Overloaded o ->
        Alcotest.failf "request %d shed: %s" i (Request.overload_to_string o)
  done;
  List.rev !outs

let test_class_accounting () =
  let zoo = Zoo.create ~config:(zoo_config ()) registrations in
  ignore (Zoo.prewarm zoo);
  ignore (run_some zoo 9);
  let stats = Zoo.class_stats zoo in
  let find c =
    match
      List.find_opt (fun (r : Scheduler.class_stats) -> r.Scheduler.cls = c) stats
    with
    | Some r -> r
    | None -> Alcotest.failf "class %s missing from stats" c
  in
  let lat = find "latency" and be = find "best-effort" in
  check_int "latency submitted" 6 lat.Scheduler.submitted;
  check_int "latency completed" 6 lat.Scheduler.completed;
  check_int "latency deadline met (generous deadline)" 6
    lat.Scheduler.deadline_met;
  check_int "best-effort submitted" 3 be.Scheduler.submitted;
  check_int "best-effort completed" 3 be.Scheduler.completed;
  check_bool "latency p99 recorded" true (lat.Scheduler.p99_us > 0.);
  Zoo.shutdown zoo

(* Every store file's name, inode and bytes: equal snapshots mean no
   file was rewritten, not even with identical contents. *)
let store_snapshot dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f ->
         let path = Filename.concat dir f in
         ( f,
           (Unix.stat path).Unix.st_ino,
           In_channel.with_open_bin path In_channel.input_all ))

let test_store_roundtrip_across_restart () =
  with_store_dir (fun dir ->
      (* cold zoo: compiles, saves, serves *)
      let cold = Zoo.create ~config:(zoo_config ~plan_dir:dir ()) registrations in
      let p1 = Zoo.prewarm cold in
      check_bool "cold run compiled" true (p1.Zoo.compiled > 0);
      check_int "cold run saved every compile" p1.Zoo.compiled p1.Zoo.saved;
      check_int "cold run loaded nothing" 0 p1.Zoo.loaded;
      let cold_outs = run_some cold 6 in
      Zoo.shutdown cold;
      let stored = store_snapshot dir in
      (* warm zoo against the same directory: loads, compiles nothing *)
      let warm = Zoo.create ~config:(zoo_config ~plan_dir:dir ()) registrations in
      let p2 = Zoo.prewarm warm in
      check_int "warm restart compiles nothing" 0 p2.Zoo.compiled;
      check_int "warm restart loads every plan" p1.Zoo.saved p2.Zoo.loaded;
      check_int "warm restart rejects nothing" 0 p2.Zoo.rejected;
      let warm_outs = run_some warm 6 in
      Zoo.shutdown warm;
      (* prewarm is the store's only writer: the warm run rewrote nothing *)
      check_int "one file per saved plan" p1.Zoo.saved (List.length stored);
      check_bool "store files keep their inodes and bytes" true
        (store_snapshot dir = stored);
      (* store-served plans answer bit-identically to fresh compiles *)
      List.iter2
        (fun (m1, i1, o1) (m2, i2, o2) ->
          check_bool "same request" true (m1 = m2 && i1 = i2);
          check_bool
            (Printf.sprintf "request %d bit-identical across restart" i1)
            true
            (List.for_all2 Tensor.equal_bits o1 o2))
        cold_outs warm_outs)

let test_verify_gate_accepts_intact_store () =
  with_store_dir (fun dir ->
      let cold = Zoo.create ~config:(zoo_config ~plan_dir:dir ()) registrations in
      let p1 = Zoo.prewarm cold in
      Zoo.shutdown cold;
      let v =
        Zoo.create
          ~config:(zoo_config ~plan_dir:dir ~verify_plans:true ())
          registrations
      in
      let p2 = Zoo.prewarm v in
      check_int "every loaded plan passes the gate" p1.Zoo.saved p2.Zoo.verified;
      check_int "gate rejects nothing" 0 p2.Zoo.rejected;
      ignore (run_some v 3);
      Zoo.shutdown v)

let test_corrupted_store_file_recompiled () =
  with_store_dir (fun dir ->
      let cold = Zoo.create ~config:(zoo_config ~plan_dir:dir ()) registrations in
      let p1 = Zoo.prewarm cold in
      Zoo.shutdown cold;
      (* flip one payload byte in one stored plan *)
      let victim =
        match Sys.readdir dir with
        | [||] -> Alcotest.fail "store is empty"
        | files -> Filename.concat dir files.(0)
      in
      let bytes =
        let ic = open_in_bin victim in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      let b = Bytes.of_string bytes in
      Bytes.set b 24 (Char.chr (Char.code (Bytes.get b 24) lxor 0x01));
      let oc = open_out_bin victim in
      output_bytes oc b;
      close_out oc;
      (* the damaged plan is rejected and recompiled; the rest load *)
      let warm = Zoo.create ~config:(zoo_config ~plan_dir:dir ()) registrations in
      let p2 = Zoo.prewarm warm in
      check_int "one plan rejected" 1 p2.Zoo.rejected;
      check_int "one plan recompiled" 1 p2.Zoo.compiled;
      check_int "the rest loaded" (p1.Zoo.saved - 1) p2.Zoo.loaded;
      (* and serving is unaffected *)
      ignore (run_some warm 6);
      Zoo.shutdown warm)

(* Open fds of this process, where /proc says; [None] elsewhere. *)
let open_fds () =
  if Sys.file_exists "/proc/self/fd" then
    Some (Array.length (Sys.readdir "/proc/self/fd"))
  else None

let test_invalid_configs_leak_no_fd () =
  let before = open_fds () in
  let refuses f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "invalid config accepted"
  in
  for _ = 1 to 100 do
    refuses (fun () -> mk_sched ~fair_share_floor:0.9 ~slos:[] ());
    refuses (fun () -> mk_sched ~queue_depth:0 ~slos:[] ())
  done;
  for _ = 1 to 100 do
    refuses (fun () ->
        Serve.create
          ~config:{ Serve.default_config with workers = 2; retry_budget = -1 }
          [ fst (List.hd registrations) ]);
    refuses (fun () ->
        Serve.create
          ~config:{ Serve.default_config with workers = 0 }
          [ fst (List.hd registrations) ])
  done;
  match (before, open_fds ()) with
  | Some b, Some a -> check_int "open fds unchanged" b a
  | _ -> ()

let test_bad_plan_dir_starts_no_server () =
  let file = Filename.temp_file "astitch-test-zoo" ".notadir" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      for _ = 1 to 60 do
        match
          Zoo.create
            ~config:(zoo_config ~plan_dir:file ~workers:2 ())
            registrations
        with
        | exception Sys_error _ -> ()
        | zoo ->
            Zoo.shutdown zoo;
            Alcotest.fail "a file accepted as plan dir"
      done);
  (* no domain leaked: a 2-worker zoo still starts and serves *)
  let zoo = Zoo.create ~config:(zoo_config ~workers:2 ()) registrations in
  ignore (Zoo.prewarm zoo);
  check_int "served" 3 (List.length (run_some zoo 3));
  Zoo.shutdown zoo

let test_prewarm_idempotent () =
  let zoo = Zoo.create ~config:(zoo_config ()) registrations in
  let p1 = Zoo.prewarm zoo in
  let p2 = Zoo.prewarm zoo in
  check_bool "second prewarm is the memo" true (p1 = p2);
  Zoo.shutdown zoo

let () =
  Alcotest.run "zoo"
    [
      ( "scheduler",
        [
          Alcotest.test_case "EDF across latency models" `Quick
            test_edf_across_latency_models;
          Alcotest.test_case "strict class priority" `Quick
            test_strict_class_priority;
          Alcotest.test_case "fair-share floor" `Quick test_fair_share_floor;
          Alcotest.test_case "floor 0 = pure strict priority" `Quick
            test_pure_strict_priority_starves;
          Alcotest.test_case "expired deadlines refused at admission" `Quick
            test_admission_expiry_refused;
          Alcotest.test_case "deadline shedding" `Quick test_deadline_shedding;
          Alcotest.test_case "displacement shedding" `Quick test_displacement;
          Alcotest.test_case "hold: one measured service time" `Quick
            test_hold_one_service_time;
          Alcotest.test_case "hold: unmeasured model dispatches at once" `Quick
            test_unmeasured_dispatches_at_once;
          Alcotest.test_case "hold: a failed batch leaves it" `Quick
            test_failed_batch_keeps_hold;
          Alcotest.test_case "no SLOs: one best-effort class" `Quick
            test_no_slos_one_class;
          Alcotest.test_case "equal timestamps dispatch in id order" `Quick
            test_equal_timestamps_id_order;
          Alcotest.test_case "one class: oldest head, no floor" `Quick
            test_one_class_no_floor;
          Alcotest.test_case "per-class accounts sum to the scheduler totals"
            `Quick test_class_accounts_sum;
          Alcotest.test_case "monotonic stamps" `Quick test_monotonic_stamps;
          Alcotest.test_case "first-wins keeps no per-request state" `Quick
            test_first_wins_no_per_request_state;
        ] );
      ( "zoo",
        [
          Alcotest.test_case "refuses traffic before prewarm" `Quick
            test_refuses_traffic_before_prewarm;
          Alcotest.test_case "per-class accounting" `Quick
            test_class_accounting;
          Alcotest.test_case "plan store round-trip across restart" `Quick
            test_store_roundtrip_across_restart;
          Alcotest.test_case "bit-identity gate accepts intact store" `Quick
            test_verify_gate_accepts_intact_store;
          Alcotest.test_case "corrupted store file rejected + recompiled"
            `Quick test_corrupted_store_file_recompiled;
          Alcotest.test_case "prewarm idempotent" `Quick test_prewarm_idempotent;
          Alcotest.test_case "invalid configs leak no fd" `Quick
            test_invalid_configs_leak_no_fd;
          Alcotest.test_case "bad plan dir starts no server" `Quick
            test_bad_plan_dir_starts_no_server;
        ] );
    ]
