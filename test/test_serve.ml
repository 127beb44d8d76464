(* The batched serving runtime.

   The load-bearing claims, each tested directly:
   - [Batching.analyze] classifies per-request vs shared parameters and
     batch-carrying vs invariant outputs, and rejects builders that do
     not scale exactly one axis, and [Serve.create] refuses one that
     moves the batch axis inward;
   - pack/unpack is lossless at ANY batch size (primes included), and
     batch-invariant outputs are copied whole to every request;
   - symbolic batch extents: one plan compiled at max_batch rebinds to
     every smaller size bit-identically to a fresh fixed-extent
     compile (unit, zoo, and a qcheck property on random graphs);
   - continuous batching end-to-end: odd-size bursts dispatch at
     exactly their request count on one shape-polymorphic context -
     zero padded rows, one plan compile - and a queue that reaches
     max_batch wakes the worker without waiting out the window;
   - THE serving invariant: batched execution at exactly the request
     count is bit-identical to running every request alone - as a unit
     test on hand builders and every zoo workload at batch {1,3,8}, and
     as a qcheck property over random row-independent builders and
     random request counts;
   - the server end-to-end: all submitted requests come back [Done]
     with solo-identical outputs; every zoo model serves every batch
     size off its one warmed context without a compile; a model whose
     max-batch context cannot rebind keeps serving on it, padding each
     batch to max_batch, and stays bit-identical at every size;
     admission control refuses past the queue bound with a structured
     [Overloaded] and sheds expired requests as [Deadline_exceeded]
     (counted in [stats.shed]); a poisoned request fails alone without
     taking down its batchmates or the server;
   - the batcher policy's dispatch algebra;
   - the plan cache stays coherent when hammered from many domains. *)

open Astitch_ir
open Astitch_tensor
open Astitch_simt
open Astitch_plan
open Astitch_runtime
open Astitch_serve

module Fault = Fault_site

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_outputs_identical what expected got =
  check_int (what ^ ": output arity") (List.length expected) (List.length got);
  List.iteri
    (fun i (e, g) ->
      check_bool (Printf.sprintf "%s: output %d bit-identical" what i) true
        (Tensor.equal_bits e g))
    (List.combine expected got)

(* --- Fixture builders ---------------------------------------------------- *)

(* The canonical batchable family: per-request rows through a dense
   layer, softmax, layer norm - plus a batch-invariant second output
   derived only from the shared weights. *)
let mlp_build ~batch =
  let k = 6 in
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ batch; k ] in
  let w = Builder.parameter b "w" [ k; k ] in
  let bias = Builder.parameter b "bias" [ k ] in
  let gamma = Builder.parameter b "gamma" [ k ] in
  let beta = Builder.parameter b "beta" [ k ] in
  let h =
    Builder.add b (Builder.dot b x w)
      (Builder.broadcast b bias ~dims:[ 1 ] [ batch; k ])
  in
  let h = Builder.gelu b h in
  let h = Builder.layer_norm b h ~gamma ~beta in
  let out = Builder.softmax b h in
  let aux = Builder.tanh b w in
  Builder.finish b ~outputs:[ out; aux ]

(* Scales two axes with the batch: must be rejected. *)
let two_axis_build ~batch =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ batch; batch + 1 ] in
  Builder.finish b ~outputs:[ Builder.tanh b x ]

(* Moves the batch axis inward between batch-major input and output, as
   a timestep-major token layout does: a plan compiled at max_batch
   cannot serve a prefix of it. *)
let inward_axis_build ~batch =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ batch; 3 ] in
  let t = Builder.tanh b (Builder.transpose b x ~perm:[ 1; 0 ]) in
  Builder.finish b ~outputs:[ Builder.transpose b t ~perm:[ 1; 0 ] ]

(* No per-request parameter at all: nothing to batch. *)
let weights_only_build ~batch:_ =
  let b = Builder.create () in
  let w = Builder.parameter b "w" [ 4; 4 ] in
  Builder.finish b ~outputs:[ Builder.exp b w ]

(* A random row-independent builder family.  The op menu never mixes
   rows (elementwise, last-axis softmax, dense against shared weights,
   row-wise mean centering), so batched execution must be bit-identical
   to solo execution for any of these.  All structural choices are
   drawn before the returned closure, so every batch size builds the
   same family member. *)
let random_batchable ~seed =
  let st = Random.State.make [| seed |] in
  let k = 2 + Random.State.int st 5 in
  let depth = 1 + Random.State.int st 4 in
  let ops = List.init depth (fun _ -> Random.State.int st 6) in
  fun ~batch ->
    let b = Builder.create () in
    let x = Builder.parameter b "x" [ batch; k ] in
    let w = Builder.parameter b "w" [ k; k ] in
    let bias = Builder.parameter b "bias" [ k ] in
    let v =
      List.fold_left
        (fun v op ->
          match op with
          | 0 -> Builder.tanh b v
          | 1 -> Builder.softmax b v
          | 2 ->
              Builder.add b (Builder.dot b v w)
                (Builder.broadcast b bias ~dims:[ 1 ] [ batch; k ])
          | 3 -> Builder.gelu b v
          | 4 ->
              (* row-wise mean centering: reduce over the feature axis
                 only, never across requests *)
              let m = Builder.reduce_mean b ~axes:[ 1 ] v in
              Builder.sub b v (Builder.broadcast b m ~dims:[ 0 ] [ batch; k ])
          | _ -> Builder.sigmoid b (Builder.mul b v v))
        x ops
    in
    Builder.finish b ~outputs:[ v; Builder.exp b w ]

(* --- Batching analysis --------------------------------------------------- *)

let analyze build = Batching.analyze (fun n -> build ~batch:n) ~max_batch:8

let test_analyze_classifies () =
  let spec = analyze mlp_build in
  check_int "one per-request parameter" 1 (List.length spec.request_params);
  let name, info = List.hd spec.request_params in
  Alcotest.(check string) "it is x" "x" name;
  check_int "batch axis 0" 0 info.axis;
  check_int "extent 1 at batch 1" 1 info.extent;
  check_int "four shared parameters" 4 (List.length spec.shared_params);
  (match spec.outputs with
  | [ Some { axis = 0; extent = 1 }; None ] -> ()
  | _ -> Alcotest.fail "outputs misclassified");
  check_int "classified for max_batch" 8 spec.batch.Batch_axis.max_batch

let test_analyze_rejects_two_axis () =
  match analyze two_axis_build with
  | exception Batching.Not_batchable _ -> ()
  | _ -> Alcotest.fail "two-axis scaling must be rejected"

let test_analyze_rejects_weights_only () =
  match analyze weights_only_build with
  | exception Batching.Not_batchable _ -> ()
  | _ -> Alcotest.fail "builder without per-request parameters must be rejected"

let test_concat_slice_roundtrip () =
  let ts =
    List.init 5 (fun i -> Tensor.random ~seed:(100 + i) (Shape.of_list [ 2; 3; 4 ]))
  in
  List.iter
    (fun axis ->
      let cat = Batching.concat_axis ~axis ts in
      List.iteri
        (fun i t ->
          let lo = i * Shape.dim (Tensor.shape t) axis in
          let hi = lo + Shape.dim (Tensor.shape t) axis in
          check_bool
            (Printf.sprintf "axis %d part %d survives the roundtrip" axis i)
            true
            (Tensor.equal_bits t (Batching.slice_axis ~axis ~lo ~hi cat)))
        ts)
    [ 0; 1; 2 ]

let test_pack_rejects_bad_shape () =
  let spec = analyze mlp_build in
  let bad = [ ("x", Tensor.random ~seed:1 (Shape.of_list [ 1; 5 ])) ] in
  match Batching.pack spec [ bad ] with
  | exception Batching.Not_batchable _ -> ()
  | _ -> Alcotest.fail "wrong-shaped binding must be rejected"

(* Continuous batching dispatches at exactly the request count, so
   pack/unpack must be exact at ANY size - primes are the sizes a
   pow-2 bucket scheme never exercised. *)
let test_pack_unpack_primes () =
  let spec = analyze mlp_build in
  let shared = Batching.random_shared spec ~seed:31 in
  List.iter
    (fun n ->
      let reqs =
        List.init n (fun i ->
            Batching.random_request spec ~seed:((n * 100) + i))
      in
      let packed = Batching.pack spec reqs in
      let x = List.assoc "x" packed in
      check_bool
        (Printf.sprintf "batch %d packs at exactly %d rows" n n)
        true
        (Shape.equal (Tensor.shape x) (Shape.of_list [ n; 6 ]));
      let out = Interp.run (mlp_build ~batch:n) ~params:(shared @ packed) in
      let sliced = Batching.unpack spec ~count:n out in
      check_int (Printf.sprintf "batch %d unpacks %d results" n n) n
        (List.length sliced);
      (* the batch-invariant aux output (tanh of the shared weights) is
         copied whole to every request, not sliced *)
      let aux = List.nth out 1 in
      List.iteri
        (fun i outs ->
          check_bool
            (Printf.sprintf "batch %d request %d gets the invariant output" n i)
            true
            (Tensor.equal_bits aux (List.nth outs 1)))
        sliced;
      List.iteri
        (fun i req ->
          let solo = Interp.run spec.base ~params:(shared @ req) in
          check_outputs_identical
            (Printf.sprintf "prime batch %d request %d" n i)
            solo (List.nth sliced i))
        reqs)
    [ 3; 5; 7; 13 ]

(* --- Bit-identity -------------------------------------------------------- *)

(* Run [count] requests through the batched graph at exactly [count]
   rows and compare every slice against solo batch-1 interpretation.
   Pure interpreter - no compiler in the loop - so a failure here
   indicts the batching transform itself. *)
let assert_bit_identity ~what build ~count =
  let spec = analyze build in
  let shared = Batching.random_shared spec ~seed:999 in
  let reqs = List.init count (fun i -> Batching.random_request spec ~seed:i) in
  let packed = Batching.pack spec reqs in
  let batched_out = Interp.run (build ~batch:count) ~params:(shared @ packed) in
  let sliced = Batching.unpack spec ~count batched_out in
  List.iteri
    (fun i req ->
      let solo = Interp.run spec.base ~params:(shared @ req) in
      check_outputs_identical
        (Printf.sprintf "%s request %d/%d" what i count)
        solo (List.nth sliced i))
    reqs

let test_bit_identity_mlp () =
  assert_bit_identity ~what:"mlp" mlp_build ~count:4;
  assert_bit_identity ~what:"mlp solo" mlp_build ~count:1

let prop_bit_identity_random =
  QCheck2.Test.make ~name:"random row-independent builders are batchable"
    ~count:40
    QCheck2.Gen.(pair (int_range 0 5_000) (int_range 1 8))
    (fun (seed, count) ->
      assert_bit_identity
        ~what:(Printf.sprintf "random(seed=%d)" seed)
        (random_batchable ~seed) ~count;
      true)

(* Every zoo workload compiles and runs through the full compiler +
   fused executor at batch {1,3,8}. *)
let test_zoo_batched_build_compile_run () =
  List.iter
    (fun (e : Astitch_workloads.Zoo.entry) ->
      List.iter
        (fun n ->
          let g = e.batched ~batch:n in
          let plan = Astitch_core.Astitch.compile Arch.v100 g in
          let params = Session.random_params g in
          let out = Astitch_runtime.Executor.run plan ~params in
          check_bool
            (Printf.sprintf "%s batch %d runs" e.name n)
            true (out <> []))
        [ 1; 3; 8 ])
    Astitch_workloads.Zoo.all

let test_zoo_batched_bit_identity () =
  List.iter
    (fun (e : Astitch_workloads.Zoo.entry) ->
      (* an odd batch, at exactly its request count *)
      let spec = analyze e.batched in
      let shared = Batching.random_shared spec ~seed:4242 in
      let reqs = List.init 3 (fun i -> Batching.random_request spec ~seed:i) in
      let packed = Batching.pack spec reqs in
      let plan3 = Astitch_core.Astitch.compile Arch.v100 (e.batched ~batch:3) in
      let batched_out =
        Astitch_runtime.Executor.run plan3 ~params:(shared @ packed)
      in
      let sliced = Batching.unpack spec ~count:3 batched_out in
      let plan1 = Astitch_core.Astitch.compile Arch.v100 spec.base in
      List.iteri
        (fun i req ->
          let solo =
            Astitch_runtime.Executor.run plan1 ~params:(shared @ req)
          in
          check_outputs_identical
            (Printf.sprintf "%s request %d of 3" e.name i)
            solo (List.nth sliced i))
        reqs)
    Astitch_workloads.Zoo.all

(* --- Symbolic batch extents ---------------------------------------------- *)

(* Classify a builder family, compile the max-batch graph once with the
   batch classification attached, and run every batch size 1..max on the
   SAME context via [~batch] - each must be bit-identical to a fresh
   fixed-extent compile at that size. *)
let assert_symbolic_rebind ~what build ~max_batch =
  let g1 = build ~batch:1 and g2 = build ~batch:2 in
  let cls =
    match Batch_axis.analyze ~g1 ~g2 with
    | Ok cls -> cls
    | Error m -> Alcotest.failf "%s: not symbolic: %s" what m
  in
  let gmax = build ~batch:max_batch in
  (match Batch_axis.validate_at cls ~base:g1 ~at:gmax ~batch:max_batch with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: classification invalid at max: %s" what m);
  let plan =
    {
      (Astitch_core.Astitch.compile Arch.v100 gmax) with
      Kernel_plan.batch = Some { Batch_axis.max_batch; cls };
    }
  in
  let ctx = Astitch_runtime.Executor.create_context plan in
  check_bool (what ^ ": context rebindable") true
    (Astitch_runtime.Executor.rebindable ctx);
  let spec = analyze build in
  let shared = Batching.random_shared spec ~seed:77 in
  for b = 1 to max_batch do
    let reqs = List.init b (fun i -> Batching.random_request spec ~seed:i) in
    let packed = Batching.pack spec reqs in
    let params = shared @ packed in
    let rebound =
      Astitch_runtime.Executor.run_context ~batch:b ctx ~params
    in
    let fresh_plan = Astitch_core.Astitch.compile Arch.v100 (build ~batch:b) in
    let fresh = Astitch_runtime.Executor.run fresh_plan ~params in
    check_outputs_identical
      (Printf.sprintf "%s batch %d rebound = fresh compile" what b)
      fresh rebound
  done

let test_symbolic_rebind_mlp () =
  assert_symbolic_rebind ~what:"mlp" mlp_build ~max_batch:8

let test_symbolic_rebind_zoo () =
  List.iter
    (fun (e : Astitch_workloads.Zoo.entry) ->
      assert_symbolic_rebind ~what:e.name e.batched ~max_batch:8)
    Astitch_workloads.Zoo.all

let prop_symbolic_rebind_random =
  QCheck2.Test.make
    ~name:"symbolic rebinding = fresh fixed-extent compile on random graphs"
    ~count:25
    QCheck2.Gen.(pair (int_range 0 5_000) (int_range 2 8))
    (fun (seed, max_batch) ->
      let build = random_batchable ~seed in
      assert_symbolic_rebind
        ~what:(Printf.sprintf "random(seed=%d)" seed)
        build ~max_batch;
      true)

(* --- Batcher policy ------------------------------------------------------ *)

let test_batcher_decisions () =
  let p = Batcher.policy ~max_batch:4 ~max_wait_us:1000. in
  let decide = Batcher.decide p in
  (* a hold longer than the window: the window is the bound *)
  let long = decide ~hold_us:1e9 in
  check_bool "empty waits" true
    (long ~pending:0 ~oldest_wait_us:1e9 ~draining:true = Batcher.Wait);
  check_bool "full batch dispatches" true
    (long ~pending:4 ~oldest_wait_us:0. ~draining:false = Batcher.Dispatch 4);
  check_bool "overfull clamps to max" true
    (long ~pending:9 ~oldest_wait_us:0. ~draining:false = Batcher.Dispatch 4);
  check_bool "window open waits" true
    (long ~pending:2 ~oldest_wait_us:500. ~draining:false = Batcher.Wait);
  check_bool "window expired dispatches partial" true
    (long ~pending:2 ~oldest_wait_us:1000. ~draining:false
    = Batcher.Dispatch 2);
  check_bool "draining flushes immediately" true
    (long ~pending:2 ~oldest_wait_us:0. ~draining:true = Batcher.Dispatch 2);
  check_bool "held for the window" true (Batcher.held_us p ~hold_us:1e9 = 1000.);
  (* a hold below the window: the hold is the wait *)
  let short = decide ~hold_us:80. in
  check_bool "hold open waits" true
    (short ~pending:2 ~oldest_wait_us:79. ~draining:false = Batcher.Wait);
  check_bool "hold expired dispatches partial" true
    (short ~pending:2 ~oldest_wait_us:80. ~draining:false = Batcher.Dispatch 2);
  check_bool "held for the hold" true (Batcher.held_us p ~hold_us:80. = 80.);
  (* no measured batch: hold 0 dispatches at once *)
  check_bool "unmeasured model dispatches at once" true
    (decide ~hold_us:0. ~pending:1 ~oldest_wait_us:0. ~draining:false
    = Batcher.Dispatch 1);
  check_bool "a full batch ignores the hold" true
    (short ~pending:4 ~oldest_wait_us:0. ~draining:false = Batcher.Dispatch 4)

(* --- The server end-to-end ----------------------------------------------- *)

let mlp_model = { Serve.name = "mlp"; build = (fun ~batch -> mlp_build ~batch) }

let serve_config ?(workers = 2) ?(max_batch = 4) ?(max_wait_us = 500.)
    ?(queue_depth = 64) () =
  {
    Serve.default_config with
    workers;
    max_batch;
    max_wait_us;
    queue_depth;
    verify_every = 3;
  }

(* Admit a whole burst under one scheduler lock: the worker sees all of
   it or none of it, so a burst stays together however fast the worker
   wakes. *)
let submit_all_ok server ~model params_list =
  List.map
    (function
      | Ok t -> t
      | Error o ->
          Alcotest.failf "%s: request refused: %s" model
            (Request.overload_to_string o))
    (Serve.submit_all server ~model params_list)

let test_serve_end_to_end () =
  let server = Serve.create ~config:(serve_config ()) [ mlp_model ] in
  Fun.protect
    ~finally:(fun () -> Serve.shutdown server)
    (fun () ->
      let spec = Serve.spec server ~model:"mlp" in
      let shared = Serve.shared_weights server ~model:"mlp" in
      let n = 24 in
      let reqs =
        List.init n (fun i -> Serve.random_request server ~model:"mlp" ~seed:i)
      in
      let tickets =
        List.map
          (fun params ->
            match Serve.submit_async server ~model:"mlp" ~params with
            | Ok t -> t
            | Error o ->
                Alcotest.failf "request refused: %s"
                  (Request.overload_to_string o))
          reqs
      in
      List.iteri
        (fun i ticket ->
          match Serve.await server ticket with
          | Request.Done { outputs; batch; degraded; latency_us } ->
              check_bool "not degraded" false degraded;
              check_bool "latency positive" true (latency_us > 0.);
              check_bool "bucket sane" true (batch >= 1 && batch <= 4);
              let solo =
                Interp.run spec.base ~params:(shared @ List.nth reqs i)
              in
              check_outputs_identical
                (Printf.sprintf "served request %d" i)
                solo outputs
          | Request.Overloaded o ->
              Alcotest.failf "request %d overloaded: %s" i
                (Request.overload_to_string o)
          | Request.Failed m -> Alcotest.failf "request %d failed: %s" i m)
        tickets;
      let s = Serve.stats server in
      check_int "all submitted" n s.submitted;
      check_int "all completed" n s.completed;
      check_int "nothing rejected" 0 s.rejected;
      check_int "nothing shed" 0 s.shed;
      check_int "nothing failed" 0 s.failed;
      check_int "nothing outstanding" 0 s.outstanding;
      check_int "no padded rows" 0 s.padded_rows;
      check_bool "batching actually happened" true (s.batches <= n))

let test_serve_weights_match_spec () =
  (* [Serve.random_request] and the server's internal shared weights are
     both deterministic; a second server with the same seed serves
     bit-identical results. *)
  let run_once () =
    let server = Serve.create ~config:(serve_config ()) [ mlp_model ] in
    Fun.protect
      ~finally:(fun () -> Serve.shutdown server)
      (fun () ->
        let params = Serve.random_request server ~model:"mlp" ~seed:5 in
        match Serve.submit server ~model:"mlp" ~params with
        | Request.Done { outputs; _ } -> outputs
        | _ -> Alcotest.fail "request did not complete")
  in
  check_outputs_identical "two servers, same seed, same answer" (run_once ())
    (run_once ())

let test_continuous_exact_batches () =
  (* Odd burst sizes, each admitted at once, through a single-worker
     server: each burst dispatches as ONE batch at exactly its request
     count.  One shape-polymorphic context serves all of them - zero
     padded rows, one plan compile, pool size 1. *)
  let config =
    serve_config ~workers:1 ~max_batch:7 ~max_wait_us:3.6e9 ()
  in
  let server = Serve.create ~config [ mlp_model ] in
  Fun.protect
    ~finally:(fun () -> Serve.shutdown server)
    (fun () ->
      check_bool "mlp is shape-polymorphic" true
        (Serve.symbolic server ~model:"mlp");
      List.iter
        (fun n ->
          let tickets =
            submit_all_ok server ~model:"mlp"
              (List.init n (fun i ->
                   Serve.random_request server ~model:"mlp"
                     ~seed:((n * 10) + i)))
          in
          Serve.drain server;
          List.iter
            (fun t ->
              match Serve.poll server t with
              | Some (Request.Done { batch; _ }) ->
                  check_int
                    (Printf.sprintf "burst of %d dispatched at exactly %d" n n)
                    n batch
              | _ -> Alcotest.failf "burst of %d: request not completed" n)
            tickets)
        [ 3; 5; 7; 1 ];
      let s = Serve.stats server in
      check_int "zero padded rows" 0 s.padded_rows;
      check_int "one plan compile for the symbolic model" 1 s.plan_compiles;
      check_int "each burst was one batch" 4 s.batches;
      match Serve.context_pool_sizes server with
      | [ ("mlp", 1) ] -> ()
      | sizes ->
          Alcotest.failf "expected one pooled context, got [%s]"
            (String.concat "; "
               (List.map (fun (m, c) -> Printf.sprintf "%s:%d" m c) sizes)))

let test_full_batch_dispatches_immediately () =
  (* An hour-long max wait, but the queue reaches max_batch: the
     submit-side wake must rouse the worker and dispatch NOW - awaits
     complete in poll-tick time, not window time. *)
  let config =
    serve_config ~workers:1 ~max_batch:4 ~max_wait_us:3.6e9 ()
  in
  let server = Serve.create ~config [ mlp_model ] in
  Fun.protect
    ~finally:(fun () -> Serve.shutdown server)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      let tickets =
        submit_all_ok server ~model:"mlp"
          (List.init 4 (fun i ->
               Serve.random_request server ~model:"mlp" ~seed:i))
      in
      List.iter
        (fun t ->
          match Serve.await server t with
          | Request.Done _ -> ()
          | _ -> Alcotest.fail "full batch must be served")
        tickets;
      let elapsed = Unix.gettimeofday () -. t0 in
      check_bool
        (Printf.sprintf "full batch served without the window (%.3fs)" elapsed)
        true (elapsed < 2.);
      let s = Serve.stats server in
      check_int "one batch of four" 1 s.batches;
      check_int "no padding" 0 s.padded_rows)

(* An hour-long max wait, one request at a time, and nobody drains: an
   idle worker never waits out the window.  The first request has no
   measured batch to wait for and dispatches at once; the next is held
   for one measured service time. *)
let test_idle_worker_dispatches () =
  let config =
    serve_config ~workers:1 ~max_batch:8 ~max_wait_us:3.6e9 ()
  in
  let server = Serve.create ~config [ mlp_model ] in
  Fun.protect
    ~finally:(fun () -> Serve.shutdown server)
    (fun () ->
      Serve.warm server;
      let served_alone seed =
        let ticket =
          match
            Serve.submit_async server ~model:"mlp"
              ~params:(Serve.random_request server ~model:"mlp" ~seed)
          with
          | Ok t -> t
          | Error _ -> Alcotest.fail "empty queue refused a request"
        in
        let t0 = Astitch_obs.Clock.now_us () in
        let rec poll () =
          match Serve.poll server ticket with
          | Some (Request.Done { batch; _ }) -> batch = 1
          | Some _ -> false
          | None ->
              Astitch_obs.Clock.now_us () -. t0 < 2e6
              && (Unix.sleepf 1e-3;
                  poll ())
        in
        poll ()
      in
      check_bool "unmeasured model: served within 2 s, not the window" true
        (served_alone 1);
      check_bool "measured model: served within 2 s, not the window" true
        (served_alone 2);
      check_int "two batches of one" 2 (Serve.stats server).batches)

let test_admission_control () =
  (* max_batch 8 with only 4 queue slots, and ten requests admitted
     under one scheduler lock: no worker can take any of them before
     the queue is full - admission must refuse deterministically. *)
  let config =
    serve_config ~workers:1 ~max_batch:8 ~max_wait_us:3.6e9 ~queue_depth:4 ()
  in
  let server = Serve.create ~config [ mlp_model ] in
  Fun.protect
    ~finally:(fun () -> Serve.shutdown server)
    (fun () ->
      let outcomes =
        Serve.submit_all server ~model:"mlp"
          (List.init 10 (fun i ->
               Serve.random_request server ~model:"mlp" ~seed:i))
      in
      let admitted, refused =
        List.partition (function Ok _ -> true | Error _ -> false) outcomes
      in
      check_int "exactly queue_depth admitted" 4 (List.length admitted);
      check_int "the rest refused" 6 (List.length refused);
      List.iter
        (function
          | Error Request.Queue_full -> ()
          | Error o ->
              Alcotest.failf "wrong overload: %s" (Request.overload_to_string o)
          | Ok _ -> ())
        refused;
      (* drain flushes whatever is still queued *)
      Serve.drain server;
      List.iter
        (function
          | Ok t -> (
              match Serve.await server t with
              | Request.Done _ -> ()
              | _ -> Alcotest.fail "admitted request must complete")
          | Error _ -> ())
        outcomes;
      let s = Serve.stats server in
      check_int "rejected counted" 6 s.rejected;
      check_int "admitted completed" 4 s.completed)

let test_poisoned_request_fails_alone () =
  (* Two requests forced into one batch (max_batch 2, admitted at
     once); one has a wrong-shaped binding.  The batch fails at pack and
     supervision re-dispatches each request solo: the good one is
     served at full strength (NOT degraded - its solo batch packs
     fine), the bad one burns its retry budget and fails on the
     fallback rung; the server survives and keeps serving. *)
  let config =
    serve_config ~workers:1 ~max_batch:2 ~max_wait_us:3.6e9 ~queue_depth:64 ()
  in
  let server = Serve.create ~config [ mlp_model ] in
  Fun.protect
    ~finally:(fun () -> Serve.shutdown server)
    (fun () ->
      let good = Serve.random_request server ~model:"mlp" ~seed:1 in
      let bad = [ ("x", Tensor.random ~seed:2 (Shape.of_list [ 1; 5 ])) ] in
      let t_good, t_bad =
        match submit_all_ok server ~model:"mlp" [ good; bad ] with
        | [ g; b ] -> (g, b)
        | _ -> Alcotest.fail "one ticket per request"
      in
      (match Serve.await server t_good with
      | Request.Done { degraded; _ } ->
          check_bool "good batchmate served at full strength" false degraded
      | _ -> Alcotest.fail "good batchmate must complete");
      (match Serve.await server t_bad with
      | Request.Failed _ -> ()
      | _ -> Alcotest.fail "poisoned request must fail");
      (* the server still serves after the failure *)
      (let t3 =
         match
           Serve.submit_async server ~model:"mlp"
             ~params:(Serve.random_request server ~model:"mlp" ~seed:3)
         with
         | Ok t -> t
         | Error _ -> Alcotest.fail "server must keep admitting"
       in
       Serve.drain server;
       match Serve.await server t3 with
       | Request.Done _ -> ()
       | _ -> Alcotest.fail "server must keep serving after a failure");
      let s = Serve.stats server in
      check_int "one failure" 1 s.failed;
      check_int "nothing served degraded" 0 s.degraded;
      check_bool "both batchmates were retried solo" true (s.retried >= 2))

let test_unknown_model_rejected () =
  let server =
    Serve.create ~config:(serve_config ~workers:1 ()) [ mlp_model ]
  in
  Fun.protect
    ~finally:(fun () -> Serve.shutdown server)
    (fun () ->
      match Serve.submit_async server ~model:"nope" ~params:[] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "unknown model must raise")

(* --- Chaos: supervision under injected runtime faults --------------------- *)

(* The supervision contract, exercised per fault: every admitted request
   resolves ([Done]/[Failed]/[Overloaded], never lost), survivors are
   bit-identical to solo interpretation (degraded or not - degradation
   never changes numerics), and the server keeps serving afterwards. *)
let await_all_accounted ?batch server ~what tickets_with_reqs =
  let spec = Serve.spec server ~model:"mlp" in
  let shared = Serve.shared_weights server ~model:"mlp" in
  List.iter
    (fun (ticket, params) ->
      match Serve.await server ticket with
      | Request.Done { outputs; batch = ran; _ } ->
          Option.iter (fun b -> check_int (what ^ ": batch size") b ran) batch;
          check_outputs_identical what
            (Interp.run spec.base ~params:(shared @ params))
            outputs
      | Request.Failed m -> Alcotest.failf "%s: request failed: %s" what m
      | Request.Overloaded o ->
          Alcotest.failf "%s: request overloaded: %s" what
            (Request.overload_to_string o))
    tickets_with_reqs

let submit_burst server ~what ~seed n =
  let burst =
    List.init n (fun j ->
        Serve.random_request server ~model:"mlp" ~seed:((seed * 31) + j))
  in
  List.map2
    (fun res params ->
      match res with
      | Ok t -> (t, params)
      | Error o ->
          Alcotest.failf "%s: request refused: %s" what
            (Request.overload_to_string o))
    (Serve.submit_all server ~model:"mlp" burst)
    burst

(* A max-batch plan whose first kernel holds a parameter op: the
   stitched lowering rejects that kernel, so it runs unstitched - every
   op materialized, its loops bounded at the batch prefix like any
   stitched kernel's.  Handed to the model ([Serve.set_plan]), it is
   the model's context from its first checkout - during [warm], or
   under a batch of one when the server was not warmed.  Either way
   that one pooled context rebinds: every burst of 1..4 runs as one
   batch at its own request count, nothing is retried, and every size
   is bit-identical to the interpreter - the full batch's spot check
   compares against it too. *)
let test_rejected_kernel_still_rebinds () =
  let max_batch = 4 in
  let config =
    {
      (serve_config ~workers:1 ~max_batch ~max_wait_us:3.6e9 ()) with
      verify_every = max_batch;
    }
  in
  let g = mlp_build ~batch:max_batch in
  let plan =
    (Session.compile Astitch_core.Astitch.full_backend config.arch g)
      .Session.plan
  in
  let with_param_op =
    match plan.Kernel_plan.kernels with
    | k :: rest ->
        let param =
          {
            (List.hd k.ops) with
            Kernel_plan.id = List.hd (Graph.parameters g);
            placement = Kernel_plan.Device_mem;
          }
        in
        { plan with kernels = { k with ops = k.ops @ [ param ] } :: rest }
    | [] -> Alcotest.fail "empty plan"
  in
  check_int "one rejected kernel" 1
    (List.length
       (Executor.context_fallbacks (Executor.create_context with_param_op)));
  let scenario ~warm =
    let what = if warm then "warmed" else "cold" in
    let server = Serve.create ~config [ mlp_model ] in
    let pools () =
      match Serve.context_pool_sizes server with
      | [ ("mlp", c) ] -> c
      | _ -> Alcotest.fail "expected one model's pool"
    in
    Fun.protect
      ~finally:(fun () -> Serve.shutdown server)
      (fun () ->
        Serve.set_plan server ~model:"mlp" with_param_op;
        if warm then begin
          Serve.warm server;
          check_bool "rebindable at warm" true
            (Serve.symbolic server ~model:"mlp");
          check_int "the max-batch context stays pooled" 1 (pools ())
        end;
        for n = 1 to max_batch do
          let tickets = submit_burst server ~what ~seed:n n in
          Serve.drain server;
          await_all_accounted ~batch:n server
            ~what:(Printf.sprintf "%s: batch of %d" what n)
            tickets
        done;
        check_bool (what ^ ": rebindable") true
          (Serve.symbolic server ~model:"mlp");
        let s = Serve.stats server in
        check_int (what ^ ": one batch per size") max_batch s.batches;
        check_int (what ^ ": nothing retried") 0 s.retried;
        check_int (what ^ ": one pooled context") 1 (pools ()))
  in
  scenario ~warm:true;
  scenario ~warm:false

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
  in
  scan 0

(* Open fds of this process, where /proc says; [None] elsewhere. *)
let open_fds () =
  if Sys.file_exists "/proc/self/fd" then
    Some (Array.length (Sys.readdir "/proc/self/fd"))
  else None

(* A builder whose batch axis moves inward is refused at load with the
   analysis' reason, before the server takes an fd or a domain. *)
let test_inward_batch_axis_refused () =
  let model = { Serve.name = "inward"; build = inward_axis_build } in
  let before = open_fds () in
  for _ = 1 to 20 do
    match Serve.create ~config:(serve_config ()) [ model ] with
    | exception Batching.Not_batchable why ->
        check_bool ("names the cause: " ^ why) true
          (contains why "not outermost")
    | server ->
        Serve.shutdown server;
        Alcotest.fail "an inward batch axis was accepted"
  done;
  match (before, open_fds ()) with
  | Some b, Some a -> check_int "open fds unchanged" b a
  | _ -> ()

let zoo_models =
  List.map
    (fun (e : Astitch_workloads.Zoo.entry) ->
      { Serve.name = e.name; build = e.batched })
    Astitch_workloads.Zoo.all

(* One burst of every size 1..max_batch for [model], each admitted at
   once, drained as one batch and awaited. *)
let serve_bursts server ~model ~max_batch =
  for n = 1 to max_batch do
    let tickets =
      submit_all_ok server ~model
        (List.init n (fun i ->
             Serve.random_request server ~model ~seed:((n * 10) + i)))
    in
    Serve.drain server;
    List.iter
      (fun t ->
        match Serve.await server t with
        | Request.Done { batch; _ } ->
            check_int (Printf.sprintf "%s: burst of %d is one batch" model n)
              n batch
        | _ -> Alcotest.failf "%s: burst of %d not served" model n)
      tickets
  done

(* Verifying every batch compares against the interpreter and checks
   out no second context, so a warmed single-worker CRNN server ends
   with the one context it warmed. *)
let test_crnn_pools_one_context () =
  let config =
    {
      (serve_config ~workers:1 ~max_batch:8 ~max_wait_us:3.6e9 ()) with
      verify_every = 1;
    }
  in
  let crnn = List.filter (fun (m : Serve.model) -> m.name = "CRNN") zoo_models in
  let server = Serve.create ~config crnn in
  Fun.protect
    ~finally:(fun () -> Serve.shutdown server)
    (fun () ->
      Serve.warm server;
      serve_bursts server ~model:"CRNN" ~max_batch:8;
      match Serve.context_pool_sizes server with
      | [ ("CRNN", 1) ] -> ()
      | sizes ->
          Alcotest.failf "expected CRNN=1, got [%s]"
            (String.concat "; "
               (List.map (fun (m, c) -> Printf.sprintf "%s=%d" m c) sizes)))

(* After [warm], no batch size of any zoo model compiles a plan. *)
let test_zoo_serves_without_compiling () =
  let config = serve_config ~workers:1 ~max_batch:8 ~max_wait_us:3.6e9 () in
  let server = Serve.create ~config zoo_models in
  Fun.protect
    ~finally:(fun () -> Serve.shutdown server)
    (fun () ->
      Serve.warm server;
      let warmed = (Serve.stats server).plan_compiles in
      List.iter
        (fun (m : Serve.model) ->
          serve_bursts server ~model:m.name ~max_batch:8;
          check_int
            (m.name ^ ": no plan compile under traffic")
            warmed (Serve.stats server).plan_compiles)
        zoo_models;
      check_int "no padded rows" 0 (Serve.stats server).padded_rows)

(* A server that was not warmed compiles a model's plan at its first
   checkout - twice at most, when both workers race on the cold model -
   and keeps it: a second burst compiles nothing. *)
let test_cold_model_compiles_once () =
  let config = serve_config ~workers:2 ~max_batch:2 () in
  let server = Serve.create ~config [ mlp_model ] in
  Fun.protect
    ~finally:(fun () -> Serve.shutdown server)
    (fun () ->
      let burst seed =
        let tickets = submit_burst server ~what:"cold" ~seed 6 in
        Serve.drain server;
        await_all_accounted server ~what:"cold" tickets;
        (Serve.stats server).plan_compiles
      in
      let first = burst 1 in
      check_bool
        (Printf.sprintf "first burst compiles 1 or 2 plans (%d)" first)
        true
        (first = 1 || first = 2);
      check_int "second burst compiles none" first (burst 2))

(* Every runtime fault site x 50 seeds x {raise, corrupt}, against a
   live worker-backed server.  One server per (site, mode): arming is
   per-burst, so each seed replays deterministically. *)
let test_chaos_sweep () =
  List.iter
    (fun site ->
      List.iter
        (fun mode ->
          let config = serve_config ~workers:1 ~max_batch:2 () in
          let server = Serve.create ~config [ mlp_model ] in
          let weights () = Serve.shared_weights server ~model:"mlp" in
          let before =
            List.map (fun (n, w) -> (n, Tensor.copy w)) (weights ())
          in
          Fun.protect
            ~finally:(fun () -> Serve.shutdown server)
            (fun () ->
              let what =
                Printf.sprintf "chaos %s:%s"
                  (Fault.site_to_string site)
                  (Fault.mode_to_string mode)
              in
              for seed = 0 to 49 do
                Fault.with_faults
                  [ Fault.plan site ~mode ~seed ~fuel:2 ]
                  (fun () ->
                    let burst =
                      submit_burst server ~what:(Printf.sprintf "%s seed %d" what seed) ~seed 3
                    in
                    Serve.drain server;
                    await_all_accounted server
                      ~what:(Printf.sprintf "%s seed %d" what seed)
                      burst)
              done;
              (* liveness after the storm: a clean request at full strength *)
              let p = Serve.random_request server ~model:"mlp" ~seed:9999 in
              (match Serve.submit server ~model:"mlp" ~params:p with
              | Request.Done { degraded; _ } ->
                  check_bool (what ^ ": clean request not degraded") false
                    degraded
              | _ -> Alcotest.failf "%s: server not live after sweep" what);
              let s = Serve.stats server in
              check_int (what ^ ": nothing outstanding") 0 s.outstanding;
              check_int (what ^ ": every request resolved")
                s.submitted
                (s.completed + s.failed + s.shed);
              check_int (what ^ ": no request failed") 0 s.failed;
              (* faults write into what a context or a batch owns, never
                 into what the model keeps across quarantines *)
              List.iter2
                (fun (name, w0) (_, w) ->
                  check_bool
                    (Printf.sprintf "%s: weight %s bit-identical" what name)
                    true (Tensor.equal_bits w0 w))
                before (weights ());
              check_int (what ^ ": one plan, kept") 1 s.plan_compiles))
        [ Fault.Raise; Fault.Corrupt ])
    Fault.runtime_sites

(* A fault that never stops firing: kernel-exec raises on every batch,
   forever.  Breakers off so nothing is fast-rejected; every request
   must ride the ladder down to the fault-free fallback rung and come
   back [Done] (degraded), bit-identical.  The rung is the interpreter
   and a quarantine retires only the context, so on a warmed server
   nothing compiles across the burst while contexts are quarantined. *)
let test_chaos_persistent_fault_liveness () =
  let config =
    { (serve_config ~workers:1 ~max_batch:2 ()) with
      Serve.breaker_threshold = 0 }
  in
  let server = Serve.create ~config [ mlp_model ] in
  let session_compiles () =
    Astitch_obs.Metrics.(value (counter default "session.compiles"))
  in
  Fun.protect
    ~finally:(fun () -> Serve.shutdown server)
    (fun () ->
      Serve.warm server;
      Fault.with_faults
        [ Fault.plan Fault.Kernel_exec ~mode:Fault.Raise ~seed:3 ~fuel:max_int ]
        (fun () ->
          let compiles0 = session_compiles ()
          and plans0 = (Serve.stats server).plan_compiles
          and quarantined0 = (Serve.supervision server).quarantined in
          let burst = submit_burst server ~what:"persistent" ~seed:1 6 in
          Serve.drain server;
          check_int "persistent: no plan compiled" plans0
            (Serve.stats server).plan_compiles;
          check_int "persistent: no session compile" compiles0
            (session_compiles ());
          check_bool "persistent: contexts quarantined" true
            ((Serve.supervision server).quarantined > quarantined0);
          let spec = Serve.spec server ~model:"mlp" in
          let shared = Serve.shared_weights server ~model:"mlp" in
          List.iter
            (fun (ticket, params) ->
              match Serve.await server ticket with
              | Request.Done { outputs; degraded; _ } ->
                  check_bool "persistent: served on the fallback rung" true
                    degraded;
                  check_outputs_identical "persistent"
                    (Interp.run spec.base ~params:(shared @ params))
                    outputs
              | _ -> Alcotest.fail "persistent: request must resolve Done")
            burst;
          let s = Serve.stats server in
          check_int "persistent: no failures" 0 s.failed;
          check_int "persistent: nothing outstanding" 0 s.outstanding;
          check_bool "persistent: retries happened" true (s.retried > 0)))

(* Breaker lifecycle: consecutive batch failures open it, open refuses
   fast with the structured overload, a successful half-open probe
   closes it.  One worker makes the failure count deterministic; the
   closed state must be visible the moment the probe's outcome lands. *)
let test_chaos_breaker_opens_and_closes () =
  let config =
    { (serve_config ~workers:1 ~max_batch:2 ()) with
      Serve.breaker_threshold = 3;
      breaker_cooldown_us = 10_000. }
  in
  let server = Serve.create ~config [ mlp_model ] in
  Fun.protect
    ~finally:(fun () -> Serve.shutdown server)
    (fun () ->
      check_bool "breaker starts closed" true
        (Serve.breaker_state server ~model:"mlp" = `Closed);
      Fault.with_faults
        [ Fault.plan Fault.Kernel_exec ~mode:Fault.Raise ~seed:1 ~fuel:max_int ]
        (fun () ->
          (* one request = initial batch + 2 retries = 3 consecutive
             failures = threshold; it still resolves via the fallback *)
          (match
             Serve.submit server ~model:"mlp"
               ~params:(Serve.random_request server ~model:"mlp" ~seed:1)
           with
          | Request.Done { degraded; _ } ->
              check_bool "first request served degraded" true degraded
          | _ -> Alcotest.fail "first request must resolve");
          check_bool "breaker open after threshold failures" true
            (Serve.breaker_state server ~model:"mlp" = `Open);
          (* open = fast structured rejection at submission *)
          match
            Serve.submit_async server ~model:"mlp"
              ~params:(Serve.random_request server ~model:"mlp" ~seed:2)
          with
          | Error Request.Breaker_open -> ()
          | Ok _ -> Alcotest.fail "open breaker must refuse"
          | Error o ->
              Alcotest.failf "wrong overload: %s"
                (Request.overload_to_string o));
      (* cooldown passes, faults are gone: the next request is the
         half-open probe and its success closes the breaker *)
      Unix.sleepf 0.015;
      (match
         Serve.submit server ~model:"mlp"
           ~params:(Serve.random_request server ~model:"mlp" ~seed:3)
       with
      | Request.Done { degraded; _ } ->
          check_bool "probe served at full strength" false degraded
      | _ -> Alcotest.fail "half-open probe must be admitted and served");
      check_bool "breaker closed after probe success" true
        (Serve.breaker_state server ~model:"mlp" = `Closed);
      let s = Serve.stats server in
      check_bool "open transitions counted" true (s.breaker_opens >= 1);
      check_bool "close transitions counted" true (s.breaker_closes >= 1))

(* A breaker that opens dumps one incident, written after the scheduler
   lock is released.  Two consecutive failures open it; a third, on the
   open breaker, opens nothing and dumps nothing. *)
let test_breaker_open_dump () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "astitch-breaker-dump-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let sched =
    Scheduler.create ~breaker_threshold:2
      ~policy:(Batcher.policy ~max_batch:1 ~max_wait_us:0.)
      ~queue_depth:4 ()
  in
  Astitch_obs.Flight.arm ~dir ();
  Fun.protect
    ~finally:(fun () ->
      Astitch_obs.Flight.disarm ();
      Scheduler.dispose sched)
    (fun () ->
      for _ = 1 to 3 do
        Scheduler.note_batch_result sched ~model:"mlp" ~ok:false
          ~service_us:0.
      done;
      check_bool "breaker open" true
        (Scheduler.breaker_state sched "mlp" = `Open);
      match
        List.filter
          (fun f -> String.ends_with ~suffix:"-breaker-open.json" f)
          (Array.to_list (Sys.readdir dir))
      with
      | [ f ] ->
          let ic = open_in (Filename.concat dir f) in
          let text = really_input_string ic (in_channel_length ic) in
          close_in ic;
          check_bool "the dump holds its breaker-open marker" true
            (contains text
               "{\"name\":\"breaker-open\",\"cat\":\"incident\"")
      | l -> Alcotest.failf "expected one breaker-open dump, got %d" (List.length l))

(* Worker death and restart: the worker-loop site kills the worker with
   a batch in hand; the monitor recovers the batch and respawns the
   worker within its backoff budget.  Everything completes. *)
let test_chaos_worker_restart () =
  let config = serve_config ~workers:1 ~max_batch:2 () in
  let server = Serve.create ~config [ mlp_model ] in
  Fun.protect
    ~finally:(fun () -> Serve.shutdown server)
    (fun () ->
      Fault.with_faults
        [ Fault.plan Fault.Worker_loop ~mode:Fault.Raise ~seed:5 ~fuel:2 ]
        (fun () ->
          let burst = submit_burst server ~what:"restart" ~seed:4 4 in
          Serve.drain server;
          await_all_accounted server ~what:"restart" burst);
      let sup = Serve.supervision server in
      check_bool "worker restarted" true (sup.Serve.restarts >= 1);
      check_int "worker alive again" 1 sup.Serve.workers_alive;
      let d = Serve.disposition server in
      check_int "no request lost" 0 d.Serve.lost)

(* Wedge detection: the worker-loop stall freezes the worker for 10ms
   with a batch in hand; a 2ms wedge timeout means the monitor steals
   and recovers the batch while the worker sleeps.  The worker then
   finishes the original batch too - first-wins completion delivers one
   outcome and counts the other as a duplicate. *)
let test_chaos_wedged_worker () =
  let config =
    { (serve_config ~workers:1 ~max_batch:2 ()) with
      Serve.wedge_timeout_us = 2_000. }
  in
  let server = Serve.create ~config [ mlp_model ] in
  Fun.protect
    ~finally:(fun () -> Serve.shutdown server)
    (fun () ->
      Fault.with_faults
        (* seed 9 -> 10ms stall (stall_s = 1ms * (1 + seed mod 10)) *)
        [ Fault.plan Fault.Worker_loop ~mode:Fault.Stall ~seed:9 ~fuel:1 ]
        (fun () ->
          let burst = submit_burst server ~what:"wedge" ~seed:6 1 in
          Serve.drain server;
          await_all_accounted server ~what:"wedge" burst);
      let sup = Serve.supervision server in
      check_bool "wedge detected" true (sup.Serve.wedged >= 1);
      let s = Serve.stats server in
      check_int "request delivered exactly once" 1 s.completed;
      check_int "nothing outstanding" 0 s.outstanding)

(* Corrupt-mode quarantine: a silently-corrupted batch is detected via
   the fired counter, its context quarantined, and the retry serves the
   request CLEAN - full strength, bit-identical.  Corruption must never
   reach a caller.  The model keeps its plan: the one worker compiled
   it once, and the next clean request compiles nothing. *)
let test_chaos_corrupt_quarantines_and_retries () =
  let config = serve_config ~workers:1 ~max_batch:2 () in
  let server = Serve.create ~config [ mlp_model ] in
  Fun.protect
    ~finally:(fun () -> Serve.shutdown server)
    (fun () ->
      let spec = Serve.spec server ~model:"mlp" in
      let shared = Serve.shared_weights server ~model:"mlp" in
      let params = Serve.random_request server ~model:"mlp" ~seed:11 in
      Fault.with_faults
        [ Fault.plan Fault.Kernel_exec ~mode:Fault.Corrupt ~seed:7 ~fuel:1 ]
        (fun () ->
          match Serve.submit server ~model:"mlp" ~params with
          | Request.Done { outputs; degraded; _ } ->
              check_bool "retried request served at full strength" false
                degraded;
              check_outputs_identical "corrupt-retry"
                (Interp.run spec.base ~params:(shared @ params))
                outputs
          | _ -> Alcotest.fail "corrupted batch must be retried to Done");
      let sup = Serve.supervision server in
      check_bool "context quarantined" true (sup.Serve.quarantined >= 1);
      let s = Serve.stats server in
      check_bool "request was retried" true (s.retried >= 1);
      check_int "corruption never delivered as a failure" 0 s.failed;
      check_int "one plan compiled" 1 s.plan_compiles;
      let params = Serve.random_request server ~model:"mlp" ~seed:12 in
      (match Serve.submit server ~model:"mlp" ~params with
      | Request.Done { outputs; degraded; _ } ->
          check_bool "next clean request at full strength" false degraded;
          check_outputs_identical "after quarantine"
            (Interp.run spec.base ~params:(shared @ params))
            outputs
      | _ -> Alcotest.fail "the next clean request must be served");
      check_int "no plan compiled after the quarantine" 1
        (Serve.stats server).plan_compiles)

(* The batcher-polling shutdown satellite: with an hour-long max wait
   and a pending partial batch, drain + shutdown must complete within
   poll-tick latency, not window latency. *)
let test_shutdown_prompt_under_open_window () =
  let config =
    serve_config ~workers:1 ~max_batch:8 ~max_wait_us:3.6e9 ~queue_depth:8 ()
  in
  let server = Serve.create ~config [ mlp_model ] in
  let burst = submit_burst server ~what:"shutdown" ~seed:8 2 in
  let t0 = Unix.gettimeofday () in
  Serve.drain server;
  await_all_accounted server ~what:"shutdown" burst;
  Serve.shutdown server;
  let elapsed = Unix.gettimeofday () -. t0 in
  check_bool
    (Printf.sprintf "drain+shutdown prompt (%.3fs)" elapsed)
    true (elapsed < 2.);
  (* the poll-interval clamp the promptness bound rests on *)
  let interval max_wait_us =
    Batcher.poll_interval_us (Batcher.policy ~max_batch:4 ~max_wait_us)
  in
  check_bool "huge window clamps to 200us" true (interval 3.6e9 = 200.);
  check_bool "zero window clamps to 50us" true (interval 0. = 50.);
  check_bool "quarter window in between" true (interval 400. = 100.)

(* --- Request tracing: span chains, decomposition, flight recorder --------- *)

module Trace = Astitch_obs.Trace

(* The latency decomposition telescopes: the five phase stamps are the
   same floats the end-to-end sample is computed from, so summed over a
   clean run the phase histograms must reconcile with serve.request_us
   to within float rounding - the "blame" table adds up to 100%. *)
let test_phase_decomposition_reconciles () =
  let reg = Astitch_obs.Metrics.default in
  Astitch_obs.Metrics.reset reg;
  let server = Serve.create ~config:(serve_config ~workers:1 ()) [ mlp_model ] in
  Fun.protect
    ~finally:(fun () -> Serve.shutdown server)
    (fun () ->
      let burst = submit_burst server ~what:"decomp" ~seed:2 12 in
      Serve.drain server;
      await_all_accounted server ~what:"decomp" burst);
  let h name =
    Astitch_obs.Metrics.histogram reg ("serve." ^ name ^ "_us")
  in
  let sum name = Astitch_obs.Metrics.hist_sum (h name) in
  let n = Astitch_obs.Metrics.hist_count (h "request") in
  check_int "every completed request is decomposed" 12 n;
  List.iter
    (fun phase ->
      check_int (phase ^ " observed once per request") n
        (Astitch_obs.Metrics.hist_count (h phase)))
    [ "queue"; "batch_wait"; "pack"; "exec"; "unpack" ];
  let parts =
    sum "queue" +. sum "batch_wait" +. sum "pack" +. sum "exec"
    +. sum "unpack"
  in
  let e2e = sum "request" in
  check_bool
    (Printf.sprintf "phases sum to end-to-end latency (%.3f vs %.3f us)"
       parts e2e)
    true
    (Float.abs (parts -. e2e) <= 1.0 +. (1e-9 *. e2e));
  let rows = Serve.latency_breakdown () in
  check_int "blame table: five phases + end-to-end" 6 (List.length rows);
  List.iter
    (fun (r : Serve.phase_latency) ->
      check_int (r.Serve.phase ^ ": blame row counts every request") n
        r.Serve.count)
    rows

(* Satellite property: under every runtime fault site x raise/corrupt,
   each admitted request's flow chain stays well-formed - exactly one
   "s" per request, every "t"/"f" resolves to it, exactly one "f" per
   chain, never before its "s".  (That an overflowed ring still exports
   valid Chrome-trace JSON is test_obs's overflow case.) *)
let prop_span_chain_under_chaos =
  QCheck2.Test.make ~name:"span chains well-formed under chaos" ~count:12
    QCheck2.Gen.(
      triple
        (int_range 0 (List.length Fault.runtime_sites - 1))
        bool (int_range 0 1_000))
    (fun (site_idx, use_raise, seed) ->
      let site = List.nth Fault.runtime_sites site_idx in
      let mode = if use_raise then Fault.Raise else Fault.Corrupt in
      if Trace.enabled () then ignore (Trace.uninstall ());
      Trace.install ();
      let server =
        Serve.create ~config:(serve_config ~workers:1 ~max_batch:2 ()) [ mlp_model ]
      in
      let ok = ref true in
      let fail_if c = if c then ok := false in
      Fun.protect
        ~finally:(fun () ->
          Serve.shutdown server;
          if Trace.enabled () then ignore (Trace.uninstall ()))
        (fun () ->
          Fault.with_faults
            [ Fault.plan site ~mode ~seed ~fuel:2 ]
            (fun () ->
              let burst = submit_burst server ~what:"span-chain" ~seed 4 in
              Serve.drain server;
              List.iter (fun (t, _) -> ignore (Serve.await server t)) burst);
          let fl =
            List.filter_map
              (function Trace.Flow f -> Some f | _ -> None)
              (Trace.records ())
          in
          let dir d =
            List.filter (fun (f : Trace.flow) -> f.Trace.fdir = d) fl
          in
          let starts = dir Trace.Flow_start and ends = dir Trace.Flow_end in
          fail_if (List.length starts <> 4);
          fail_if (List.length ends <> List.length starts);
          (* every step/end arrow resolves to exactly one start of its
             id and never precedes it (no orphan flow events) *)
          List.iter
            (fun (f : Trace.flow) ->
              match
                List.filter
                  (fun (s : Trace.flow) -> s.Trace.fid = f.Trace.fid)
                  starts
              with
              | [ s ] -> fail_if (f.Trace.fts_ns < s.Trace.fts_ns)
              | _ -> ok := false)
            (dir Trace.Flow_step @ ends);
          (* first-wins completion: one terminating arrow per chain,
             even when steal paths double-execute *)
          let end_ids = List.map (fun (f : Trace.flow) -> f.Trace.fid) ends in
          fail_if
            (List.length (List.sort_uniq compare end_ids)
            <> List.length end_ids));
      !ok)

(* --- Suite --------------------------------------------------------------- *)

let () =
  Alcotest.run "serve"
    [
      ( "batching",
        [
          Alcotest.test_case "analyze classifies params and outputs" `Quick
            test_analyze_classifies;
          Alcotest.test_case "analyze rejects two-axis scaling" `Quick
            test_analyze_rejects_two_axis;
          Alcotest.test_case "analyze rejects weights-only builders" `Quick
            test_analyze_rejects_weights_only;
          Alcotest.test_case "concat/slice roundtrip" `Quick
            test_concat_slice_roundtrip;
          Alcotest.test_case "pack rejects bad shapes" `Quick
            test_pack_rejects_bad_shape;
          Alcotest.test_case "pack/unpack exact at prime batch sizes" `Quick
            test_pack_unpack_primes;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "mlp batched = solo" `Quick
            test_bit_identity_mlp;
          QCheck_alcotest.to_alcotest prop_bit_identity_random;
          Alcotest.test_case "zoo batched builders compile and run {1,3,8}"
            `Quick test_zoo_batched_build_compile_run;
          Alcotest.test_case "zoo 3-row batches = solo" `Quick
            test_zoo_batched_bit_identity;
        ] );
      ( "symbolic-batch",
        [
          Alcotest.test_case "mlp rebind = fresh compile at 1..8" `Quick
            test_symbolic_rebind_mlp;
          Alcotest.test_case "zoo symbolic workloads rebind identically" `Quick
            test_symbolic_rebind_zoo;
          QCheck_alcotest.to_alcotest prop_symbolic_rebind_random;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "dispatch decisions" `Quick test_batcher_decisions;
        ] );
      ( "server",
        [
          Alcotest.test_case "end-to-end: all served bit-identical" `Quick
            test_serve_end_to_end;
          Alcotest.test_case "deterministic across servers" `Quick
            test_serve_weights_match_spec;
          Alcotest.test_case "continuous batching: exact odd-size batches"
            `Quick test_continuous_exact_batches;
          Alcotest.test_case "rejected kernel still rebinds" `Quick
            test_rejected_kernel_still_rebinds;
          Alcotest.test_case "inward batch axis refused at create" `Quick
            test_inward_batch_axis_refused;
          Alcotest.test_case "CRNN verifies on its one context" `Quick
            test_crnn_pools_one_context;
          Alcotest.test_case "zoo serves every size without compiling"
            `Quick test_zoo_serves_without_compiling;
          Alcotest.test_case "full batch wakes the worker immediately" `Quick
            test_full_batch_dispatches_immediately;
          Alcotest.test_case "an idle worker never waits out the window"
            `Quick test_idle_worker_dispatches;
          Alcotest.test_case "admission control refuses past the bound" `Quick
            test_admission_control;
          Alcotest.test_case "poisoned request fails alone" `Quick
            test_poisoned_request_fails_alone;
          Alcotest.test_case "unknown model rejected" `Quick
            test_unknown_model_rejected;
        ] );
      ( "one-plan-per-model",
        [
          Alcotest.test_case "a cold model compiles its plan once" `Quick
            test_cold_model_compiles_once;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "sweep: every runtime site x 50 seeds x mode"
            `Slow test_chaos_sweep;
          Alcotest.test_case "persistent fault: fallback keeps serving" `Quick
            test_chaos_persistent_fault_liveness;
          Alcotest.test_case "breaker opens, half-opens, closes" `Quick
            test_chaos_breaker_opens_and_closes;
          Alcotest.test_case "breaker-open dump written once" `Quick
            test_breaker_open_dump;
          Alcotest.test_case "dead worker restarts, batch recovered" `Quick
            test_chaos_worker_restart;
          Alcotest.test_case "wedged worker's batch stolen" `Quick
            test_chaos_wedged_worker;
          Alcotest.test_case "corrupt batch quarantined, retried clean" `Quick
            test_chaos_corrupt_quarantines_and_retries;
          Alcotest.test_case "shutdown prompt under an open window" `Quick
            test_shutdown_prompt_under_open_window;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "phase decomposition reconciles" `Quick
            test_phase_decomposition_reconciles;
          QCheck_alcotest.to_alcotest prop_span_chain_under_chaos;
        ] );
    ]
