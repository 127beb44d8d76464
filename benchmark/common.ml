(* Shared plumbing of the four workloads: the clock, bench-side spans,
   output comparison and the per-run metric sink. *)

open Astitch_tensor
module Trace = Astitch_obs.Trace
module Stats = Bench_stats.Stats

(* Monotonic seconds: generator schedules and timings must not jump when
   the wall clock is stepped. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* The same clock in integer nanoseconds, for loops that must not
   allocate. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let time f =
  let t0 = now_s () in
  let x = f () in
  (x, now_s () -. t0)

(* Every public call the benchmark times runs inside a "bench" span, so
   a traced run splits each timed call into the library's own spans. *)
let span name f = Trace.with_span ~phase:"bench" name f

let same_bits a b =
  Astitch_ir.Shape.equal (Tensor.shape a) (Tensor.shape b)
  &&
  let da = Tensor.data a and db = Tensor.data b in
  Array.length da = Array.length db
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       da db

let same_outputs xs ys =
  List.length xs = List.length ys && List.for_all2 same_bits xs ys

type config = {
  seed : int;
  seconds : float;  (** measured window of the untraced run *)
  trace : bool;
      (** split the window into an untraced part, layer legs and a
          traced part, and report per-layer metrics *)
  setups : int;  (** set-ups repeated traced in a traced run *)
  out_dir : string;  (** trace files and the zoo's plan store go here *)
}

(* The share of the window each part of a traced run gets. *)
let window cfg = if cfg.trace then cfg.seconds /. 3. else cfg.seconds

type metric = { name : string; value : float; unit : string }

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : metric list;  (** newest first *)
  mutable notes : string list;  (** newest first; printed after the metrics *)
}

let new_result () = { attempted = 0; failed = 0; metrics = []; notes = [] }

(* A non-finite value (a ratio over an empty sample) reads 0. *)
let add r name unit value =
  let value = if Float.is_finite value then value else 0. in
  r.metrics <- { name; value; unit } :: List.filter (fun m -> m.name <> name) r.metrics

let note r fmt = Printf.ksprintf (fun s -> r.notes <- s :: r.notes) fmt

let fail r n what =
  if n > 0 then begin
    r.failed <- r.failed + n;
    note r "FAILED %d: %s" n what
  end

let metrics r = List.rev r.metrics

let us s = s *. 1e6
let ms s = s *. 1e3

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Skewed model popularity, hottest first: weight 1/(i+1). *)
let skewed_cdf n =
  let w = Array.init n (fun i -> 1. /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let pick cdf st =
  let u = Random.State.float st 1. in
  let rec go i = if i >= Array.length cdf - 1 || u < cdf.(i) then i else go (i + 1) in
  go 0

(* --- Slices ------------------------------------------------------------- *)

(* A measured window is cut into equal slices of about [slice_s], each
   starting with a timed set-up, so the set-ups are spread over the
   window like the calls they are compared with.  Each slice also
   measures the machine's speed (speed.ml) before its set-up and after
   its calls, and every gated figure is taken at reference speed. *)
let slice_count ~slice_s seconds = Stdlib.max 1 (int_of_float (seconds /. slice_s))

let slice_seconds ~slice_s seconds = seconds /. float_of_int (slice_count ~slice_s seconds)

(* For each slice: measure the speed of [cpus], time [setup ()], run
   [body x ~until] with [until] the slice's end on the monotonic clock,
   then [teardown x], untimed, and measure the speed again.  Adds
   [setup_s], the median set-up time at the speed measured just before
   it, and [machine.speed], the median slice's speed, to [r].  Returns
   each slice's speed (the geometric mean of its two measurements) with
   its body's result. *)
let sliced r ~seconds ~slice_s ~cpus ~setup ?(teardown = ignore) body =
  let n = slice_count ~slice_s seconds in
  let t0 = now_s () in
  let setups = Array.make n 0. in
  let results =
    Array.init n (fun k ->
        let before = Speed.measure ~cpus in
        let x, dt = time setup in
        setups.(k) <- dt *. before;
        let until = t0 +. (float_of_int (k + 1) *. slice_seconds ~slice_s seconds) in
        let y = Fun.protect ~finally:(fun () -> teardown x) (fun () -> body x ~until) in
        (Float.sqrt (before *. Speed.measure ~cpus), y))
  in
  add r "setup_s" "s" (Stats.median setups);
  add r "machine.speed" "ratio" (Stats.median (Array.map fst results));
  results

(* A gated figure: the median over slices of the slice's figure at
   reference speed.  A duration scales with the speed, a rate inversely. *)
let at_speed ~rate (slices : (float * float) array) =
  Stats.median (Array.map (fun (speed, v) -> if rate then v /. speed else v *. speed) slices)

(* --- Closed loops over graphs ------------------------------------------- *)

(* One sample set of call durations (seconds) per graph. *)
let sample_sets n = Array.init n (fun _ -> Stats.Samples.create ~capacity:64 ())

let medians sets = Array.map (fun s -> Stats.quantile (Stats.Samples.sorted s) 0.5) sets

(* Geometric mean over graphs of each graph's [q]-quantile; [None] when
   a graph has no sample. *)
let geomean_quantile (sets : Stats.Samples.t array) q =
  if Array.exists (fun s -> Stats.Samples.length s = 0) sets then None
  else
    Some
      (Stats.geomean
         (Array.to_list
            (Array.map (fun s -> Stats.quantile (Stats.Samples.sorted s) q) sets)))

(* Per-graph sets of every slice, merged. *)
let pool (by_slice : Stats.Samples.t array array) =
  let pooled = sample_sets (Array.length by_slice.(0)) in
  Array.iter
    (Array.iteri (fun i s -> Array.iter (Stats.Samples.add pooled.(i)) (Stats.Samples.sorted s)))
    by_slice;
  pooled

(* The tail of per-graph (or one) sets of durations in seconds: the
   highest percentile with at least ten samples beyond it, as a
   geometric mean over the sets, with the sample count it rests on. *)
let tail r sets =
  let n = Array.fold_left (fun acc s -> Stdlib.min acc (Stats.Samples.length s)) max_int sets in
  add r "latency_samples" "count" (float_of_int n);
  match Stats.tail_percentile n with
  | Some q ->
      add r "latency_tail_pct" "%" (100. *. q);
      Option.iter (fun x -> add r "latency_tail_ms" "ms" (ms x)) (geomean_quantile sets q)
  | None -> ()

(* Tracing overhead: traced against untraced runs of the same calls,
   interleaved so that drift of the machine hits both alike; the
   geometric mean of each set's median. *)
let overhead_pct ~traced ~plain =
  match (geomean_quantile traced 0.5, geomean_quantile plain 0.5) with
  | Some t, Some p -> 100. *. ((t /. p) -. 1.)
  | _ -> Float.nan

(* The gated figures of a closed loop over graphs, from its per-slice
   sets of call times at reference speed (each call scaled by a
   [Speed.gauge] read just before it): the latency is the geometric mean
   over graphs of each one's median call, the goodput one round of every
   graph at those times.  Returns the sets pooled over the slices. *)
let closed_loop_figures r (slices : Stats.Samples.t array array) =
  let pooled = pool slices in
  let med = Array.to_list (medians pooled) in
  add r "latency_ms" "ms" (ms (Stats.geomean med));
  add r "goodput_per_s" "1/s" (float_of_int (List.length med) /. List.fold_left ( +. ) 0. med);
  tail r pooled;
  pooled
