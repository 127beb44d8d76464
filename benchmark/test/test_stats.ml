module Stats = Bench_stats.Stats
module Metrics = Astitch_obs.Metrics

let feq = Alcotest.(check (float 1e-12))
let ints n = Array.init n (fun i -> float_of_int (i + 1))

let test_nearest_rank () =
  let s = ints 10 in
  feq "p0 is the minimum" 1. (Stats.quantile s 0.);
  feq "p10" 1. (Stats.quantile s 0.1);
  feq "p50 is the 5th of 10" 5. (Stats.quantile s 0.5);
  feq "p51 rounds up to the 6th" 6. (Stats.quantile s 0.51);
  feq "p90" 9. (Stats.quantile s 0.9);
  feq "p99 is the maximum" 10. (Stats.quantile s 0.99);
  feq "p100" 10. (Stats.quantile s 1.);
  feq "single sample" 7. (Stats.quantile [| 7. |] 0.99);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.quantile: no samples")
    (fun () -> ignore (Stats.quantile [||] 0.5))

let test_tail_percentile () =
  let check n want =
    Alcotest.(check (option (float 0.)))
      (Printf.sprintf "n = %d" n) want (Stats.tail_percentile n)
  in
  check 19 None;
  check 20 (Some 0.5);
  check 99 (Some 0.75);
  check 100 (Some 0.9);
  check 999 (Some 0.95);
  check 1000 (Some 0.99);
  check 10_000 (Some 0.999)

let test_median_and_quartiles () =
  feq "odd median" 3. (Stats.median [| 5.; 1.; 3. |]);
  feq "even median" 2.5 (Stats.median [| 4.; 1.; 2.; 3. |]);
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (Array.init 10 (fun i -> float_of_int (10 - i))) in
  feq "q1" 2.75 q1;
  feq "q2" 5.5 q2;
  feq "q3" 8.25 q3;
  (* statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] *)
  let q1, q2, q3 = Stats.quartiles [| 2.; 1. |] in
  feq "two values q1" 0.75 q1;
  feq "two values q2" 1.5 q2;
  feq "two values q3" 2.25 q3;
  feq "iqr share" ((8.25 -. 2.75) /. 5.5) (Stats.rel_iqr (ints 10));
  feq "constant spread" 0. (Stats.rel_iqr [| 4.; 4.; 4. |])

let test_geomean () =
  feq "1 4 16" 4. (Stats.geomean [ 1.; 4.; 16. ]);
  feq "one value" 3. (Stats.geomean [ 3. ]);
  Alcotest.check_raises "zero" (Invalid_argument "Stats.geomean: non-positive value")
    (fun () -> ignore (Stats.geomean [ 1.; 0. ]))

(* 1000 latencies between 1000 and 1099 us: p95 and p99 differ by 4%,
   less than one 2^(1/4) histogram bucket, so bucket midpoints report
   the same value for both while the raw samples do not. *)
let test_p95_differs_from_p99 () =
  let samples = Stats.Samples.create ~capacity:4 () in
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "latency_us" in
  for i = 0 to 999 do
    let x = 1000. +. float_of_int ((i * 37) mod 1000 / 10) +. 0.25 in
    Stats.Samples.add samples x;
    Metrics.observe h x
  done;
  Alcotest.(check int) "all kept" 1000 (Stats.Samples.length samples);
  let sorted = Stats.Samples.sorted samples in
  let p95 = Stats.quantile sorted 0.95 and p99 = Stats.quantile sorted 0.99 in
  feq "exact p95" 1094.25 p95;
  feq "exact p99" 1098.25 p99;
  Alcotest.(check bool) "bucket midpoints cannot tell them apart" true
    (Metrics.quantile h 0.95 = Metrics.quantile h 0.99)

let () =
  Alcotest.run "benchmark stats"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank quantiles" `Quick test_nearest_rank;
          Alcotest.test_case "tail percentile with ten beyond" `Quick
            test_tail_percentile;
          Alcotest.test_case "median and quartiles across repeats" `Quick
            test_median_and_quartiles;
          Alcotest.test_case "geometric mean" `Quick test_geomean;
          Alcotest.test_case "p95 differs from p99 over 1000 samples" `Quick
            test_p95_differs_from_p99;
        ] );
    ]
