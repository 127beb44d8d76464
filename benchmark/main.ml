(* The benchmark's command line: run workloads, print every metric as
   "workload metric value unit", write one result file, compare against
   a baseline, and end with the one-line JSON summary.

     dune exec benchmark/main.exe -- [--workload W] [--seed N]
       [--seconds S] [--trace 0|1] [--repeat N] [--out FILE]
       [--out-dir DIR] [--check BASELINE] [--smoke] *)

module Stats = Bench_stats.Stats
module J = Astitch_obs.Json_check

let workloads =
  [
    ("compile", Wl_compile.run);
    ("exec", Wl_exec.run);
    ("serve-closed", Wl_serve.run_closed);
    ("zoo-open", Wl_serve.run_zoo);
  ]

let usage () =
  prerr_endline
    "usage: main.exe [--workload compile|exec|serve-closed|zoo-open] [--seed N] \
     [--seconds S] [--trace 0|1] [--repeat N] [--out FILE] [--out-dir DIR] \
     [--check BASELINE] [--smoke]";
  exit 2

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float option;
  mutable trace : bool;
  mutable repeat : int;
  mutable setups : int;
  mutable out : string option;
  mutable out_dir : string;
  mutable check : string option;
  mutable smoke : bool;
}

let parse argv =
  let o =
    {
      workload = None;
      seed = 1;
      seconds = None;
      trace = false;
      repeat = 1;
      setups = 5;
      out = None;
      out_dir = Filename.concat "benchmark" "_out";
      check = None;
      smoke = false;
    }
  in
  let int s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        if not (List.mem_assoc w workloads) then usage ();
        o.workload <- Some w;
        go rest
    | "--seed" :: n :: rest ->
        o.seed <- int n;
        go rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some x when x > 0. -> o.seconds <- Some x
        | _ -> usage ());
        go rest
    | "--trace" :: t :: rest ->
        (match t with "0" -> o.trace <- false | "1" -> o.trace <- true | _ -> usage ());
        go rest
    | "--repeat" :: n :: rest ->
        o.repeat <- Stdlib.max 1 (int n);
        go rest
    | "--out" :: f :: rest ->
        o.out <- Some f;
        go rest
    | "--out-dir" :: d :: rest ->
        o.out_dir <- d;
        go rest
    | "--check" :: f :: rest ->
        o.check <- Some f;
        go rest
    | "--smoke" :: rest ->
        o.smoke <- true;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  o

(* --- One workload, N repeats --------------------------------------------- *)

type runs = {
  name : string;
  results : Common.result list;  (** in seed order *)
  units : (string * string) list;  (** every metric any run reported *)
  measured : string list;  (** reported by the workload itself, not read as 0 *)
}

let print_metric w name value unit = Printf.printf "%s %s %.17g %s\n%!" w name value unit

(* Per-layer metrics a workload does not exercise read 0, so every
   workload reports the same set. *)
let complete spec (r : Common.result) =
  List.iter
    (fun (m : Spec.metric) ->
      if not (List.exists (fun (x : Common.metric) -> x.name = m.name) r.metrics) then
        Common.add r m.name m.unit 0.)
    spec.Spec.per_layer

let run_workload spec o (name, run) =
  let measured = ref [] in
  let results =
    List.init o.repeat (fun i ->
        let cfg =
          {
            Common.seed = o.seed + i;
            seconds = Option.value o.seconds ~default:spec.Spec.run_seconds;
            trace = o.trace;
            setups = o.setups;
            out_dir = o.out_dir;
          }
        in
        let r = run cfg in
        Common.add r "fail_frac" "ratio"
          (float_of_int r.failed /. float_of_int (Stdlib.max 1 r.attempted));
        measured := List.map (fun (m : Common.metric) -> m.name) r.metrics @ !measured;
        if o.trace then complete spec r;
        if not o.smoke then begin
          List.iter
            (fun (m : Common.metric) -> print_metric name m.name m.value m.unit)
            (Common.metrics r);
          List.iter (fun n -> Printf.printf "# %s: %s\n" name n) (List.rev r.notes)
        end;
        Printf.printf "# %s: seed %d attempted %d failed %d\n%!" name cfg.seed r.attempted r.failed;
        r)
  in
  let units =
    List.concat_map (fun (r : Common.result) -> List.map (fun (m : Common.metric) -> (m.name, m.unit)) (Common.metrics r)) results
    |> List.sort_uniq compare
  in
  { name; results; units; measured = List.sort_uniq compare !measured }

let values runs metric =
  List.filter_map
    (fun (r : Common.result) ->
      List.find_opt (fun (m : Common.metric) -> m.name = metric) r.metrics
      |> Option.map (fun (m : Common.metric) -> m.value))
    runs.results
  |> Array.of_list

let summary runs metric =
  let v = values runs metric in
  if Array.length v = 0 then None else Some (Stats.median v, Stats.rel_iqr v)

(* --- Result file ---------------------------------------------------------- *)

let jstr = Layers.json_string
let jnum = Layers.json_float

let write_result path o all =
  Common.mkdir_p (Filename.dirname path);
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  let obj kvs = "{" ^ String.concat ", " (List.map (fun (k, v) -> jstr k ^ ": " ^ v) kvs) ^ "}" in
  p "{\n  \"seed\": %d,\n  \"repeat\": %d,\n  \"trace\": %b,\n  \"workloads\": {\n" o.seed o.repeat o.trace;
  List.iteri
    (fun i runs ->
      let names = List.map fst runs.units in
      let pick f = obj (List.filter_map (fun n -> Option.map (fun s -> (n, jnum (f s))) (summary runs n)) names) in
      p "    %s: {\n" (jstr runs.name);
      p "      \"units\": %s,\n" (obj (List.map (fun (n, u) -> (n, jstr u)) runs.units));
      p "      \"median\": %s,\n" (pick fst);
      p "      \"rel_iqr\": %s,\n" (pick snd);
      p "      \"runs\": [\n";
      List.iteri
        (fun j (r : Common.result) ->
          p "        {\"attempted\": %d, \"failed\": %d, \"metrics\": %s}%s\n" r.attempted r.failed
            (obj (List.map (fun (m : Common.metric) -> (m.name, jnum m.value)) (Common.metrics r)))
            (if j = List.length runs.results - 1 then "" else ","))
        runs.results;
      p "      ]\n    }%s\n" (if i = List.length all - 1 then "" else ","))
    all;
  p "  }\n}\n";
  close_out oc

(* --- Comparison against a baseline result file ---------------------------- *)

let num_at path j = List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path |> fun v -> Option.bind v J.as_num

let compare_baseline spec all path =
  let base =
    match J.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let bad = ref false in
  Printf.printf "\n%-13s %-16s %14s %14s %9s %7s %7s  %s\n" "workload" "metric" "baseline" "current" "delta" "bound" "spread" "verdict";
  List.iter
    (fun runs ->
      List.iter
        (fun (m : Spec.metric) ->
          let b = num_at [ "workloads"; runs.name; "median"; m.name ] base
          and bs = num_at [ "workloads"; runs.name; "rel_iqr"; m.name ] base in
          match (b, summary runs m.name) with
          | Some b, Some (c, cs) ->
              let bound = Option.value m.bound ~default:0. in
              let delta = (c -. b) /. b in
              let worse = if m.lower_is_better then delta else -.delta in
              let spread = Float.max cs (Option.value bs ~default:0.) in
              let verdict =
                if spread > bound then "unresolved"
                else if worse > bound then (bad := true; "regressed")
                else "ok"
              in
              Printf.printf "%-13s %-16s %14.6g %14.6g %+8.2f%% %6.2f%% %6.2f%%  %s\n" runs.name m.name b c
                (100. *. delta) (100. *. bound) (100. *. spread) verdict
          | _ -> ())
        spec.Spec.end_to_end;
      let frac rs = let a, f = List.fold_left (fun (a, f) (r : Common.result) -> (a + r.attempted, f + r.failed)) (0, 0) rs in float_of_int f /. float_of_int (Stdlib.max 1 a) in
      let base_frac =
        match J.member "workloads" base |> Fun.flip Option.bind (J.member runs.name) |> Fun.flip Option.bind (J.member "runs") |> Fun.flip Option.bind J.as_arr with
        | Some rs ->
            let a = List.fold_left (fun acc r -> acc +. Option.value ~default:0. (num_at [ "attempted" ] r)) 0. rs
            and f = List.fold_left (fun acc r -> acc +. Option.value ~default:0. (num_at [ "failed" ] r)) 0. rs in
            f /. Float.max 1. a
        | None -> 0.
      in
      let cur = frac runs.results in
      if cur > base_frac then begin
        bad := true;
        Printf.printf "%-13s %-16s %14.6g %14.6g  regressed\n" runs.name "fail_frac" base_frac cur
      end)
    all;
  !bad

(* --- Smoke assertions ----------------------------------------------------- *)

(* Every end-to-end metric is measured by every workload, every
   per-layer metric by at least one, each in the unit BENCHMARK.json
   names; nothing failed; the result and trace files parse. *)
let smoke_checks spec o all result_path =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let check_unit runs (m : Spec.metric) =
    match List.assoc_opt m.name runs.units with
    | Some u when u <> m.unit -> problem "%s: %s printed in %s, BENCHMARK.json says %s" runs.name m.name u m.unit
    | _ -> ()
  in
  List.iter
    (fun runs ->
      List.iter
        (fun (m : Spec.metric) ->
          check_unit runs m;
          if not (List.mem m.name runs.measured) then problem "%s: %s not measured" runs.name m.name)
        spec.Spec.end_to_end;
      List.iter (check_unit runs) spec.per_layer;
      List.iter
        (fun (r : Common.result) -> if r.failed > 0 then problem "%s: fail_frac > 0 (%d failed)" runs.name r.failed)
        runs.results)
    all;
  List.iter
    (fun (m : Spec.metric) ->
      if not (List.exists (fun runs -> List.mem m.name runs.measured) all) then
        problem "%s is measured by no workload" m.name)
    spec.per_layer;
  let parses path =
    match J.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok _ -> ()
    | Error e -> problem "%s does not parse: %s" path e
    | exception Sys_error e -> problem "%s" e
  in
  parses result_path;
  List.iter
    (fun runs ->
      parses (Filename.concat o.out_dir (runs.name ^ ".trace.json"));
      parses (Filename.concat o.out_dir (runs.name ^ ".layers.json")))
    all;
  List.rev !problems

(* --- Main ------------------------------------------------------------------ *)

let () =
  let o = parse Sys.argv in
  if o.smoke then begin
    o.seconds <- Some 0.5;
    o.trace <- true;
    o.setups <- 1;
    o.repeat <- 1
  end;
  let spec =
    try Spec.load "BENCHMARK.json"
    with Sys_error e | Failure e ->
      prerr_endline ("cannot read the benchmark spec: " ^ e);
      exit 2
  in
  if List.sort compare spec.workloads <> List.sort compare (List.map fst workloads) then begin
    prerr_endline "BENCHMARK.json lists other workloads than this executable runs";
    exit 2
  end;
  let selected =
    match o.workload with
    | Some w -> [ (w, List.assoc w workloads) ]
    | None -> workloads
  in
  let all = List.map (run_workload spec o) selected in
  if o.repeat > 1 then begin
    Printf.printf "\n%-13s %-36s %16s %9s  %s\n" "workload" "metric" "median" "rel_iqr" "unit";
    List.iter
      (fun runs ->
        List.iter
          (fun (n, u) ->
            match summary runs n with
            | Some (med, iqr) -> Printf.printf "%-13s %-36s %16.6g %8.2f%%  %s\n" runs.name n med (100. *. iqr) u
            | None -> ())
          runs.units)
      all
  end;
  let result_path = Option.value o.out ~default:(Filename.concat o.out_dir "result.json") in
  write_result result_path o all;
  let regressed = match o.check with Some path -> compare_baseline spec all path | None -> false in
  let smoke_problems = if o.smoke then smoke_checks spec o all result_path else [] in
  List.iter (fun s -> Printf.printf "# smoke: %s\n" s) smoke_problems;
  if o.smoke then exit (if smoke_problems = [] then 0 else 1);
  (* The summary line: the end-to-end metrics, or the per-layer ones in
     a traced run, as medians over the repeats. *)
  let wanted = if o.trace then spec.per_layer else spec.end_to_end in
  let attempted = List.fold_left (fun acc runs -> List.fold_left (fun acc (r : Common.result) -> acc + r.attempted) acc runs.results) 0 all in
  let failed = List.fold_left (fun acc runs -> List.fold_left (fun acc (r : Common.result) -> acc + r.failed) acc runs.results) 0 all in
  let missing = ref [] in
  let entries =
    List.concat_map
      (fun runs ->
        List.filter_map
          (fun (m : Spec.metric) ->
            let key = if List.length all = 1 then m.name else runs.name ^ ":" ^ m.name in
            match summary runs m.name with
            | Some (v, _) -> Some (Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (jstr key) (jnum v) (jstr m.unit))
            | None ->
                missing := (runs.name ^ " " ^ m.name) :: !missing;
                None)
          wanted)
      all
  in
  if !missing <> [] then begin
    List.iter (fun s -> prerr_endline ("metric not measured: " ^ s)) !missing;
    exit 3
  end;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) (Stdlib.max 1 attempted) failed (String.concat ", " entries);
  if regressed || smoke_problems <> [] then exit 1
