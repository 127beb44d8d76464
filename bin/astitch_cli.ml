(* Command-line driver.

   astitch_cli inspect <model>            graph statistics
   astitch_cli compile <model> [-b NAME]  compile + plan summary
   astitch_cli run <model> [-b NAME]      compile + execute on random params
   astitch_cli cuda <model> [-b NAME]     pseudo-CUDA of the plan
   astitch_cli dot <model>                Graphviz of the graph
   astitch_cli text <model>               textual IR of the graph
   astitch_cli parse <file>               compile a textual-IR file
   astitch_cli explain <model>            per-kernel cost breakdown
   astitch_cli bench [EXPERIMENT]         paper tables/figures
   astitch_cli compare <model>            all backends side by side
   astitch_cli serve [MODEL...]           batched multi-tenant serving under
                                          SLO classes, with an optional
                                          plan store, driven by a synthetic
                                          open-loop request generator

   compile/compare take --resilient (per-cluster graceful degradation,
   prints the degradation report) and repeatable
   --inject SITE:MODE[:SEED[:FUEL]] fault-injection options.
   run/compare take --fused/--no-fused to pick stitched or unstitched
   kernels on the one tiled engine (fused is the default; a kernel the
   engine cannot stitch runs with every op materialized, its reason
   logged); serve always executes fused.  run/compare/bench/serve take
   --trace FILE and --metrics; run --trace FILE --check re-parses the
   trace.  serve --recorder DIR dumps the trace sink on each incident
   (installing a small sink when --trace did not), and serve
   --expect-warm --check fails when prewarm or traffic compiles a
   plan. *)

open Cmdliner
open Astitch_ir
open Astitch_simt
open Astitch_plan
open Astitch_runtime

let backends =
  [
    ("tf", Astitch_backends.Tf_backend.backend);
    ("xla", Astitch_backends.Xla_backend.backend);
    ("tvm", Astitch_backends.Tvm_backend.backend);
    ("ansor", Astitch_backends.Tvm_backend.ansor);
    ("trt", Astitch_backends.Trt_backend.backend);
    ("astitch", Astitch_core.Astitch.full_backend);
    ("atm", Astitch_core.Astitch.atm_backend);
    ("hdm", Astitch_core.Astitch.hdm_backend);
  ]

let lookup_backend name =
  match List.assoc_opt (String.lowercase_ascii name) backends with
  | Some b -> Ok b
  | None ->
      Error
        (Printf.sprintf "unknown backend %s (try: %s)" name
           (String.concat ", " (List.map fst backends)))

let lookup_model name ~training ~tiny =
  match Astitch_workloads.Zoo.find name with
  | None ->
      Error
        (Printf.sprintf "unknown model %s (try: %s)" name
           (String.concat ", "
              (List.map
                 (fun (e : Astitch_workloads.Zoo.entry) -> e.name)
                 Astitch_workloads.Zoo.all)))
  | Some entry -> (
      match (training, tiny) with
      | true, true -> (
          match entry.tiny_training with
          | Some t -> Ok (t ())
          | None -> Error (entry.name ^ " has no tiny training graph"))
      | true, false -> (
          match entry.training with
          | Some t -> Ok (t ())
          | None -> Error (entry.name ^ " has no training graph"))
      | false, true -> Ok (entry.tiny ())
      | false, false -> Ok (entry.inference ()))

(* --- Common args ---------------------------------------------------------- *)

let model_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL"
         ~doc:"Workload name: CRNN, ASR, BERT, Transformer or DIEN.")

let backend_arg =
  Arg.(value & opt string "astitch" & info [ "b"; "backend" ] ~docv:"BACKEND"
         ~doc:"Backend: tf, xla, tvm, ansor, trt, astitch, atm or hdm.")

let training_arg =
  Arg.(value & flag & info [ "training" ] ~doc:"Use the training graph.")

let tiny_arg =
  Arg.(value & flag & info [ "tiny" ]
         ~doc:"Use the tiny test-size variant; with $(b,--training), the \
               tiny training graph.")

let arch_arg =
  Arg.(value & opt string "v100" & info [ "arch" ] ~docv:"ARCH"
         ~doc:"Device model: v100, t4 or a100.")

let fused_arg =
  Arg.(
    value
    & vflag true
        [
          ( true,
            info [ "fused" ]
              ~doc:
                "Execute stitched: register scalarization, per-block \
                 staging, arena buffers (default).  A kernel the engine \
                 cannot stitch runs with every op materialized; each \
                 fallback logs its reason to stderr." );
          ( false,
            info [ "no-fused" ]
              ~doc:
                "Execute unstitched on the same engine: every op \
                 materialized into its own arena buffer." );
        ])

let resilient_arg =
  Arg.(value & flag
       & info [ "resilient" ]
           ~doc:"Compile with per-cluster graceful degradation and print \
                 the degradation report.")

let inject_arg =
  Arg.(value & opt_all string []
       & info [ "inject" ] ~docv:"SITE:MODE[:SEED[:FUEL]]"
           ~doc:"Arm a deterministic fault (repeatable). Compile sites: \
                 clustering, dominant-merging, mem-planning, launch-config, \
                 codegen; runtime sites: kernel-exec, staged-restage, pack, \
                 unpack, worker-loop; modes: raise, corrupt, stall.")

let parse_injects specs =
  List.fold_left
    (fun acc s ->
      match acc with
      | Error _ -> acc
      | Ok ps -> (
          match Fault_site.plan_of_string s with
          | Some p -> Ok (ps @ [ p ])
          | None ->
              Error
                (Printf.sprintf
                   "bad --inject %S (want SITE:MODE[:SEED[:FUEL]]; sites: %s)"
                   s
                   (String.concat ", "
                      (List.map Fault_site.site_to_string
                         Fault_site.every_site)))))
    (Ok []) specs

(* Fault sites live in the AStitch passes; injecting into a baseline
   backend has no sites to hit. *)
let config_for_backend name =
  match String.lowercase_ascii name with
  | "astitch" -> Some Astitch_core.Config.full
  | "atm" -> Some Astitch_core.Config.atm_only
  | "hdm" -> Some Astitch_core.Config.no_dominant_merging
  | _ -> None

let with_arch name f =
  match Arch.by_name name with
  | Some arch -> f arch
  | None -> `Error (false, "unknown arch " ^ name)

(* --- Observability surface ------------------------------------------------- *)

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Collect compile/exec spans and write a Chrome trace-event \
                 JSON file (loadable in Perfetto or chrome://tracing).")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Print the metrics registry (counters, gauges, latency \
                 histograms with p50/p95/p99) when the command finishes.")

(* Install a trace sink around [f] when [--trace FILE] was given; on the
   way out export the collected records and, with [--metrics], print
   their aggregated summary and dump the process-wide registry.  The
   finally block runs even when [f] fails, so a trace of a crashing run
   is still written. *)
let with_obs ~trace ~metrics f =
  if trace <> None then Astitch_obs.Trace.install ();
  Fun.protect
    ~finally:(fun () ->
      (match trace with
      | Some path ->
          let records = Astitch_obs.Trace.uninstall () in
          Astitch_obs.Chrome_trace.to_file ~path records;
          Printf.printf "trace: %d records -> %s\n" (List.length records) path;
          if metrics then Format.printf "%a@." Astitch_obs.Summary.pp records
      | None -> ());
      if metrics then
        Format.printf "%a@." Astitch_obs.Metrics.pp Astitch_obs.Metrics.default)
    f

(* Every compile phase the stitch pipeline runs; [run --trace --check]
   requires each to appear in the exported file (the CI smoke job greps
   for the same list). *)
let required_phases =
  [
    "clustering";
    "remote-stitching";
    "dominant-grouping";
    "schedule-propagation";
    "locality-placement";
    "mem-planning";
    "launch-config";
    "codegen";
    "kernel-schedule";
    "run-context";
  ]

module J = Astitch_obs.Json_check

(* Read and parse a JSON file with the in-tree parser. *)
let read_json path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  J.parse text

(* A Chrome trace document's event array. *)
let trace_events root =
  match Option.bind (J.member "traceEvents" root) J.as_arr with
  | Some evs -> Ok evs
  | None -> Error "no traceEvents array"

(* Every event's (name, category), requiring the fields real consumers
   rely on: a name, a ph, a pid, and a ts on all but metadata events. *)
let event_names events =
  List.fold_left
    (fun acc ev ->
      Result.bind acc (fun acc ->
          let str key = Option.bind (J.member key ev) J.as_str in
          match (str "name", str "ph") with
          | Some name, Some ph ->
              if
                J.member "pid" ev = None
                || (J.member "ts" ev = None && ph <> "M")
              then Error (Printf.sprintf "event %S lacks pid/ts" name)
              else Ok ((name, Option.value ~default:"" (str "cat")) :: acc)
          | _ -> Error "event without name/ph"))
    (Ok []) events

(* Re-parse the exported file and assert it covers every compile phase
   and has at least one execution span per plan kernel. *)
let validate_trace path (plan : Kernel_plan.t) =
  let ( let* ) = Result.bind in
  let* events = Result.bind (read_json path) trace_events in
  let* names = event_names events in
  let* () =
    match
      List.filter
        (fun phase -> not (List.mem_assoc phase names))
        required_phases
    with
    | [] -> Ok ()
    | missing ->
        Error ("missing compile phases: " ^ String.concat ", " missing)
  in
  let* () =
    match
      List.filter
        (fun (k : Kernel_plan.kernel) ->
          not (List.exists (fun (n, c) -> n = k.name && c = "exec") names))
        plan.kernels
    with
    | [] -> Ok ()
    | ks ->
        Error
          ("kernels without an execution span: "
          ^ String.concat ", "
              (List.map (fun (k : Kernel_plan.kernel) -> k.name) ks))
  in
  Ok (List.length events)

(* --- Subcommands ------------------------------------------------------------ *)

let inspect model training tiny =
  match lookup_model model ~training ~tiny with
  | Error e -> `Error (false, e)
  | Ok g ->
      let st = Graph.stats g in
      Printf.printf "%s: %d ops\n" model st.total_ops;
      Printf.printf "  memory-intensive:  %d\n" st.memory_intensive_ops;
      Printf.printf "  compute-intensive: %d\n" st.compute_intensive_ops;
      Printf.printf "  reduces:           %d\n" st.reduce_ops;
      Printf.printf "  broadcasts:        %d\n" st.broadcast_ops;
      Printf.printf "  heavy element-wise:%d\n" st.heavy_elementwise_ops;
      let clusters = Clustering.clusters g in
      Printf.printf "  stitch scopes:     %d (largest %d ops)\n"
        (List.length clusters)
        (List.fold_left
           (fun acc (c : Clustering.cluster) ->
             Stdlib.max acc (List.length c.nodes))
           0 clusters);
      (* the groups a full compile lowers, and how many it compiles *)
      let groups = Array.of_list (Clustering.remote_stitch_groups g clusters) in
      let reps = Astitch_core.Scope_key.representatives g groups in
      Printf.printf "  remote-stitch groups: %d (%d distinct)\n" (Array.length groups)
        (List.length (List.sort_uniq Int.compare (Array.to_list reps)));
      `Ok ()

(* One driver: [--resilient] keeps the degradation report and prints
   it; otherwise an AStitch-family backend compiles with its config
   ([-j] included) and refuses to degrade, and a baseline backend
   compiles as it is.  The compile runs with the [--inject] faults
   armed. *)
let compile model backend training tiny arch resilient injects jobs =
  match
    (lookup_model model ~training ~tiny, lookup_backend backend,
     parse_injects injects)
  with
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> `Error (false, e)
  | Ok g, Ok b, Ok faults ->
      let config =
        Option.map
          (fun base ->
            {
              base with
              Astitch_core.Config.compile_domains =
                Astitch_core.Config.resolve_domains jobs;
            })
          (config_for_backend backend)
      in
      with_arch arch (fun arch ->
          let print_compile f =
            match Fault_site.with_faults faults f with
            | Error e -> `Error (false, Compile_error.to_string e)
            | Ok ((result : Session.result), report) ->
                Format.printf "%a@." Kernel_plan.pp result.plan;
                Option.iter
                  (Format.printf "%a@." Astitch_core.Degradation.pp_report)
                  report;
                Format.printf "%a@." Profile.pp_breakdown result.profile;
                `Ok ()
          in
          match config with
          | None when resilient ->
              `Error (false, "--resilient needs an AStitch-family backend \
                              (astitch, atm or hdm)")
          | None when faults <> [] ->
              `Error (false, "--inject without --resilient needs an \
                              AStitch-family backend (astitch, atm or hdm)")
          | Some config when resilient ->
              print_compile (fun () ->
                  Result.map
                    (fun (r : Session.resilient) -> (r.result, Some r.report))
                    (Session.compile_resilient ~config arch g))
          | _ ->
              let b =
                match config with
                | Some config -> Astitch_core.Astitch.backend ~config ()
                | None -> b
              in
              print_compile (fun () ->
                  match Session.compile b arch g with
                  | r -> Ok (r, None)
                  | exception Compile_error.Error e -> Error e))

let log_fallbacks ctx =
  List.iter
    (fun (kernel, reason) ->
      Printf.eprintf "fallback: kernel %s -> every op materialized (%s)\n%!"
        kernel reason)
    (Executor.context_fallbacks ctx)

let run_model model backend training tiny arch seed repeat fused profile_exec
    trace metrics check =
  match (lookup_model model ~training ~tiny, lookup_backend backend) with
  | Error e, _ | _, Error e -> `Error (false, e)
  | Ok _, Ok _ when check && trace = None ->
      `Error (false, "--check needs --trace FILE")
  | Ok g, Ok b ->
      with_arch arch (fun arch ->
          let plan =
          with_obs ~trace ~metrics (fun () ->
          let repeat = Stdlib.max 1 repeat in
          let r = Session.compile b arch g in
          (* --profile-exec, --metrics and --trace all need per-kernel wall
             time, so any of them implies a timed context: wall_ns is never
             silently zero in a profiled report *)
          let timed = profile_exec || metrics || trace <> None in
          let ctx = Executor.create_context ~fused ~timed r.Session.plan in
          log_fallbacks ctx;
          let params = Session.random_params ~seed g in
          let outputs = ref [] in
          let w0 = Gc.minor_words () in
          let t0 = Astitch_obs.Clock.monotonic_ns () in
          for _ = 1 to repeat do
            outputs := Executor.run_context ctx ~params
          done;
          let per_run_us =
            float_of_int (Astitch_obs.Clock.monotonic_ns () - t0)
            /. 1e3 /. float_of_int repeat
          in
          let per_run_words =
            (Gc.minor_words () -. w0) /. float_of_int repeat
          in
          List.iteri
            (fun i t ->
              let data = Astitch_tensor.Tensor.data t in
              let sum = Array.fold_left ( +. ) 0. data in
              Printf.printf "output %d: shape %s  sum %.6g\n" i
                (Shape.to_string (Astitch_tensor.Tensor.shape t))
                sum)
            !outputs;
          Printf.printf
            "%d run(s), %.1f us/run, %.0f minor words/run, %s execution\n"
            repeat per_run_us per_run_words
            (if fused then "fused" else "unstitched");
          if profile_exec || metrics then
            Profile.publish_exec (Executor.exec_report ctx);
          if profile_exec then
            Format.printf "%a@." Profile.pp_exec (Executor.exec_report ctx);
          r.Session.plan)
          in
          match trace with
          | Some path when check -> (
              match validate_trace path plan with
              | Ok n ->
                  Printf.printf
                    "check: OK (%d events, all %d compile phases, %d \
                     kernels covered)\n"
                    n
                    (List.length required_phases)
                    (List.length plan.Kernel_plan.kernels);
                  `Ok ()
              | Error e -> `Error (false, "trace check failed: " ^ e))
          | _ -> `Ok ())

let cuda model backend training tiny arch =
  match (lookup_model model ~training ~tiny, lookup_backend backend) with
  | Error e, _ | _, Error e -> `Error (false, e)
  | Ok g, Ok b ->
      with_arch arch (fun arch ->
          let r = Session.compile b arch g in
          print_string (Astitch_core.Codegen.emit_plan r.plan);
          `Ok ())

let dot model training tiny =
  match lookup_model model ~training ~tiny with
  | Error e -> `Error (false, e)
  | Ok g ->
      print_string (Dot.to_string g);
      `Ok ()

let compare_cmd model training tiny arch resilient injects fused trace metrics
    =
  match (lookup_model model ~training ~tiny, parse_injects injects) with
  | Error e, _ | _, Error e -> `Error (false, e)
  | Ok g, Ok faults ->
      with_arch arch (fun arch ->
          with_obs ~trace ~metrics (fun () ->
          let params = Session.random_params ~seed:11 g in
          Printf.printf "%-10s %10s %8s %14s %14s %12s\n" "backend" "kernels"
            "CPY" "time (us)" "vs TF"
            (if fused then "run (us)" else "unst-run (us)");
          let tf_time = ref 0. in
          let print_row name (r : Session.result) =
            let t = r.profile.Profile.total_time_us in
            if name = "tf" then tf_time := t;
            (* measured execution of this backend's plan, median of 3 *)
            let ctx = Executor.create_context ~fused r.Session.plan in
            log_fallbacks ctx;
            ignore (Executor.run_context ctx ~params);
            let samples =
              Array.init 3 (fun _ ->
                  let t0 = Astitch_obs.Clock.now_us () in
                  ignore
                    (Sys.opaque_identity (Executor.run_context ctx ~params));
                  Astitch_obs.Clock.now_us () -. t0)
            in
            Array.sort compare samples;
            Printf.printf "%-10s %10d %8d %14.1f %13.2fx %12.1f\n" name
              (Profile.mem_kernel_count r.profile)
              (Kernel_plan.cpy_count r.plan)
              t
              (if !tf_time > 0. then !tf_time /. t else 1.)
              samples.(1)
          in
          List.iter (fun (name, b) -> print_row name (Session.compile b arch g))
            backends;
          if resilient then begin
            match
              Fault_site.with_faults faults (fun () ->
                  Session.compile_resilient arch g)
            with
            | Error e -> `Error (false, Compile_error.to_string e)
            | Ok { result; report } ->
                print_row "resilient" result;
                Format.printf "%a@." Astitch_core.Degradation.pp_report report;
                `Ok ()
          end
          else `Ok ()))

let explain model backend training tiny arch top =
  match (lookup_model model ~training ~tiny, lookup_backend backend) with
  | Error e, _ | _, Error e -> `Error (false, e)
  | Ok g, Ok b ->
      with_arch arch (fun arch ->
          let r = Session.compile b arch g in
          Format.printf "%a@.@." Profile.pp_breakdown r.profile;
          Printf.printf "%-22s %-8s %-18s %6s %6s %9s %9s %9s %4s\n" "kernel"
            "kind" "launch" "occ" "sm-eff" "mem(us)" "comp(us)" "exec(us)"
            "bar";
          List.iteri
            (fun i (kp : Profile.kernel_profile) ->
              if i < top then begin
                let k = kp.kernel in
                Printf.printf "%-22s %-8s %-18s %5.0f%% %5.0f%% %9.2f %9.2f %9.2f %4d\n"
                  (if String.length k.name > 22 then String.sub k.name 0 22
                   else k.name)
                  (match k.kind with
                  | Kernel_plan.Codegen -> "codegen"
                  | Kernel_plan.Library -> "library"
                  | Kernel_plan.Copy -> "copy")
                  (Printf.sprintf "<<<%d,%d>>>" k.launch.Launch.grid
                     k.launch.Launch.block)
                  (100. *. kp.estimate.occupancy)
                  (100. *. kp.estimate.sm_efficiency)
                  kp.estimate.memory_time_us kp.estimate.compute_time_us
                  kp.estimate.exec_time_us k.barriers
              end)
            (List.sort
               (fun (a : Profile.kernel_profile) b ->
                 compare b.estimate.exec_time_us a.estimate.exec_time_us)
               r.profile.kernels);
          `Ok ())

let text model training tiny simplify =
  match lookup_model model ~training ~tiny with
  | Error e -> `Error (false, e)
  | Ok g ->
      let g =
        if simplify then begin
          let g', stats = Simplify.run g in
          Format.eprintf "# simplified: %a@." Simplify.pp_stats stats;
          g'
        end
        else g
      in
      print_string (Text_format.to_string g);
      `Ok ()

let parse_file path backend arch =
  match lookup_backend backend with
  | Error e -> `Error (false, e)
  | Ok b ->
      with_arch arch (fun arch ->
          let ic = open_in path in
          let len = in_channel_length ic in
          let text = really_input_string ic len in
          close_in ic;
          match Text_format.parse text with
          | exception Text_format.Parse_error m -> `Error (false, m)
          | g ->
              Graph.validate g;
              let r = Session.compile b arch g in
              Format.printf "%a@." Kernel_plan.pp r.plan;
              Format.printf "%a@." Profile.pp_breakdown r.profile;
              `Ok ())

let bench experiment trace metrics =
  let module E = Astitch_experiments.Experiments in
  with_obs ~trace ~metrics (fun () ->
      match
        match experiment with None -> E.run_all () | Some id -> E.run id
      with
      | () -> `Ok ()
      | exception Compile_error.Error e ->
          `Error (false, Compile_error.to_string e))

(* --- Serving ---------------------------------------------------------------- *)

(* Serving traces carry batch spans, not compile phases: require
   well-formed trace-event JSON with at least one "serve"-category span
   (the per-batch execution record the smoke test relies on). *)
let validate_serve_trace path =
  let ( let* ) = Result.bind in
  let* events = Result.bind (read_json path) trace_events in
  let* names = event_names events in
  if List.exists (fun (_, cat) -> cat = "serve") names then
    Ok (List.length events)
  else Error "no serve-phase batch span in the trace"

(* An incident dump is a self-contained Chrome trace whose trigger event
   rides inside: require valid JSON, a traceEvents array, and at least
   one phase-"incident" instant (the marker [Flight.incident] emits). *)
let validate_incident_dump path =
  let ( let* ) = Result.bind in
  let* root = read_json path in
  let* events =
    Result.map_error (fun e -> path ^ ": " ^ e) (trace_events root)
  in
  if
    List.exists
      (fun ev -> Option.bind (J.member "cat" ev) J.as_str = Some "incident")
      events
  then Ok ()
  else Error (path ^ ": no incident marker event in the dump")

let validate_stats_json path =
  match read_json path with
  | Error e -> Error (path ^ ": " ^ e)
  | Ok root ->
      if
        Option.bind (J.member "schema" root) J.as_str
        = Some "astitch-serve-stats-v1"
      then Ok ()
      else Error (path ^ ": missing/wrong schema field")

let write_serve_stats_json ~path server =
  let module Serve = Astitch_serve.Serve in
  let module Flight = Astitch_obs.Flight in
  let s = Serve.stats server in
  let sup = Serve.supervision server in
  let d = Serve.disposition server in
  let obj fields = "{" ^ String.concat "," fields ^ "}" in
  let num name v = Printf.sprintf "\"%s\":%d" name v in
  let flt name v = Printf.sprintf "\"%s\":%.3f" name v in
  let str name v = Printf.sprintf "\"%s\":\"%s\"" name v in
  let phase_row (r : Serve.phase_latency) =
    obj
      [
        str "phase" r.phase; num "count" r.count; flt "mean_us" r.mean_us;
        flt "p50_us" r.p50_us; flt "p95_us" r.p95_us; flt "p99_us" r.p99_us;
        flt "max_us" r.max_us;
      ]
  in
  let doc =
    obj
      [
        str "schema" "astitch-serve-stats-v1";
        "\"stats\":"
        ^ obj
            [
              num "submitted" s.submitted; num "rejected" s.rejected;
              num "shed" s.shed; num "completed" s.completed;
              num "failed" s.failed; num "degraded" s.degraded;
              num "batches" s.batches; num "padded_rows" s.padded_rows;
              num "plan_compiles" s.plan_compiles;
              num "outstanding" s.outstanding;
              num "queue_depth" s.queue_depth;
              num "max_depth_seen" s.max_depth_seen;
              num "retried" s.retried; num "duplicates" s.duplicates;
              num "breaker_opens" s.breaker_opens;
              num "breaker_closes" s.breaker_closes;
            ];
        "\"supervision\":"
        ^ obj
            [
              num "restarts" sup.Serve.restarts;
              num "quarantined" sup.Serve.quarantined;
              num "wedged" sup.Serve.wedged;
              num "workers_alive" sup.Serve.workers_alive;
            ];
        "\"disposition\":"
        ^ obj
            [
              num "served" d.Serve.served; num "degraded" d.Serve.d_degraded;
              num "failed" d.Serve.d_failed;
              num "overloaded" d.Serve.overloaded;
              num "rejected" d.Serve.d_rejected; num "lost" d.Serve.lost;
            ];
        "\"phases\":["
        ^ String.concat "," (List.map phase_row (Serve.latency_breakdown ()))
        ^ "]";
        "\"flight\":"
        ^ obj
            [
              num "dumps" (List.length (Flight.dump_paths ()));
              num "suppressed" (Flight.suppressed ());
            ];
      ]
  in
  let oc = open_out path in
  output_string oc doc;
  output_char oc '\n';
  close_out oc

(* The p99 "blame" table: which lifecycle phase owns the tail.  The
   share column uses phase totals (mean x count), which - unlike
   quantiles - are additive and sum to the end-to-end total. *)
let print_blame_table () =
  let module Serve = Astitch_serve.Serve in
  let rows = Serve.latency_breakdown () in
  let e2e_total =
    List.fold_left
      (fun acc (r : Serve.phase_latency) ->
        if r.phase = "request" then r.mean_us *. float_of_int r.count else acc)
      0. rows
  in
  Printf.printf "p99 blame (per lifecycle phase):\n";
  Printf.printf "  %-10s %7s %9s %9s %9s %9s %9s %7s\n" "phase" "n" "mean_us"
    "p50_us" "p95_us" "p99_us" "max_us" "share";
  List.iter
    (fun (r : Serve.phase_latency) ->
      let share =
        if e2e_total <= 0. then 0.
        else 100. *. r.mean_us *. float_of_int r.count /. e2e_total
      in
      Printf.printf "  %-10s %7d %9.1f %9.0f %9.0f %9.0f %9.0f %6.1f%%\n"
        r.phase r.count r.mean_us r.p50_us r.p95_us r.p99_us r.max_us share)
    rows

let resolve_serve_models names =
  let names = if names = [] then [ "ASR"; "DIEN" ] else names in
  List.fold_left
    (fun acc name ->
      Result.bind acc (fun acc ->
          match Astitch_workloads.Zoo.find name with
          | Some e ->
              Ok ({ Astitch_serve.Serve.name = e.name; build = e.batched } :: acc)
          | None -> Error ("unknown model " ^ name)))
    (Ok []) names
  |> Result.map List.rev

let hist_line name =
  let h = Astitch_obs.Metrics.histogram Astitch_obs.Metrics.default name in
  let q p = Astitch_obs.Metrics.quantile h p in
  Printf.sprintf "p50 %.0f  p95 %.0f  p99 %.0f  (n=%d)" (q 0.5) (q 0.95)
    (q 0.99)
    (Astitch_obs.Metrics.hist_count h)

(* Chaos mode arms every runtime fault site at once, seeded: alternating
   raise/corrupt across the sites, two firings each.  Deterministic per
   [--seed], so a CI failure replays exactly. *)
let chaos_plans seed =
  List.mapi
    (fun i site ->
      Fault_site.plan site
        ~mode:
          (if (seed + i) mod 2 = 0 then Fault_site.Raise
           else Fault_site.Corrupt)
        ~seed:(seed + (7 * i)) ~fuel:2)
    Fault_site.runtime_sites

(* --- Serving traffic -------------------------------------------------------- *)

(* The traffic and pool-shape flags. *)
type traffic = {
  workers : int;
  max_batch : int;
  max_wait_us : float;
  queue_depth : int;
  requests : int;
  arrival : float;
  seed : int;
  check : bool;
}

(* Skewed popularity: model i draws traffic proportional to 1/(i+1)
   (first-listed model is hottest), the popularity benchmark/'s serving
   workloads use, so CLI runs and benchmark runs stress the same
   scheduler paths. *)
let skewed_pick st names =
  let n = Array.length names in
  let weights = Array.init n (fun i -> 1. /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let u = Random.State.float st total in
  let rec go i acc =
    if i >= n - 1 then names.(n - 1)
    else
      let acc = acc +. weights.(i) in
      if u < acc then names.(i) else go (i + 1) acc
  in
  go 0 0.

(* Open loop: request i arrives at its own scheduled time (exponential
   inter-arrivals at [arrival] req/s), whether or not earlier requests
   finished - so overload builds queue depth instead of slowing the
   generator.  Each request draws its gap, then its model (skewed
   popularity over [names]), from one state seeded by [--seed], so a
   seed replays the same model sequence.  Every admitted ticket is
   awaited once the queue has drained, and a failed one is printed; the
   server's ledger counts every outcome.  Returns the wall time from
   the first submission to the drained queue, in seconds. *)
let drive (t : traffic) zoo names =
  let module Request = Astitch_serve.Request in
  let module Zoo = Astitch_serve.Zoo in
  let st = Random.State.make [| t.seed |] in
  let t0 = Astitch_obs.Clock.now_us () in
  let clock = ref 0. in
  let tickets =
    List.filter_map
      (fun i ->
        (if t.arrival > 0. then begin
           let gap =
             -.Float.log (1. -. Random.State.float st 1.) /. t.arrival
           in
           clock := !clock +. (gap *. 1e6);
           let until = t0 +. !clock -. Astitch_obs.Clock.now_us () in
           if until > 0. then Unix.sleepf (until *. 1e-6)
         end);
        let model = skewed_pick st names in
        let params =
          Astitch_serve.Serve.random_request (Zoo.server zoo) ~model
            ~seed:(t.seed + i)
        in
        match Zoo.submit_async zoo ~model ~params with
        | Ok ticket -> Some (i, ticket)
        | Error _ -> None)
      (List.init t.requests Fun.id)
  in
  Zoo.drain zoo;
  let wall = (Astitch_obs.Clock.now_us () -. t0) *. 1e-6 in
  List.iter
    (fun (i, ticket) ->
      match Zoo.await zoo ticket with
      | Request.Failed m -> Printf.printf "request %d FAILED: %s\n" i m
      | Request.Done _ | Request.Overloaded _ -> ())
    tickets;
  wall

(* The --check verdict: the supervision contract (nothing failed,
   something completed, every generated request completed, shed,
   failed or refused, none lost), then the run's
   [extra] (violated, reason) pairs, then the emitted files re-parsed. *)
let check_run (t : traffic) (s : Astitch_serve.Serve.stats) ~lost ~extra
    ~trace ~dumps ~stats_json =
  let accounted = s.completed + s.failed + s.shed + s.rejected in
  let contract =
    [
      (s.failed > 0, Printf.sprintf "%d requests failed" s.failed);
      (s.completed = 0, "nothing completed");
      ( accounted <> t.requests,
        Printf.sprintf "%d of %d requests unaccounted for"
          (t.requests - accounted) t.requests );
      (lost <> 0, Printf.sprintf "%d requests lost" lost);
    ]
  in
  if not t.check then `Ok ()
  else
    match List.find_opt fst (contract @ extra) with
    | Some (_, reason) -> `Error (false, "check: " ^ reason)
    | None -> (
        let ( let* ) = Result.bind in
        let invalid what =
          Result.map_error (Printf.sprintf "check: %s invalid: %s" what)
        in
        let files =
          let* events =
            invalid "trace"
              (Option.fold ~none:(Ok 0) ~some:validate_serve_trace trace)
          in
          let* () =
            invalid "incident dump"
              (List.fold_left
                 (fun acc p ->
                   Result.bind acc (fun () -> validate_incident_dump p))
                 (Ok ()) dumps)
          in
          let* () =
            invalid "stats json"
              (Option.fold ~none:(Ok ()) ~some:validate_stats_json stats_json)
          in
          Ok events
        in
        match files with
        | Error e -> `Error (false, e)
        | Ok events ->
            Printf.printf "check: OK (%d completed, 0 failed, 0 lost%s%s)\n"
              s.completed
              (if trace = None then ""
               else Printf.sprintf ", %d trace events" events)
              (if dumps = [] then ""
               else
                 Printf.sprintf ", %d incident dumps valid"
                   (List.length dumps));
            `Ok ())

let parse_slo_specs specs =
  List.fold_left
    (fun acc spec ->
      Result.bind acc (fun acc ->
          match String.index_opt spec '=' with
          | None ->
              Error
                (Printf.sprintf
                   "bad --slo %S (want MODEL=CLASS, e.g. ASR=latency:20000)"
                   spec)
          | Some i ->
              let model = String.sub spec 0 i in
              let cls =
                String.sub spec (i + 1) (String.length spec - i - 1)
              in
              if List.mem_assoc model acc then
                Error (Printf.sprintf "duplicate --slo for model %s" model)
              else (
                match Astitch_serve.Slo.of_string cls with
                | Ok s -> Ok (acc @ [ (model, s) ])
                | Error e -> Error (Printf.sprintf "bad --slo %S: %s" spec e))))
    (Ok []) specs

(* --- The serve command ------------------------------------------------------ *)

(* Every run is a zoo: each model registered under its --slo class
   (best-effort when unlisted), plans loaded from --plan-dir or compiled
   by prewarm before traffic starts, and one pool of worker domains
   behind one scheduler. *)
let serve_cmd_impl models slo_specs plan_dir verify_plans expect_warm
    fair_share_floor (t : traffic) verify_every arch trace metrics chaos
    injects retry_budget breaker_threshold blame stats_json recorder =
  match
    (resolve_serve_models models, parse_slo_specs slo_specs,
     parse_injects injects)
  with
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> `Error (false, e)
  | Ok models, Ok specs, Ok inject_plans -> (
      let module Serve = Astitch_serve.Serve in
      let module Slo = Astitch_serve.Slo in
      let module Zoo = Astitch_serve.Zoo in
      let module Flight = Astitch_obs.Flight in
      let names = List.map (fun (m : Serve.model) -> m.name) models in
      match List.find_opt (fun (m, _) -> not (List.mem m names)) specs with
      | Some (m, _) ->
          `Error (false, Printf.sprintf "--slo names unserved model %s" m)
      | None ->
          with_arch arch (fun arch ->
              let registrations =
                List.map
                  (fun (m : Serve.model) ->
                    ( m,
                      Option.value ~default:Slo.Best_effort
                        (List.assoc_opt m.name specs) ))
                  models
              in
              let config =
                {
                  Zoo.serve =
                    {
                      Serve.default_config with
                      workers = t.workers;
                      max_batch = t.max_batch;
                      max_wait_us = t.max_wait_us;
                      queue_depth = t.queue_depth;
                      arch;
                      verify_every;
                      seed = t.seed;
                      retry_budget;
                      breaker_threshold;
                      fair_share_floor;
                    };
                  plan_dir;
                  verify_plans;
                }
              in
              let fault_plans =
                inject_plans @ if chaos then chaos_plans t.seed else []
              in
              (* [Serve.create] refuses a bad config (no worker domain,
                 an empty batch or queue...) with [Invalid_argument]
                 before it takes any resource *)
              match
                with_obs ~trace ~metrics (fun () ->
                    Fault_site.with_faults fault_plans (fun () ->
                        let zoo = Zoo.create ~config registrations in
                        let server = Zoo.server zoo in
                        let n_models = List.length models in
                        Printf.printf
                          "serve: %d model%s, %d workers, max-batch %d, \
                           max wait %.0fus, depth %d, floor %.3f%s\n\
                           %!"
                          n_models
                          (if n_models = 1 then "" else "s")
                          t.workers t.max_batch t.max_wait_us t.queue_depth
                          fair_share_floor
                          (match plan_dir with
                          | None -> ""
                          | Some d -> Printf.sprintf ", plan-dir %s" d);
                        List.iter
                          (fun ((m : Serve.model), slo) ->
                            Printf.printf "  %-12s %s\n%!" m.name
                              (Slo.to_string slo))
                          registrations;
                        if fault_plans <> [] then
                          Printf.printf "chaos: %s\n%!"
                            (String.concat " "
                               (List.map Fault_site.plan_to_string
                                  fault_plans));
                        let t_pre = Astitch_obs.Clock.now_us () in
                        (* a compile-site [--inject] can make prewarm's
                           strict compile refuse: stop the server, then
                           report the structured error *)
                        let p =
                          try Zoo.prewarm zoo
                          with e ->
                            Zoo.shutdown zoo;
                            raise e
                        in
                        Printf.printf
                          "prewarm: %.0f ms  loaded %d  verified %d  \
                           rejected %d  saved %d\n"
                          ((Astitch_obs.Clock.now_us () -. t_pre) *. 1e-3)
                          p.loaded p.verified p.rejected p.saved;
                        (* The line the CI smoke job greps: a restart
                           against a warm store must print "cold
                           compiles: 0". *)
                        Printf.printf "cold compiles: %d\n%!" p.compiled;
                        (* The recorder is armed only now, after
                           prewarm, so its dumps hold traffic. *)
                        (match recorder with
                        | None -> ()
                        | Some dir ->
                            (try Unix.mkdir dir 0o755
                             with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
                            Flight.arm ~dir ();
                            Printf.printf "flight recorder: armed -> %s\n%!"
                              dir);
                        (* Every plan compile passes through [Session]:
                           its counter's rise across traffic is what a
                           warm store promises to keep at 0. *)
                        let session_compiles () =
                          Astitch_obs.Metrics.(
                            value (counter default "session.compiles"))
                        in
                        let compiles0 = session_compiles () in
                        let wall = drive t zoo (Array.of_list names) in
                        let traffic_compiles =
                          session_compiles () - compiles0
                        in
                        Zoo.shutdown zoo;
                        let s = Serve.stats server in
                        let sup = Serve.supervision server in
                        let d = Serve.disposition server in
                        Printf.printf "admitted %d  rejected %d  shed %d\n"
                          s.submitted s.rejected s.shed;
                        Printf.printf "completed %d  degraded %d  failed %d\n"
                          s.completed s.degraded s.failed;
                        Printf.printf
                          "retried %d  restarts %d  quarantined %d  wedged \
                           %d  breaker open/close %d/%d\n"
                          s.retried sup.restarts sup.quarantined sup.wedged
                          s.breaker_opens s.breaker_closes;
                        Printf.printf
                          "floor picks %d  displaced %d  shed-at-admission \
                           %d  lost %d\n"
                          s.floor_picks s.displaced s.shed_admission d.lost;
                        Printf.printf
                          "batches %d  mean batch %.2f  max queue depth %d\n"
                          s.batches
                          (Astitch_obs.Metrics.hist_mean
                             (Astitch_obs.Metrics.histogram
                                Astitch_obs.Metrics.default "serve.batch_size"))
                          s.max_depth_seen;
                        Printf.printf
                          "plan compiles %d  contexts %s\n"
                          s.plan_compiles
                          (String.concat " "
                             (List.map
                                (fun (name, n) -> Printf.sprintf "%s=%d" name n)
                                (Serve.context_pool_sizes server)));
                        Printf.printf "compiles during traffic: %d\n"
                          traffic_compiles;
                        Printf.printf "wall %.3fs  throughput %.1f req/s\n"
                          wall
                          (float_of_int s.completed /. Float.max wall 1e-9);
                        Printf.printf "latency us:    %s\n"
                          (hist_line "serve.request_us");
                        Printf.printf "queue wait us: %s\n"
                          (hist_line "serve.queue_us");
                        Printf.printf
                          "  %-12s %5s %5s %5s %5s %5s %5s %9s %8s %8s %8s \
                           %9s\n"
                          "class" "sub" "done" "shed" "rej" "fail" "met"
                          "mean_us" "p50" "p95" "p99" "goodput/s";
                        List.iter
                          (fun (c : Astitch_serve.Scheduler.class_stats) ->
                            Printf.printf
                              "  %-12s %5d %5d %5d %5d %5d %5d %9.0f %8.0f \
                               %8.0f %8.0f %9.1f\n"
                              c.cls c.submitted c.completed c.shed c.rejected
                              c.failed c.deadline_met c.mean_us c.p50_us
                              c.p95_us c.p99_us
                              (float_of_int c.deadline_met
                              /. Float.max wall 1e-9))
                          (Zoo.class_stats zoo);
                        if blame then print_blame_table ();
                        (match stats_json with
                        | None -> ()
                        | Some path ->
                            write_serve_stats_json ~path server;
                            Printf.printf "stats json -> %s\n" path);
                        (s, d.lost, p, traffic_compiles)))
              with
              | exception Invalid_argument e -> `Error (false, e)
              | exception Compile_error.Error e ->
                  `Error (false, Compile_error.to_string e)
              | s, lost, (p : Zoo.prewarm), traffic_compiles ->
                  let dumps =
                    match recorder with
                    | None -> []
                    | Some _ ->
                        let ps = Flight.dump_paths () in
                        let sup = Flight.suppressed () in
                        Flight.disarm ();
                        Printf.printf "flight recorder: %d incident dump%s%s\n"
                          (List.length ps)
                          (if List.length ps = 1 then "" else "s")
                          (if sup = 0 then ""
                           else
                             Printf.sprintf " (%d suppressed past the limit)"
                               sup);
                        List.iter (fun p -> Printf.printf "  %s\n" p) ps;
                        ps
                  in
                  check_run t s ~lost ~trace ~dumps ~stats_json
                    ~extra:
                      [
                        ( verify_plans && p.rejected > 0,
                          Printf.sprintf "%d plans failed the bit-identity gate"
                            p.rejected );
                        ( expect_warm && p.compiled > 0,
                          Printf.sprintf
                            "expected a warm store but prewarm compiled %d \
                             plans"
                            p.compiled );
                        ( expect_warm && traffic_compiles > 0,
                          Printf.sprintf
                            "%d compiles during traffic (warm store promises \
                             0)"
                            traffic_compiles );
                      ]))

(* --- Command wiring ----------------------------------------------------------- *)

let inspect_cmd =
  Cmd.v
    (Cmd.info "inspect" ~doc:"Show graph statistics for a workload")
    Term.(ret (const inspect $ model_arg $ training_arg $ tiny_arg))

let jobs_arg =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Compile cluster groups on N domains (AStitch-family \
               backends; plans are identical at any setting).  0 means \
               auto: the machine's recommended domain count, uncapped.")

let compile_cmd =
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a workload and print the kernel plan")
    Term.(
      ret
        (const compile $ model_arg $ backend_arg $ training_arg $ tiny_arg
       $ arch_arg $ resilient_arg $ inject_arg $ jobs_arg))

let cuda_cmd =
  Cmd.v
    (Cmd.info "cuda" ~doc:"Emit pseudo-CUDA for a compiled workload")
    Term.(
      ret (const cuda $ model_arg $ backend_arg $ training_arg $ tiny_arg $ arch_arg))

let dot_cmd =
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit Graphviz for a workload graph")
    Term.(ret (const dot $ model_arg $ training_arg $ tiny_arg))

let compare_cmds =
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare every backend on one workload")
    Term.(
      ret
        (const compare_cmd $ model_arg $ training_arg $ tiny_arg $ arch_arg
       $ resilient_arg $ inject_arg $ fused_arg $ trace_arg $ metrics_arg))

let run_cmd =
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
           ~doc:"Seed for the random parameter values.")
  in
  let run_repeat_arg =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N"
           ~doc:"Execute N times on the prepared context and report the \
                 mean per-run wall time.")
  in
  let profile_exec_arg =
    Arg.(value & flag
         & info [ "profile-exec" ]
             ~doc:"Print per-kernel execution counters: wall time, bytes \
                   materialized vs scalarized/staged, arena high-water \
                   mark.")
  in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"With $(b,--trace): re-parse the written file and fail \
                   unless it is valid JSON covering every compile phase and \
                   one execution span per kernel.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Compile a workload and execute it on random parameters")
    Term.(
      ret
        (const run_model $ model_arg $ backend_arg $ training_arg $ tiny_arg
       $ arch_arg $ seed_arg $ run_repeat_arg $ fused_arg
       $ profile_exec_arg $ trace_arg $ metrics_arg $ check_arg))

let bench_cmd =
  let exp_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"EXPERIMENT"
           ~doc:"Experiment id (fig1, fig11a, table3, ...); all if omitted.")
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Reproduce the paper's tables and figures")
    Term.(ret (const bench $ exp_arg $ trace_arg $ metrics_arg))

let explain_cmd =
  let top_arg =
    Arg.(value & opt int 20 & info [ "top" ] ~docv:"N"
           ~doc:"Show the N most expensive kernels.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Per-kernel cost breakdown of a compiled workload")
    Term.(
      ret
        (const explain $ model_arg $ backend_arg $ training_arg $ tiny_arg
       $ arch_arg $ top_arg))

let text_cmd =
  let simplify_arg =
    Arg.(value & flag & info [ "simplify" ]
           ~doc:"Run the simplification pass before printing.")
  in
  Cmd.v
    (Cmd.info "text" ~doc:"Emit the textual IR of a workload graph")
    Term.(ret (const text $ model_arg $ training_arg $ tiny_arg $ simplify_arg))

let parse_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Path to a graph in the textual IR format.")
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse a textual-IR file, compile and profile it")
    Term.(ret (const parse_file $ file_arg $ backend_arg $ arch_arg))

(* The traffic and pool-shape flags of serve. *)
let traffic_term =
  let workers =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N"
           ~doc:"Worker domains executing batches (at least 1).")
  in
  let max_batch =
    Arg.(value & opt int 8 & info [ "max-batch" ] ~docv:"N"
           ~doc:"Largest batch a dispatch may take.  Batches execute at \
                 exactly their request count (no padding): \
                 shape-polymorphic models compile once at this size and \
                 rebind to any smaller batch.")
  in
  let max_wait_us =
    Arg.(value & opt float 2000. & info [ "max-wait-us" ] ~docv:"US"
           ~doc:"Upper bound on batching: a request is never held longer \
                 than this waiting for batchmates.  Within it, a partial \
                 batch is held for one measured batch service time of its \
                 model, and a model with no measured batch yet dispatches \
                 at once.")
  in
  let queue_depth =
    Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"N"
           ~doc:"Admission-control bound across models: past this backlog, \
                 submissions are refused with a structured overload \
                 instead of queuing (a full queue first displaces a \
                 lower-class entry to admit a higher-class arrival).")
  in
  let requests =
    Arg.(value & opt int 100 & info [ "requests" ] ~docv:"N"
           ~doc:"Total synthetic requests, drawn with skewed popularity \
                 (model i gets weight 1/(i+1): the first-listed model is \
                 hottest).")
  in
  let arrival =
    Arg.(value & opt float 0. & info [ "arrival" ] ~docv:"RATE"
           ~doc:"Open-loop arrival rate in requests/second (exponential \
                 inter-arrivals); 0 submits as fast as possible.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
           ~doc:"Seed for weights, request payloads, arrivals and the \
                 popularity draws.")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Exit non-zero unless every request is accounted for \
                   (completed, shed or refused) with none failed or lost; \
                   also re-parse every emitted file \
                   (--trace, --recorder dumps, --stats-json).  Composes \
                   with --verify-plans (no gate rejections) and \
                   --expect-warm (zero cold compiles).")
  in
  Term.(
    const
      (fun workers max_batch max_wait_us queue_depth requests arrival seed
           check ->
        {
          workers;
          max_batch;
          max_wait_us;
          queue_depth;
          requests;
          arrival;
          seed;
          check;
        })
    $ workers $ max_batch $ max_wait_us $ queue_depth $ requests $ arrival
    $ seed $ check)

let serve_cmd =
  let models_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"MODEL"
           ~doc:"Zoo models to serve (default: ASR DIEN).")
  in
  let slo_arg =
    Arg.(value & opt_all string []
         & info [ "slo" ] ~docv:"MODEL=CLASS"
             ~doc:"SLO class for a model (repeatable): \
                   MODEL=latency:DEADLINE_US, MODEL=throughput or \
                   MODEL=best-effort.  Unlisted models are best-effort.  A \
                   latency class's deadline is every request's deadline; \
                   expired requests are shed, not executed.")
  in
  let plan_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "plan-dir" ] ~docv:"DIR"
             ~doc:"Persistent plan store: prewarm loads each model's plan \
                   from DIR instead of compiling (saving fresh compiles \
                   back).  A restart against the same DIR reports \"cold \
                   compiles: 0\".")
  in
  let verify_plans_arg =
    Arg.(value & flag
         & info [ "verify-plans" ]
             ~doc:"Bit-identity gate: recompile every store-loaded plan and \
                   require its canonical encoding to equal the fresh \
                   compile's, discarding mismatches.  Costs the compiles \
                   the store was saving - a verification mode, not the \
                   serving default.")
  in
  let expect_warm_arg =
    Arg.(value & flag
         & info [ "expect-warm" ]
             ~doc:"With --check: fail unless prewarm compiled nothing \
                   (every plan came from the store) and no plan compiled \
                   while serving traffic (the \"compiles during traffic\" \
                   line, counted at each compile).")
  in
  let floor_arg =
    Arg.(value & opt float 0.125 & info [ "fair-share-floor" ] ~docv:"F"
           ~doc:"Fraction of dispatches reserved for the least-served \
                 model, so best-effort tenants keep making progress under \
                 overload (0 = pure strict priority).  Applies only when \
                 the models span two or more SLO classes.")
  in
  let verify_arg =
    Arg.(value & opt int 0 & info [ "verify-every" ] ~docv:"N"
           ~doc:"Every Nth batch, check its first request's outputs \
                 against the reference interpreter, bit for bit (0 = off).")
  in
  let chaos_arg =
    Arg.(value & flag
         & info [ "chaos" ]
             ~doc:"Arm every runtime fault site (kernel-exec, \
                   staged-restage, pack, unpack, worker-loop) with seeded \
                   raise/corrupt faults while serving; supervision must \
                   keep every request accounted for.")
  in
  let retry_budget_arg =
    Arg.(value & opt int 2 & info [ "retry-budget" ] ~docv:"N"
           ~doc:"Failed batch executions a request survives before the \
                 reference interpreter serves it alone.")
  in
  let breaker_arg =
    Arg.(value & opt int 4 & info [ "breaker-threshold" ] ~docv:"N"
           ~doc:"Consecutive batch failures that open a model's circuit \
                 breaker (0 disables breakers).")
  in
  let blame_arg =
    Arg.(value & flag
         & info [ "blame" ]
             ~doc:"Print the tail-latency blame table: per-lifecycle-phase \
                   (queue, batch wait, pack, exec, unpack) latency \
                   quantiles and each phase's share of total end-to-end \
                   time.")
  in
  let stats_json_arg =
    Arg.(value & opt (some string) None
         & info [ "stats-json" ] ~docv:"FILE"
             ~doc:"Write the final serving statistics (counters, \
                   supervision, request disposition, per-phase latency \
                   percentiles) as a JSON document.")
  in
  let recorder_arg =
    Arg.(value & opt (some string) None
         & info [ "recorder" ] ~docv:"DIR"
             ~doc:"Arm the black-box flight recorder once prewarm is done: \
                   the trace sink is dumped into DIR as a Chrome-trace \
                   file whenever an incident fires (batch failure, \
                   quarantine, breaker open, worker death, wedge steal).  \
                   Without --trace a bounded sink of 4096 recent records \
                   per domain is installed; with --trace each dump holds \
                   everything the trace holds.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve models from one supervised worker pool under SLO-class \
             scheduling, with an optional persistent plan store, driven by \
             a synthetic open-loop request generator")
    Term.(
      ret
        (const serve_cmd_impl $ models_arg $ slo_arg $ plan_dir_arg
       $ verify_plans_arg $ expect_warm_arg $ floor_arg $ traffic_term
       $ verify_arg $ arch_arg $ trace_arg $ metrics_arg $ chaos_arg
       $ inject_arg $ retry_budget_arg $ breaker_arg $ blame_arg
       $ stats_json_arg $ recorder_arg))

let main =
  Cmd.group
    (Cmd.info "astitch_cli" ~version:"1.0"
       ~doc:"AStitch (ASPLOS'22) reproduction: ML-compiler stitching on a \
             simulated SIMT GPU")
    [
      inspect_cmd; compile_cmd; run_cmd; cuda_cmd; dot_cmd; compare_cmds;
      bench_cmd; text_cmd; parse_cmd; explain_cmd; serve_cmd;
    ]

let () = exit (Cmd.eval main)
