(* The resilience contract (robustness PR):
   - under any injected fault, compilation either degrades to an
     interpreter-identical plan or returns a structured [Compile_error.t]
     -- never a bare exception, never silent wrong numerics;
   - with no faults, [Session.compile_resilient] is byte-identical to the
     plain AStitch compile and the degradation report is empty;
   - the plain compile is the same driver refusing to degrade: under a
     fault that degrades it raises the first event's structured error;
   - persistent faults (huge fuel at every site) still terminate at the
     kernel-per-op floor;
   - no backend lets a bare [Failure]/[Invalid_argument] escape through
     [Backend_intf.compile_result];
   - satellite units: non-raising [Pattern] probes, [combine_parts] on an
     empty group, [Fault.plan_of_string] round-trips. *)

open Astitch_ir
open Astitch_simt
open Astitch_plan
open Astitch_runtime

module Fault = Fault_site

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let arch = Arch.v100

let plan_to_string plan =
  Format.asprintf "%a" Kernel_plan.pp plan

(* --- Fault sweep: 5 sites x 100 seeds ------------------------------------ *)

(* The acceptance bar: every (site, seed) either compiles to a plan that
   matches the reference interpreter or returns a structured error. *)
let test_fault_sweep () =
  let ok = ref 0 and degraded = ref 0 and err = ref 0 in
  List.iter
    (fun site ->
      for seed = 0 to 99 do
        let mode = if seed mod 2 = 0 then Fault.Raise else Fault.Corrupt in
        let fuel = 1 + (seed mod 3) in
        let g =
          Astitch_workloads.Synthetic.random_graph ~seed ~nodes:40 ()
        in
        let faults = [ Fault.plan ~mode ~seed ~fuel site ] in
        match
          Fault.with_faults faults (fun () -> Session.compile_resilient arch g)
        with
        | Ok r ->
            incr ok;
            if not (Astitch_core.Degradation.is_empty r.report) then
              incr degraded;
            let params = Session.random_params g in
            ignore (Executor.run_and_check r.result.plan ~params)
        | Error _ -> incr err
        | exception e ->
            Alcotest.failf "site %s seed %d raised: %s"
              (Fault.site_to_string site) seed (Printexc.to_string e)
      done)
    Fault.all_sites;
  check_int "all 500 runs accounted for" 500 (!ok + !err);
  (* the ladder must actually be exercised, not just error out *)
  check "most runs still compile" true (!ok >= 450);
  check "some runs degrade" true (!degraded > 0)

(* --- No-fault identity ---------------------------------------------------- *)

let test_no_fault_identity () =
  List.iter
    (fun (e : Astitch_workloads.Zoo.entry) ->
      let g = e.tiny () in
      match Session.compile_resilient arch g with
      | Error err ->
          Alcotest.failf "%s: %s" e.name (Compile_error.to_string err)
      | Ok r ->
          check (e.name ^ " report empty") true
            (Astitch_core.Degradation.is_empty r.report);
          let plain = Astitch_core.Astitch.full_backend.compile arch g in
          Alcotest.(check string)
            (e.name ^ " plan identical")
            (plan_to_string plain)
            (plan_to_string r.result.plan))
    Astitch_workloads.Zoo.all

(* --- Strict compile refuses degradation ----------------------------------- *)

(* [Astitch.compile] and [Session.compile_resilient] run one driver:
   where the resilient compile records a step down, the strict one raises
   that step's error, structured, and never a bare exception. *)
let test_strict_refuses_degradation () =
  List.iter
    (fun fault ->
      List.iter
        (fun (e : Astitch_workloads.Zoo.entry) ->
          let g = e.tiny () in
          let armed f = Fault.with_faults [ fault ] f in
          let label = e.name ^ " " ^ Fault.plan_to_string fault in
          let first =
            match armed (fun () -> Session.compile_resilient arch g) with
            | Ok { report = first :: _; _ } ->
                first.Astitch_core.Degradation.error
            | Ok _ -> Alcotest.failf "%s: fault did not degrade" label
            | Error err ->
                Alcotest.failf "%s: %s" label (Compile_error.to_string err)
          in
          match armed (fun () -> Astitch_core.Astitch.compile arch g) with
          | _ ->
              Alcotest.failf "%s: strict compile accepted a degradation" label
          | exception Compile_error.Error err ->
              Alcotest.(check string) (label ^ " pass") first.pass err.pass;
              check (label ^ " first violation") true
                (List.hd err.violations = List.hd first.violations);
              (* every fault here trips a group's top rung; a corrupt
                 kernel is rejected by the check where it is made *)
              check (label ^ " caught at the top rung") true
                (List.mem err.pass
                   [ "codegen"; "remote-stitching"; "stitch-compile" ])
          | exception ex ->
              Alcotest.failf "%s: bare exception %s" label
                (Printexc.to_string ex))
        Astitch_workloads.Zoo.all)
    [
      Fault.plan ~mode:Fault.Raise Fault.Codegen;
      Fault.plan ~mode:Fault.Corrupt Fault.Codegen;
      (* the blown register estimate raises a bare exception in a pass *)
      Fault.plan ~mode:Fault.Corrupt Fault.Launch_config;
    ]

(* --- Persistent faults terminate ------------------------------------------ *)

(* Every site armed at once with effectively infinite fuel: the ladder
   must still bottom out (the kernel-per-op floor touches no fault site)
   with interpreter-identical numerics. *)
let test_persistent_faults_terminate () =
  List.iter
    (fun mode ->
      List.iter
        (fun (e : Astitch_workloads.Zoo.entry) ->
          let g = e.tiny () in
          let faults =
            List.map
              (fun site -> Fault.plan ~mode ~seed:7 ~fuel:10_000 site)
              Fault.all_sites
          in
          match
            Fault.with_faults faults (fun () -> Session.compile_resilient arch g)
          with
          | Error _ -> ()
          | Ok r ->
              check
                (e.name ^ " degraded under persistent faults")
                true
                (not (Astitch_core.Degradation.is_empty r.report));
              let params = Session.random_params g in
              ignore (Executor.run_and_check r.result.plan ~params)
          | exception ex ->
              Alcotest.failf "%s (%s) raised: %s" e.name
                (Fault.mode_to_string mode) (Printexc.to_string ex))
        Astitch_workloads.Zoo.all)
    [ Fault.Raise; Fault.Corrupt ]

(* --- Structured errors only (qcheck) -------------------------------------- *)

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

(* [compile_result] never raises, and faults armed around any backend only
   ever surface as [Ok] or structured [Error] -- in particular the
   AStitch-family backends, which pass through the instrumented sites. *)
let prop_structured_errors_only =
  QCheck2.Test.make ~name:"compile_result never lets an exception escape"
    ~count:100
    QCheck2.Gen.(
      triple (int_range 0 10_000) (int_range 20 60) (int_range 0 9))
    (fun (seed, nodes, site_ix) ->
      let g = Astitch_workloads.Synthetic.random_graph ~seed ~nodes () in
      let site = List.nth Fault.all_sites (site_ix mod 5) in
      let mode = if site_ix < 5 then Fault.Raise else Fault.Corrupt in
      let faults = [ Fault.plan ~mode ~seed ~fuel:2 site ] in
      List.for_all
        (fun (name, b) ->
          match
            Fault.with_faults faults (fun () ->
                Backend_intf.compile_result b arch g)
          with
          | Ok _ | Error _ -> true
          | exception e ->
              QCheck2.Test.fail_reportf "backend %s raised on seed %d: %s"
                name seed (Printexc.to_string e))
        backends)

(* [wrap] keeps the exception flow but narrows it to [Compile_error.Error]. *)
let prop_wrap_only_compile_error =
  QCheck2.Test.make ~name:"wrapped backends raise only Compile_error.Error"
    ~count:60
    QCheck2.Gen.(pair (int_range 0 5_000) (int_range 0 4))
    (fun (seed, site_ix) ->
      let g = Astitch_workloads.Synthetic.random_graph ~seed ~nodes:40 () in
      let site = List.nth Fault.all_sites site_ix in
      let faults = [ Fault.plan ~mode:Fault.Raise ~seed ~fuel:1 site ] in
      List.for_all
        (fun (name, b) ->
          let wrapped = Backend_intf.wrap b in
          match
            Fault.with_faults faults (fun () -> wrapped.compile arch g)
          with
          | _ -> true
          | exception Compile_error.Error _ -> true
          | exception e ->
              QCheck2.Test.fail_reportf "backend %s leaked %s on seed %d"
                name (Printexc.to_string e) seed)
        backends)

(* --- Satellite units ------------------------------------------------------ *)

let test_pattern_opt () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 6; 8 ] in
  let row = Builder.reduce_sum b ~axes:[ 1 ] x in
  let y = Builder.add b row row in
  let g = Builder.finish b ~outputs:[ y ] in
  check "reduce layout Some" true
    (Pattern.reduce_layout_opt g row = Some Pattern.Row_reduce);
  check "reduce geometry Some" true
    (Pattern.reduce_geometry_opt g row = Some (6, 8));
  check "non-reduce layout None" true (Pattern.reduce_layout_opt g y = None);
  check "non-reduce geometry None" true
    (Pattern.reduce_geometry_opt g y = None);
  (* the raising variants still raise, for callers that matched on it *)
  check "raising variant raises" true
    (match Pattern.reduce_layout g y with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_combine_parts_empty () =
  check "empty group combines to None" true
    (Astitch_core.Stitch_backend.combine_parts arch ~name:"empty" [] = None)

let test_fault_plan_round_trip () =
  List.iter
    (fun site ->
      List.iter
        (fun mode ->
          let p = Fault.plan ~mode ~seed:3 ~fuel:2 site in
          check
            (Fault.plan_to_string p ^ " round-trips")
            true
            (Fault.plan_of_string (Fault.plan_to_string p) = Some p))
        [ Fault.Raise; Fault.Corrupt ])
    Fault.all_sites;
  (* defaults and malformed specs *)
  check "site-only spec" true
    (Fault.plan_of_string "codegen" = Some (Fault.plan Fault.Codegen));
  check "unknown site rejected" true
    (Fault.plan_of_string "nonsense:raise" = None);
  check "unknown mode rejected" true
    (Fault.plan_of_string "codegen:explode" = None);
  check "non-numeric seed rejected" true
    (Fault.plan_of_string "codegen:raise:abc" = None)

let () =
  Alcotest.run "resilience"
    [
      ( "faults",
        [
          Alcotest.test_case "sweep 5 sites x 100 seeds" `Slow
            test_fault_sweep;
          Alcotest.test_case "persistent faults terminate" `Quick
            test_persistent_faults_terminate;
        ] );
      ( "identity",
        [
          Alcotest.test_case "no-fault plans match plain compile" `Quick
            test_no_fault_identity;
          Alcotest.test_case "strict compile refuses degradation" `Quick
            test_strict_refuses_degradation;
        ] );
      ( "contract",
        List.map QCheck_alcotest.to_alcotest
          [ prop_structured_errors_only; prop_wrap_only_compile_error ] );
      ( "satellites",
        [
          Alcotest.test_case "pattern opt probes" `Quick test_pattern_opt;
          Alcotest.test_case "combine_parts empty" `Quick
            test_combine_parts_empty;
          Alcotest.test_case "fault plan round-trip" `Quick
            test_fault_plan_round_trip;
        ] );
    ]
