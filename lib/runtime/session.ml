(* Compile-and-run convenience: the "session" a user of the library drives,
   and the comparison harness the benchmarks are built on. *)

open Astitch_ir
open Astitch_tensor
open Astitch_plan
module Trace = Astitch_obs.Trace

type result = {
  backend_name : string;
  plan : Kernel_plan.t;
  profile : Profile.t;
}

(* Every plan compiled through a session counts once here: [serve]
   reads it around traffic to check a warm store's promise that no
   plan compiles while requests flow. *)
let compiles = Astitch_obs.Metrics.(counter default "session.compiles")

let compile (backend : Backend_intf.t) arch g =
  Astitch_obs.Metrics.inc compiles;
  let attrs =
    if Trace.enabled () then
      [
        ("backend", Trace.Str backend.Backend_intf.name);
        ("arch", Trace.Str arch.Astitch_simt.Arch.name);
      ]
    else []
  in
  Trace.with_span ~phase:"session" "compile" ~attrs (fun () ->
      let plan = backend.compile arch g in
      let profile =
        Trace.with_span ~phase:"session" "profile-estimate" (fun () ->
            Profile.profile ~config:backend.cost_config plan)
      in
      { backend_name = backend.name; plan; profile })

type resilient = {
  result : result;
  report : Astitch_core.Degradation.report;
}

(* Compile with per-cluster graceful degradation: scopes that fail at
   full strength fall down the ladder alone, the rest of the graph stays
   fully stitched, and the report says what was lost.  [Astitch.compile]
   runs the same driver and refuses any report that is not empty. *)
let compile_resilient ?(config = Astitch_core.Config.full) arch g =
  Astitch_obs.Metrics.inc compiles;
  let attrs =
    if Trace.enabled () then
      [ ("arch", Trace.Str arch.Astitch_simt.Arch.name) ]
    else []
  in
  Trace.with_span ~phase:"session" "compile-resilient" ~attrs (fun () ->
      match Astitch_core.Fallback.compile config arch g with
      | Error e -> Error e
      | Ok (plan, report) ->
          let profile =
            Trace.with_span ~phase:"session" "profile-estimate" (fun () ->
                Profile.profile ~config:Astitch_core.Astitch.cost_config plan)
          in
          Ok
            {
              result = { backend_name = "AStitch-resilient"; plan; profile };
              report;
            })

let run ?(check = true) (backend : Backend_intf.t) arch g ~params =
  let result = compile backend arch g in
  let outputs =
    if check then Executor.run_and_check result.plan ~params
    else Executor.run result.plan ~params
  in
  (outputs, result)

(* Deterministic random bindings for every graph parameter. *)
let random_params ?(seed = 42) g =
  List.mapi
    (fun i id ->
      match Graph.op g id with
      | Op.Parameter { name } ->
          (name, Tensor.random ~seed:(seed + (31 * i)) (Graph.shape g id))
      | _ -> assert false)
    (Graph.parameters g)

(* Compare several backends on one graph; returns results in input order. *)
let compare_backends backends arch g =
  List.map (fun b -> compile b arch g) backends

let speedup ~baseline ~contender =
  baseline.profile.Profile.total_time_us
  /. contender.profile.Profile.total_time_us
