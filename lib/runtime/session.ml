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

(* Every plan compiled through a session, cached or not, counts once
   here: [serve] reads it around traffic to check a warm store's
   promise that no plan compiles while requests flow. *)
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

(* --- Compile-once caching ---------------------------------------------

   Serving recompiles the same models; both compile entry points get a
   cached variant over one cache type, keyed by canonical graph
   fingerprint x architecture x compiler identity.  Soundness of
   serving a hit verbatim rests on the fingerprint (structurally
   identical live graphs) and on never caching anything that is not a
   full-strength compile.  A compile that starts with compile-site
   faults armed ([Fault_site.with_faults]) neither reads nor fills the
   cache, so its faults fire instead of a clean plan coming back;
   faults armed during a compile are caught by the Fault_site arming
   epoch/firing counter, degraded resilient compiles by a non-empty
   report.  All of them count as cache bypasses. *)

type cache = result Plan_cache.t

let make_cache () : cache = Plan_cache.create ()

(* Did a fault-injection window open during this compile - another
   domain arming while it ran?  Arming bumps the epoch and resets the
   firing counters, so comparing epoch and compile firing counter
   around the compile catches a window even when it closed before the
   compile returned.  Only compile-site faults matter here: a serving
   process with runtime-site faults armed (chaos mode) still produces
   full-strength plans, and refusing to cache them would silently turn
   chaos runs into compile-bound ones. *)
let with_fault_watch f =
  let epoch0 = Fault_site.epoch () and fired0 = Fault_site.compile_fired () in
  let x = f () in
  let clean =
    (not (Fault_site.compile_active ()))
    && Fault_site.epoch () = epoch0
    && Fault_site.compile_fired () = fired0
  in
  (x, clean)

let bypass (cache : cache) compile =
  Plan_cache.note_bypass cache;
  (compile (), Plan_cache.Bypassed)

let cache_key (backend : Backend_intf.t) arch g =
  Plan_cache.key
    ~fingerprint:(Fingerprint.of_graph g)
    ~arch:arch.Astitch_simt.Arch.name ~config:backend.Backend_intf.name

(* Rebuild a full session result around a plan that was NOT just
   compiled - one deserialized from the plan store.  The profile is
   deterministic from the plan and the backend's cost config, so
   recomputing it is exact; crucially this path neither compiles nor
   counts in [session.compiles], which is what lets a warm restart
   prove "zero cold compiles". *)
let result_of_plan (backend : Backend_intf.t) plan =
  {
    backend_name = backend.Backend_intf.name;
    plan;
    profile = Profile.profile ~config:backend.Backend_intf.cost_config plan;
  }

(* Seed the cache with an externally produced result (a store-loaded
   plan that already passed the bit-identity gate), so the first real
   checkout hits instead of compiling. *)
let precache (cache : cache) (backend : Backend_intf.t) arch g result =
  Plan_cache.add cache (cache_key backend arch g) result

(* A compile that raises is counted as a bypass, as
   [compile_resilient_cached] counts an [Error]. *)
let compile_cached (cache : cache) (backend : Backend_intf.t) arch g =
  if Fault_site.compile_active () then
    bypass cache (fun () -> compile backend arch g)
  else
    Plan_cache.find_or_compute cache (cache_key backend arch g)
      ~compute:(fun () ->
        try with_fault_watch (fun () -> compile backend arch g)
        with Compile_error.Error _ as e ->
          Plan_cache.note_bypass cache;
          raise e)

(* Quarantine's cache invalidation: when a batch served from a cached plan
   produced corrupt output, drop the plan so the next checkout
   recompiles it instead of trusting the suspect artifact. *)
let uncache (cache : cache) (backend : Backend_intf.t) arch g =
  Plan_cache.remove cache (cache_key backend arch g)

(* Only full-strength results are filed, so a hit is one with an empty
   degradation report: the cache stores the result alone. *)
let compile_resilient_cached ?(config = Astitch_core.Config.full)
    (cache : cache) arch g =
  if Fault_site.compile_active () then
    bypass cache (fun () -> compile_resilient ~config arch g)
  else
    let key =
      Plan_cache.key
        ~fingerprint:(Fingerprint.of_graph g)
        ~arch:arch.Astitch_simt.Arch.name
        ~config:(Astitch_core.Config.cache_key config)
    in
    match Plan_cache.find cache key with
    | Some result -> (Ok { result; report = [] }, Plan_cache.Hit)
    | None -> (
        match with_fault_watch (fun () -> compile_resilient ~config arch g) with
        | (Ok r as compiled), true
          when Astitch_core.Degradation.is_empty r.report ->
            Plan_cache.add cache key r.result;
            (compiled, Plan_cache.Miss)
        | compiled, _ ->
            Plan_cache.note_bypass cache;
            (compiled, Plan_cache.Bypassed))

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
