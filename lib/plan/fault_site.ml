(* Deterministic fault injection for the compilation pipeline AND the
   serving/execution runtime.

   Robustness testing needs to prove one invariant per layer.  Compile
   path: under any injected fault, compilation either degrades to a plan
   that still executes to interpreter-identical values or returns a
   structured [Compile_error] — it never crashes with a bare exception
   and never silently produces wrong numerics.  Runtime path: under any
   injected fault, every admitted serving request still resolves to a
   structured outcome (served, shed, or failed — never lost), and no
   corrupted value is ever delivered (a batch during which a fault fired
   is discarded and retried).

   To exercise that, the main passes and the hot execution points carry
   named injection sites; arming a site makes it raise a structured
   error, deterministically corrupt the site's result (seeded, so
   failures replay), or stall (a seeded sleep — the wedged-worker
   simulation supervision must detect).

   A fault carries [fuel]: the number of site hits it fires on before
   exhausting.  One unit of fuel fails the first compile attempt and lets
   the per-cluster retry succeed; more fuel pushes the degradation ladder
   further down.  The terminal fallbacks deliberately avoid every
   instrumented site — kernel-per-op compilation for the compile ladder,
   the reference interpreter for the serving ladder — so both ladders
   always terminate.

   The registry is shared by compile domains and serving worker domains,
   so fuel and the firing counter are atomics: a fault with fuel [n]
   fires at most [n] times no matter how many domains race on it. *)

type site =
  (* compile pipeline *)
  | Clustering (* stitch-scope identification *)
  | Dominant_merging (* dominant identification + op grouping *)
  | Mem_planning (* shared-memory budget + scratch arena *)
  | Launch_config (* resource-aware launch configuration *)
  | Codegen (* kernel finalization / emission *)
  (* serving runtime *)
  | Kernel_exec (* per-kernel execution in a pooled context *)
  | Staged_restage (* shared-memory slab staging (Regional scheme) *)
  | Pack (* request concat/pad into a batch *)
  | Unpack (* output slicing back to requests *)
  | Worker_loop (* the worker domain's dispatch loop itself *)

(* [all_sites] keeps its historical meaning — the compile-pipeline
   sites — because the resilience sweeps index into it positionally.
   Runtime sweeps use [runtime_sites]; [every_site] is the union. *)
let all_sites =
  [ Clustering; Dominant_merging; Mem_planning; Launch_config; Codegen ]

let runtime_sites = [ Kernel_exec; Staged_restage; Pack; Unpack; Worker_loop ]
let every_site = all_sites @ runtime_sites

let is_runtime_site = function
  | Kernel_exec | Staged_restage | Pack | Unpack | Worker_loop -> true
  | Clustering | Dominant_merging | Mem_planning | Launch_config | Codegen ->
      false

let site_to_string = function
  | Clustering -> "clustering"
  | Dominant_merging -> "dominant-merging"
  | Mem_planning -> "mem-planning"
  | Launch_config -> "launch-config"
  | Codegen -> "codegen"
  | Kernel_exec -> "kernel-exec"
  | Staged_restage -> "staged-restage"
  | Pack -> "pack"
  | Unpack -> "unpack"
  | Worker_loop -> "worker-loop"

let site_of_string s =
  match String.lowercase_ascii s with
  | "clustering" -> Some Clustering
  | "dominant-merging" | "dominant" -> Some Dominant_merging
  | "mem-planning" | "mem" -> Some Mem_planning
  | "launch-config" | "launch" -> Some Launch_config
  | "codegen" -> Some Codegen
  | "kernel-exec" | "exec" -> Some Kernel_exec
  | "staged-restage" | "restage" -> Some Staged_restage
  | "pack" -> Some Pack
  | "unpack" -> Some Unpack
  | "worker-loop" | "worker" -> Some Worker_loop
  | _ -> None

type mode = Raise | Corrupt | Stall

let mode_to_string = function
  | Raise -> "raise"
  | Corrupt -> "corrupt"
  | Stall -> "stall"

let mode_of_string s =
  match String.lowercase_ascii s with
  | "raise" -> Some Raise
  | "corrupt" -> Some Corrupt
  | "stall" -> Some Stall
  | _ -> None

type plan = { site : site; mode : mode; seed : int; fuel : int }

let plan ?(mode = Raise) ?(seed = 0) ?(fuel = 1) site =
  { site; mode; seed; fuel }

(* Parse "site:mode[:seed[:fuel]]", the CLI's --inject syntax. *)
let plan_of_string s =
  match String.split_on_char ':' s with
  | [] -> None
  | site :: rest -> (
      match (site_of_string site, rest) with
      | None, _ -> None
      | Some site, [] -> Some (plan site)
      | Some site, mode :: nums -> (
          let int s = int_of_string_opt (String.trim s) in
          match (mode_of_string mode, List.map int nums) with
          | Some mode, [] -> Some (plan ~mode site)
          | Some mode, [ Some seed ] -> Some (plan ~mode ~seed site)
          | Some mode, [ Some seed; Some fuel ] ->
              Some (plan ~mode ~seed ~fuel site)
          | _ -> None))

let plan_to_string p =
  Printf.sprintf "%s:%s:%d:%d" (site_to_string p.site) (mode_to_string p.mode)
    p.seed p.fuel

exception Runtime_fault of { site : site; seed : int; pass : string }

let () =
  Printexc.register_printer (function
    | Runtime_fault { site; seed; pass } ->
        Some
          (Printf.sprintf "injected runtime fault at site %s during %s (seed %d)"
             (site_to_string site) pass seed)
    | _ -> None)

(* A stall sleeps a seeded 1-10ms: long enough to trip a test-scale
   wedge timeout deterministically, short enough to keep sweeps fast. *)
let stall_s seed = 0.001 *. (1. +. float_of_int (abs seed mod 10))

(* Armed faults (remaining fuel tracked per plan) and the firing
   counter. *)
let armed : (plan * int Atomic.t) list ref = ref []
let fired_count = Atomic.make 0

(* Arm (replacing the armed set, resetting the counter), run, disarm -
   even on exceptions.  The only way faults are armed. *)
let with_faults plans f =
  armed := List.map (fun p -> (p, Atomic.make p.fuel)) plans;
  Atomic.set fired_count 0;
  Fun.protect ~finally:(fun () -> armed := []) f

let fired () = Atomic.get fired_count

let compile_active () =
  List.exists
    (fun ((p : plan), fuel) ->
      (not (is_runtime_site p.site)) && Atomic.get fuel > 0)
    !armed

(* Claim one unit of fuel; the compare-and-set loop makes "fires at most
   [fuel] times" hold under concurrent domains. *)
let rec take_fuel fuel =
  let v = Atomic.get fuel in
  if v <= 0 then false
  else if Atomic.compare_and_set fuel v (v - 1) then true
  else take_fuel fuel

let rec first_armed site = function
  | [] -> None
  | ((p : plan), fuel) :: rest ->
      if p.site = site && take_fuel fuel then Some p else first_armed site rest

let record_fired site (p : plan) pass =
  Atomic.incr fired_count;
  Astitch_obs.Metrics.(inc (counter default "fault.fired"));
  if Astitch_obs.Trace.enabled () then
    Astitch_obs.Trace.instant ~phase:"fault" "fault-fired"
      ~attrs:
        [
          ("site", Astitch_obs.Trace.Str (site_to_string site));
          ("mode", Astitch_obs.Trace.Str (mode_to_string p.mode));
          ("pass", Astitch_obs.Trace.Str pass);
          ("seed", Astitch_obs.Trace.Int p.seed);
        ]

(* Consult the registry at a compile-pass instrumentation point.
   Returns [Some seed] when an armed [Corrupt] fault fires (the pass
   then perturbs its result deterministically from the seed); raises a
   structured error when an armed [Raise] fault fires; sleeps and
   returns [None] for [Stall]; returns [None] otherwise. *)
let check site ~pass =
  match first_armed site !armed with
  | None -> None
  | Some p -> (
      record_fired site p pass;
      match p.mode with
      | Corrupt -> Some p.seed
      | Stall ->
          Unix.sleepf (stall_s p.seed);
          None
      | Raise ->
          Compile_error.fail ~pass Compile_error.Injected_fault
            "injected fault at site %s (seed %d)" (site_to_string site)
            p.seed)

(* The runtime counterpart: same firing discipline, but [Raise] throws
   [Runtime_fault] (a runtime exception the serving supervision catches)
   instead of a [Compile_error], so compile-path error taxonomy stays
   honest about where a failure came from. *)
let check_runtime site ~pass =
  match first_armed site !armed with
  | None -> None
  | Some p -> (
      record_fired site p pass;
      match p.mode with
      | Corrupt -> Some p.seed
      | Stall ->
          Unix.sleepf (stall_s p.seed);
          None
      | Raise -> raise (Runtime_fault { site; seed = p.seed; pass }))

(* What a fired [Corrupt] fault does to data, wherever it fires: one
   cell, picked by the seed, moves by 1 + (seed land 0xff). *)
let corrupt arr seed =
  let n = Array.length arr in
  if n > 0 then begin
    let i = abs seed mod n in
    arr.(i) <- arr.(i) +. 1.0 +. float_of_int (seed land 0xff)
  end
