(* Degradation ladder bookkeeping for the resilient pipeline.

   When a stitch scope cannot be compiled at full strength (a pass raised
   or an invariant failed), the resilience
   layer retries that scope alone with progressively safer strategies
   while the rest of the graph stays fully stitched.  Every step down the
   ladder is recorded as an event so production logs say exactly which
   scope lost which capability and why — the paper's production-JIT
   posture (Sec 6.3) applied to compiler failures instead of crashes. *)

open Astitch_plan

type level =
  | Remote (* remote-stitched kernel spanning several clusters *)
  | Stitched (* full AStitch: regional/global schemes, one cluster *)
  | Regional (* global schemes demoted to device memory *)
  | Local (* registers + device memory only *)
  | Fusion (* XLA-style fusion cuts over the scope *)
  | Kernel_per_op (* terminal: one kernel per op, always compiles *)

let level_to_string = function
  | Remote -> "remote"
  | Stitched -> "stitched"
  | Regional -> "regional"
  | Local -> "local"
  | Fusion -> "fusion"
  | Kernel_per_op -> "kernel-per-op"

type event = {
  cluster : string; (* scope name, e.g. "stitch_op_3.1" *)
  from_level : level;
  to_level : level;
  error : Compile_error.t; (* why the higher level was rejected *)
}

type report = event list

let is_empty (r : report) = r = []

let pp_event fmt e =
  Format.fprintf fmt "%s: %s -> %s (%s in pass %s)" e.cluster
    (level_to_string e.from_level)
    (level_to_string e.to_level)
    (match e.error.Compile_error.violations with
    | v :: _ -> Compile_error.kind_to_string v.Compile_error.kind
    | [] -> "unknown")
    e.error.Compile_error.pass

let pp_report fmt (r : report) =
  match r with
  | [] -> Format.fprintf fmt "no degradation: all scopes fully stitched"
  | events ->
      Format.fprintf fmt "%d degradation event(s):" (List.length events);
      List.iter (fun e -> Format.fprintf fmt "@.  %a" pp_event e) events

let to_string r = Format.asprintf "%a" pp_report r
