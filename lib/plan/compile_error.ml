(* Structured compile errors.

   The production-JIT posture (paper Sec 6.3: thousands of jobs weekly)
   demands that a stitching failure never surface as a bare [Failure] or
   [Invalid_argument]: every compile path reports *which pass* failed, on
   *which cluster*, with *which invariant violations* over *which ops*, so
   the resilience layer can retry just the offending cluster and callers
   can log something actionable.  [check_all]-style validators return
   [violation list]s instead of raising on the first problem. *)

open Astitch_ir

type kind =
  | Invalid_structure (* topological / availability / placement invariants *)
  | Shared_mem_overflow (* regional buffers exceed the declared footprint *)
  | Barrier_deadlock (* global barrier with grid > one wave *)
  | Unlaunchable (* launch exceeds device resource limits *)
  | Scratch_aliasing (* two live scratch buffers overlap *)
  | Empty_cluster (* a stitch scope with no ops *)
  | Pass_exception (* a compiler pass raised a bare exception *)
  | Injected_fault (* a fault-injection site fired (testing only) *)
  | Unknown_name (* lookup of a model / backend / experiment failed *)

let kind_to_string = function
  | Invalid_structure -> "invalid-structure"
  | Shared_mem_overflow -> "shared-mem-overflow"
  | Barrier_deadlock -> "barrier-deadlock"
  | Unlaunchable -> "unlaunchable"
  | Scratch_aliasing -> "scratch-aliasing"
  | Empty_cluster -> "empty-cluster"
  | Pass_exception -> "pass-exception"
  | Injected_fault -> "injected-fault"
  | Unknown_name -> "unknown-name"

type violation = {
  kind : kind;
  message : string;
  where : string option; (* kernel / cluster name, when per-kernel *)
  ops : Op.node_id list; (* offending ops, when attributable *)
}

type t = {
  pass : string; (* compiler pass that failed, e.g. "mem-planning" *)
  cluster : string option; (* stitch scope being compiled, if any *)
  violations : violation list; (* at least one *)
}

exception Error of t

let violation ?(ops = []) ?where kind fmt =
  Format.kasprintf (fun message -> { kind; message; where; ops }) fmt

let make ?cluster ~pass violations = { pass; cluster; violations }

let error ?cluster ~pass violations = Error (make ?cluster ~pass violations)

let fail ?cluster ?(ops = []) ~pass kind fmt =
  Format.kasprintf
    (fun message ->
      raise
        (Error
           {
             pass;
             cluster;
             violations = [ { kind; message; where = cluster; ops } ];
           }))
    fmt

(* Wrap an arbitrary exception into a structured error.  Structured errors
   pass through untouched so the innermost attribution survives. *)
let of_exn ?cluster ~pass = function
  | Error t -> t
  | e ->
      {
        pass;
        cluster;
        violations =
          [
            {
              kind = Pass_exception;
              message = Printexc.to_string e;
              where = cluster;
              ops = [];
            };
          ];
      }

(* Run [f], converting any bare exception into a structured [Error].
   Genuine resource exhaustion is not a compile error and propagates. *)
let guard ?cluster ~pass f =
  try f () with
  | Error _ as e -> raise e
  | (Stack_overflow | Out_of_memory) as e -> raise e
  | e -> raise (Error (of_exn ?cluster ~pass e))

let protect ?cluster ~pass f =
  match guard ?cluster ~pass f with v -> Ok v | exception Error t -> Error t

let pp_violation fmt v =
  Format.fprintf fmt "[%s]%s %s" (kind_to_string v.kind)
    (match v.where with Some w -> " " ^ w ^ ":" | None -> "")
    v.message;
  match v.ops with
  | [] -> ()
  | ops ->
      Format.fprintf fmt " (ops:%s)"
        (String.concat ","
           (List.map (fun id -> Printf.sprintf " %%%d" id) ops))

let pp fmt t =
  Format.fprintf fmt "compile error in pass %s%s:" t.pass
    (match t.cluster with Some c -> " on cluster " ^ c | None -> "");
  List.iter (fun v -> Format.fprintf fmt "@.  %a" pp_violation v) t.violations

let to_string t = Format.asprintf "%a" pp t

let () =
  Printexc.register_printer (function
    | Error t -> Some (to_string t)
    | _ -> None)
