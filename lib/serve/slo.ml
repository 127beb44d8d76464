(* SLO classes: the unit of policy in multi-tenant serving.  Pure data;
   the scheduler interprets rank/deadline, the zoo carries the class
   from registration to per-class accounting. *)

type t = Latency of { deadline_us : float } | Throughput | Best_effort

let rank = function Latency _ -> 0 | Throughput -> 1 | Best_effort -> 2

let all_class_names = [ "latency"; "throughput"; "best-effort" ]

let to_string = function
  | Latency { deadline_us } ->
      (* %g keeps round microsecond budgets round on the way back out *)
      Printf.sprintf "latency:%g" deadline_us
  | Throughput -> "throughput"
  | Best_effort -> "best-effort"

let of_string s =
  let lower = String.lowercase_ascii (String.trim s) in
  let latency_arg prefix =
    let n = String.length prefix in
    if String.length lower > n && String.sub lower 0 n = prefix then
      Some (String.sub lower n (String.length lower - n))
    else None
  in
  match lower with
  | "throughput" -> Ok Throughput
  | "best-effort" | "best_effort" | "besteffort" -> Ok Best_effort
  | _ -> (
      let arg =
        match latency_arg "latency:" with
        | Some _ as a -> a
        | None -> latency_arg "latency="
      in
      match arg with
      | Some d -> (
          match float_of_string_opt d with
          | Some deadline_us when deadline_us > 0. ->
              Ok (Latency { deadline_us })
          | Some _ -> Error "latency deadline must be > 0 microseconds"
          | None ->
              Error (Printf.sprintf "bad latency deadline %S (want e.g. latency:2000)" d))
      | None ->
          Error
            (Printf.sprintf
               "unknown SLO class %S (want latency:<deadline_us>, throughput, \
                or best-effort)"
               s))
