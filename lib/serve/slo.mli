(** Service-level objective classes for multi-tenant serving.

    Every model registered with the zoo carries one SLO class; the
    scheduler turns the class into dispatch order (strict class
    priority, earliest-deadline-first inside {!Latency}), default
    deadlines, and displacement order when the shared queue fills. *)

type t =
  | Latency of { deadline_us : float }
      (** interactive traffic: a request submitted without its own
          deadline takes this relative one; dispatch is
          earliest-deadline-first *)
  | Throughput  (** batch traffic: ahead of best-effort, no deadline *)
  | Best_effort
      (** background traffic: runs in whatever capacity is left, but
          the fair-share floor guarantees that "whatever is left" never
          rounds down to zero *)

val rank : t -> int
(** Strict priority: 0 = [Latency], 1 = [Throughput], 2 =
    [Best_effort].  Lower rank dispatches first and displaces higher
    rank when the queue is full. *)

val all_class_names : string list
(** In rank order. *)

val to_string : t -> string
(** Round-trips with {!of_string}: ["latency:2000"], ["throughput"],
    ["best-effort"]. *)

val of_string : string -> (t, string) result
(** Parse a CLI spec: ["latency:<deadline_us>"] (also accepts
    ["latency=<deadline_us>"]), ["throughput"], ["best-effort"] (or
    ["best_effort"]).  [Error] explains the accepted forms. *)
