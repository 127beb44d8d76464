(** Deterministic fault-injection registry with named sites in the main
    compiler passes and the serving runtime's execution path.  Armed
    faults either raise a structured error, corrupt a site's result
    (seeded), or stall (a seeded sleep); [fuel] bounds how many site
    hits fire, so degraded retries can succeed.  Fuel and the firing
    counter are atomic — the registry is shared by compile domains and
    serving worker domains. *)

type site =
  (* compile pipeline *)
  | Clustering
  | Dominant_merging
  | Mem_planning
  | Launch_config
  | Codegen
  (* serving runtime *)
  | Kernel_exec
  | Staged_restage
  | Pack
  | Unpack
  | Worker_loop

val all_sites : site list
(** The compile-pipeline sites (historical name: the resilience sweeps
    index into this list positionally). *)

val runtime_sites : site list
(** The serving-runtime sites. *)

val every_site : site list
(** [all_sites @ runtime_sites]. *)

val is_runtime_site : site -> bool
val site_to_string : site -> string
val site_of_string : string -> site option

type mode = Raise | Corrupt | Stall

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

type plan = { site : site; mode : mode; seed : int; fuel : int }

val plan : ?mode:mode -> ?seed:int -> ?fuel:int -> site -> plan
(** Defaults: [mode = Raise], [seed = 0], [fuel = 1]. *)

val plan_of_string : string -> plan option
(** Parse ["site:mode[:seed[:fuel]]"] - the CLI's [--inject] syntax. *)

val plan_to_string : plan -> string
(** ["site:mode:seed:fuel"], which {!plan_of_string} reads back. *)

exception Runtime_fault of { site : site; seed : int; pass : string }
(** What a [Raise]-mode runtime fault throws ({!check_runtime}); the
    serving supervision layer catches it like any other worker crash. *)

val stall_s : int -> float
(** The seeded stall duration (1-10ms) a [Stall]-mode fault sleeps. *)

val with_faults : plan list -> (unit -> 'a) -> 'a
(** [with_faults plans f] arms [plans] (replacing the armed set and
    resetting the firing counter), runs [f], and disarms - even when
    [f] raises.  The only way to arm faults: compiles, serving and
    tests all arm through it. *)

val fired : unit -> int
(** Total firings (compile + runtime) since the last arming. *)

val compile_active : unit -> bool
(** An armed compile-site fault with fuel left exists. *)

val check : site -> pass:string -> int option
(** Called at compile-pass instrumentation points.  [Some seed] =
    corrupt the result; raises [Compile_error.Error] with kind
    [Injected_fault] for an armed [Raise] fault; sleeps for [Stall];
    [None] = proceed normally.  Consumes one fuel. *)

val check_runtime : site -> pass:string -> int option
(** {!check} for runtime sites: [Raise] throws {!Runtime_fault} instead
    of a [Compile_error] (execution failures are not compile errors). *)

val corrupt : float array -> int -> unit
(** [corrupt data seed]: the perturbation a fired runtime [Corrupt]
    fault applies - the cell at [abs seed mod length] moves by
    [1 + (seed land 0xff)], in place.  No-op on an empty array. *)
