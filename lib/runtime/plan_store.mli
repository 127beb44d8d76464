(** Persistent plan store: the on-disk half of compile-once serving.

    A store is a directory of encoded kernel plans
    ({!Astitch_plan.Plan_codec}), one file per plan, named by
    [fingerprint x arch x codec version].  A restarted server points at
    the same directory and loads yesterday's plans instead of paying
    cold compiles; anything unreadable - wrong magic, version skew,
    corruption, truncation - is reported as [Rejected] and the caller
    recompiles, so a damaged store degrades to a cold start, never to a
    crash or a wrong plan.

    One store directory serves one compiler identity: the zoo persists
    plans from the full AStitch backend only, each once, when its
    prewarm compiles it.  The codec version is baked into every
    filename, so bumping the codec orphans old files (they are simply
    never matched) rather than misparsing them.

    Loading performs no semantic validation beyond the codec's - the
    bit-identity gate (deserialized plan must encode identically to a
    fresh compile) belongs to the caller, which is the only place a
    fresh compile exists to compare against. *)

open Astitch_plan

type t

val open_ : dir:string -> t
(** Open (creating the directory, parents included, if needed).
    @raise Sys_error if [dir] exists but is not a directory, or cannot
    be created. *)

val dir : t -> string

val filename : fingerprint:string -> arch:string -> string
(** Basename a plan is stored under: [<fingerprint>-<arch>-v<codec
    version>.plan], with non-filename-safe arch characters mangled.
    Exposed for tests and for the CI smoke job's directory checks. *)

val save :
  t -> fingerprint:string -> arch:string -> Kernel_plan.t ->
  (unit, string) result
(** Encode and persist one plan.  Atomic per plan: written to a
    temporary file in the store directory and renamed into place, so a
    crashed save never leaves a half-written plan where [load] will
    find it.  [Error] carries a human-readable I/O reason. *)

type load =
  | Loaded of Kernel_plan.t
  | Absent  (** no file for this key (includes codec-version skew) *)
  | Rejected of string
      (** file exists but cannot be trusted: I/O failure or structured
          codec error.  Caller recompiles and may {!save} over it. *)

val load : t -> fingerprint:string -> arch:string -> load
(** Never raises: every failure mode folds into [Absent]/[Rejected]. *)

val list : t -> string list
(** Basenames of current-version plan files in the store, sorted. *)
