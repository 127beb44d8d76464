(** Black-box flight-recorder dumps.

    The bounded per-domain ring is {!Trace}'s one sink; this module
    owns the dump policy.  [arm ~dir ()] makes sure a sink is installed
    and directs incident dumps into [dir]; from then on every
    {!incident} emits a phase-["incident"] instant (so the trigger is
    inside its own dump) and snapshots {!Trace.records} into a
    self-contained Chrome-trace file [incident-NNN-<reason>.json].  A
    dump [limit] (default 32) bounds file spam under chaos; suppressed
    incidents are counted.  All state is global, like the trace sink -
    incident sites live deep inside the scheduler and worker pool. *)

val arm : ?limit:int -> dir:string -> unit -> unit
(** Enable dumps into [dir], which must already exist, and install a
    4096-record-per-domain sink when no sink is installed.  A sink that
    is already installed (a [--trace] run's) is kept, so dumps then hold
    everything it holds.  Resets the dump sequence, suppression counter
    and path list. *)

val disarm : unit -> unit
(** Disable dumps, and uninstall the sink if {!arm} installed it. *)

val incident : ?attrs:Trace.attrs -> reason:string -> unit -> string option
(** Record an incident: emits the marker instant (whenever a sink is
    installed), then - if armed and under the limit - dumps the sink to
    a fresh file and returns its path. *)

val dump_paths : unit -> string list
(** Paths written since {!arm}, oldest first. *)

val suppressed : unit -> int
(** Incidents that produced no dump because the limit was reached. *)
