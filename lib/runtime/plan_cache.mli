(** Cache for compiled artifacts, keyed by canonical graph fingerprint x
    architecture x config serialization.

    The key's soundness comes from {!Astitch_ir.Fingerprint}: equal keys
    imply structurally identical live graphs under the same compiler
    settings, so a hit can be served verbatim.  Degraded or
    fault-injected compiles must never be inserted; route them through
    {!note_bypass} (or return [cacheable = false] from
    {!find_or_compute}).

    A plain table: entries leave only through {!remove}, so
    [length = insertions - removals] is an invariant.

    Safe for concurrent domains: all table/stat mutation is serialized
    behind an internal mutex, so one cache can back a whole serving
    worker pool.  {!find_or_compute} runs its [compute] outside the
    lock; two domains may therefore compile the same key concurrently,
    and the later insertion replaces the earlier (sound, since equal
    keys imply interchangeable artifacts). *)

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  bypasses : int;  (** compiles that were deliberately not cached *)
  removals : int;  (** explicit invalidations ({!remove}) *)
}

type 'a t

val create : unit -> 'a t

val key : fingerprint:string -> arch:string -> config:string -> string
(** Compose the three key components canonically. *)

val find : 'a t -> string -> 'a option
(** Lookup; counts a hit or miss. *)

val add : 'a t -> string -> 'a -> unit
(** Insert.  Re-adding an existing key replaces its value in place and
    counts no insertion. *)

val remove : 'a t -> string -> bool
(** Invalidate one entry (quarantine dropping a suspect plan); [true]
    when the key was present.  Counted in [removals]. *)

val note_bypass : 'a t -> unit
(** Record a compile that deliberately skipped the cache. *)

type outcome = Hit | Miss | Bypassed

val outcome_to_string : outcome -> string

val find_or_compute :
  'a t -> string -> compute:(unit -> 'a * bool) -> 'a * outcome
(** [find_or_compute t k ~compute] returns the cached value on a hit;
    otherwise runs [compute] and inserts the result only when it reports
    itself cacheable ([Miss]), counting a bypass otherwise ([Bypassed]). *)

val length : 'a t -> int
val stats : 'a t -> stats

val pp_stats : Format.formatter -> stats -> unit
(** Render all five counters on one line, so
    [length = insertions - removals] can be read off the printed stats
    directly. *)
