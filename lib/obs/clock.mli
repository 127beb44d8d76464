(** Injectable clocks for the trace layer, and the one time source of
    the serving runtime.

    Timestamps are [int] nanoseconds: reading a clock never allocates,
    which keeps disabled instrumentation allocation-free. *)

type t = unit -> int
(** A clock: returns the current time in nanoseconds. *)

val monotonic_ns : t
(** Host monotonic clock (CLOCK_MONOTONIC), in nanoseconds from an
    arbitrary origin: only differences mean anything, and they never go
    negative when the wall clock is stepped.  Allocation-free.  The
    default clock of trace sinks. *)

val now_us : unit -> float
(** {!monotonic_ns} in microseconds.  Serving's only time source:
    request stamps and deadlines, breaker cooldowns, worker heartbeats
    and the five latency phases all read it, so each of them compares
    like with like.  The origin is arbitrary: never compare a reading
    with epoch time. *)

type manual
(** A deterministic test clock: every read advances by a fixed step, so
    two identical runs produce identical timestamps.  Domain-safe. *)

val manual : ?start:int -> ?step:int -> unit -> manual
(** Fresh manual clock starting at [start] (default 0) advancing [step]
    (default 1000ns) per read.  @raise Invalid_argument if [step <= 0]. *)

val read : manual -> t
(** The reading function: returns the current value, then advances. *)

val advance : manual -> int -> unit
(** Skip the clock forward by [ns] without producing a reading. *)

val now : manual -> int
(** Current value without advancing. *)
