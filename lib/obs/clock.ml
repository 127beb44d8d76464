(* Injectable clocks for the trace layer, and the one time source of the
   serving runtime.

   Timestamps are plain [int] nanoseconds (63 bits cover ~292 years), so
   reading a clock never allocates - int64 would box on every read and
   break the zero-cost-when-disabled guarantee of the instrumentation.

   The monotonic clock is what production traces and serving use; tests
   inject a manual clock whose every read advances by a fixed step,
   which makes trace output byte-deterministic (each record gets a
   distinct, predictable timestamp with no reliance on the host). *)

type t = unit -> int

(* CLOCK_MONOTONIC through bechamel's stub, which returns an unboxed
   int64: never steps backwards with the wall clock and never allocates *)
let monotonic_ns : t = fun () -> Int64.to_int (Monotonic_clock.now ())

(* Serving stamps requests, deadlines, cooldowns and heartbeats in
   float microseconds; every one of them reads this. *)
let now_us () = float_of_int (monotonic_ns ()) *. 1e-3

(* A deterministic clock: every read returns the current value and
   advances by [step].  Backed by an atomic so concurrent domains can
   share one manual clock without torn reads (each still gets a unique
   timestamp). *)
type manual = { cell : int Atomic.t; step : int }

let manual ?(start = 0) ?(step = 1_000) () =
  if step <= 0 then invalid_arg "Clock.manual: step must be > 0";
  { cell = Atomic.make start; step }

let read (m : manual) : t = fun () -> Atomic.fetch_and_add m.cell m.step
let advance m ns = ignore (Atomic.fetch_and_add m.cell ns)
let now m = Atomic.get m.cell
