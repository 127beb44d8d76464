(** The per-table / per-figure reproduction harness (see DESIGN.md's
    experiment index and EXPERIMENTS.md for paper-vs-measured). *)

open Astitch_plan

type mode = Inference | Training | Amp_inference

val tf : Backend_intf.t
val xla : Backend_intf.t
val tvm : Backend_intf.t
val ansor : Backend_intf.t
val trt : Backend_intf.t
val astitch : Backend_intf.t
val atm : Backend_intf.t
val hdm : Backend_intf.t

val result : Astitch_workloads.Zoo.entry -> mode -> Backend_intf.t ->
  Astitch_runtime.Session.result
(** Memoized compile+profile of one (model, mode, backend) triple. *)

val total_ms : Astitch_workloads.Zoo.entry -> mode -> Backend_intf.t -> float

val all : (string * string * (unit -> unit)) list
(** [(id, description, run)] for every experiment. *)

val run : string -> unit
(** @raise Astitch_plan.Compile_error.Error ([Unknown_name], listing
    every id) on unknown ids. *)

val run_all : unit -> unit

