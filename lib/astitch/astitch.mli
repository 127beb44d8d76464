(** Public entry points of the AStitch compiler. *)

open Astitch_simt
open Astitch_plan

val cost_config : Cost_model.config

val compile : ?config:Config.t -> Arch.t -> Astitch_ir.Graph.t -> Kernel_plan.t
(** {!Fallback.compile} with degradation refused: the plan when the
    degradation report is empty, every kernel and the cross-kernel rules
    checked.
    @raise Compile_error.Error with the first degradation event's error,
    or the driver's own error; no other exception escapes, resource
    exhaustion ([Out_of_memory], [Stack_overflow]) aside. *)

val backend : ?config:Config.t -> unit -> Backend_intf.t
(** A backend compiling with [config].  Its name follows
    {!Config.cache_key}: "AStitch", "ATM" and "HDM" for the three
    Table 4 configs (whatever their [compile_domains]),
    ["AStitch{<cache key>}"] otherwise. *)

val full_backend : Backend_intf.t
val atm_backend : Backend_intf.t
(** Table 4 "ATM": XLA fusion scopes + adaptive thread mapping. *)

val hdm_backend : Backend_intf.t
(** Table 4 "HDM": exhaustive stitching without dominant merging. *)
