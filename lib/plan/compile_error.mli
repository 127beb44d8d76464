(** Structured compile errors: pass name, cluster, violation kinds and
    offending ops.  Replaces stringly [failwith]/[invalid_arg] on every
    compile path so failures are attributable and recoverable. *)

open Astitch_ir

type kind =
  | Invalid_structure
  | Shared_mem_overflow
  | Barrier_deadlock
  | Unlaunchable
  | Scratch_aliasing
  | Empty_cluster
  | Pass_exception
  | Injected_fault
  | Unknown_name

val kind_to_string : kind -> string

type violation = {
  kind : kind;
  message : string;
  where : string option;  (** kernel / cluster name, when per-kernel *)
  ops : Op.node_id list;  (** offending ops, when attributable *)
}

type t = {
  pass : string;
  cluster : string option;
  violations : violation list;
}

exception Error of t

val violation :
  ?ops:Op.node_id list ->
  ?where:string ->
  kind ->
  ('a, Format.formatter, unit, violation) format4 ->
  'a

val make : ?cluster:string -> pass:string -> violation list -> t
val error : ?cluster:string -> pass:string -> violation list -> exn

val fail :
  ?cluster:string ->
  ?ops:Op.node_id list ->
  pass:string ->
  kind ->
  ('a, Format.formatter, unit, 'b) format4 ->
  'a
(** Raise a single-violation [Error]. *)

val of_exn : ?cluster:string -> pass:string -> exn -> t
(** Wrap a bare exception; structured errors pass through unchanged. *)

val guard : ?cluster:string -> pass:string -> (unit -> 'a) -> 'a
(** Run [f], converting bare exceptions (except resource exhaustion) into
    structured [Error]s. *)

val protect : ?cluster:string -> pass:string -> (unit -> 'a) -> ('a, t) result

val pp_violation : Format.formatter -> violation -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
