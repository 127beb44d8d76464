(** Dense row-major tensors of OCaml floats.

    All dtypes share the float representation: predicates are 0./1.,
    integers are whole floats.  The reference interpreter's results on
    these tensors are the ground truth every compiled plan must match. *)

open Astitch_ir

type t

exception Mismatch of string

val mismatch : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Mismatch} with a formatted message. *)

val create : Shape.t -> float array -> t
val shape : t -> Shape.t
val data : t -> float array
val num_elements : t -> int
val full : Shape.t -> float -> t
val zeros : Shape.t -> t
val ones : Shape.t -> t
val scalar : float -> t
val init : Shape.t -> (int -> float) -> t
val of_list : int list -> float list -> t
val get : t -> int array -> float
val get_linear : t -> int -> float
val set_linear : t -> int -> float -> unit
val copy : t -> t
val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t

val map_into : (float -> float) -> t -> dst:t -> t
(** [map] writing into a preallocated destination (returned); elements are
    written in ascending linear order, bit-identical to {!map}. *)

val map2_into : (float -> float -> float) -> t -> t -> dst:t -> t
(** [map2] writing into a preallocated destination (returned). *)

val reshape : t -> Shape.t -> t
val equal_approx : ?eps:float -> t -> t -> bool

val equal_bits : t -> t -> bool
(** Same shape and the same bits in every element: tells +0. from -0.
    and one NaN payload from another, which [equal_approx ~eps:0.]
    accepts. *)

val max_abs_diff : t -> t -> float
val pp : Format.formatter -> t -> unit

val random : seed:int -> Shape.t -> t
(** Deterministic pseudo-random fill in [[-1, 1]]; no global state. *)
