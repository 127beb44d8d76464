(** The one byte format of ops and graphs: the plan codec's graph
    section, the bytes {!Fingerprint} digests, and the scope key.

    Every integer is a little-endian 64-bit word, every float its IEEE
    bit pattern, every variant constructor, kind and dtype one tag byte,
    and strings and sequences are length-prefixed.  This module holds
    the only tag tables of ops, kinds and dtypes; a new op or attribute
    is added here once. *)

(** {2 Writing} *)

val w_i : Buffer.t -> int -> unit
val w_f : Buffer.t -> float -> unit
val w_u8 : Buffer.t -> int -> unit
val w_bool : Buffer.t -> bool -> unit
val w_s : Buffer.t -> string -> unit
val w_arr : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a array -> unit
val w_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

val w_ints : Buffer.t -> int array -> unit
(** [w_arr b w_i]. *)

(** {2 Reading} *)

exception Malformed of string
(** The bytes do not follow the format: an unknown tag, a length past
    the end of the region, an ill-formed graph. *)

val malformed : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Malformed} with a formatted message. *)

type reader

val reader : string -> pos:int -> limit:int -> reader
(** A cursor over [src.[pos .. limit - 1]]; no read passes [limit]. *)

val pos : reader -> int
val r_i : reader -> int
val r_f : reader -> float
val r_u8 : reader -> int
val r_s : reader -> string
val r_arr : reader -> (reader -> 'a) -> 'a array
val r_list : reader -> (reader -> 'a) -> 'a list
val r_ints : reader -> int array

(** {2 Tags}

    Every kind and dtype in tag order: a tag is an index into its list. *)

val op_tag : Op.t -> int
val unary_kinds : Op.unary_kind array
val binary_kinds : Op.binary_kind array
val reduce_kinds : Op.reduce_kind array
val dtype_tag : Dtype.t -> int
val dtypes : Dtype.t array

(** {2 Ops and graphs} *)

val write_op : Buffer.t -> operand:(Buffer.t -> Op.node_id -> unit) -> Op.t -> unit
(** The op's tag byte and every attribute in a fixed order, with each
    operand written by [operand]. *)

val read_op : reader -> Op.t
(** Inverse of [write_op ~operand:w_i]. *)

val write_node : Buffer.t -> operand:(Buffer.t -> Op.node_id -> unit) -> Graph.node -> unit
(** The op, then the shape and the dtype tag. *)

val write_graph : Buffer.t -> Graph.t -> unit
(** The node count, every node in id order with raw operand ids, and the
    output list. *)

val read_graph : reader -> Graph.t
(** Inverse of [write_graph]; the graph is re-validated
    ({!Graph.of_nodes}). *)
