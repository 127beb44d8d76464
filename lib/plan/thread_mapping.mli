(** Thread mappings: how an operator's output elements map onto the
    (grid, block) geometry, including the paper's adaptive dimensions
    (horizontal/vertical task packing and task splitting, Sec 3.3). *)

type t =
  | Elementwise of {
      elements : int;
      block : int;
      grid : int;
      rows : int option;
          (** row geometry when aligned with a reduce group; drives
              block-locality checks *)
    }
  | Row_reduce of {
      rows : int;
      row_length : int;
      threads_per_row : int;
      rows_per_block : int;  (** horizontal packing *)
      row_groups_per_block : int;  (** vertical packing *)
      split : int;  (** task splitting (cross-block atomics) *)
    }
  | Column_reduce of { rows : int; row_length : int; block : int; grid : int }

exception Invalid of string

val block : t -> int
val grid : t -> int
val uses_atomics : t -> bool

val validate : ?max_block:int -> t -> unit
(** @raise Invalid on inconsistent geometry. *)

val contiguous_outputs_per_block : t -> int option
(** Output elements each block produces, when contiguous; [None] when
    block outputs interleave (split/column reduces). *)

val row_partition : t -> (int * int) option
(** [(rows, rows_per_grid_block)] partition of the logical row space. *)

val block_aligned : t -> t -> bool
(** Same grid and identical row partition: block [i] of the consumer reads
    exactly what block [i] of the producer wrote. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
