(* Thread mappings: how an operator's output elements map onto the
   (grid, block) geometry.

   The adaptive dimensions follow paper Sec 3.3:
   - horizontal packing: several reduction rows share one thread block
     ([rows_per_block] > 1), fixing the small-block-size pathology;
   - vertical packing: one block processes several row groups
     sequentially ([row_groups_per_block] > 1), capping the block count
     below the per-wave limit required by global barriers;
   - task splitting: one row is reduced by several blocks with cross-block
     atomics ([split] > 1), fixing the small-block-count pathology. *)

type t =
  | Elementwise of {
      elements : int;
      block : int;
      grid : int;
      rows : int option;
          (* row geometry when the schedule was propagated from (or aligned
             with) a reduce group; used for block-locality checks *)
    }
  | Row_reduce of {
      rows : int;
      row_length : int;
      threads_per_row : int;
      rows_per_block : int;
      row_groups_per_block : int;
      split : int;
    }
  | Column_reduce of { rows : int; row_length : int; block : int; grid : int }

exception Invalid of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let block = function
  | Elementwise { block; _ } -> block
  | Row_reduce { threads_per_row; rows_per_block; _ } ->
      threads_per_row * rows_per_block
  | Column_reduce { block; _ } -> block

let grid = function
  | Elementwise { grid; _ } -> grid
  | Row_reduce { rows; rows_per_block; row_groups_per_block; split; _ } ->
      if split > 1 then rows * split
      else
        let rows_per_grid_block = rows_per_block * row_groups_per_block in
        (rows + rows_per_grid_block - 1) / rows_per_grid_block
  | Column_reduce { grid; _ } -> grid

let uses_atomics = function
  | Row_reduce { split; _ } -> split > 1
  | Column_reduce _ -> true
  | Elementwise _ -> false

let validate ?(max_block = 1024) t =
  (match t with
  | Elementwise { elements; block; grid; _ } ->
      if elements < 1 then invalid "elementwise: no elements";
      if block < 1 || grid < 1 then invalid "elementwise: empty launch"
  | Row_reduce
      { rows; row_length; threads_per_row; rows_per_block;
        row_groups_per_block; split } ->
      if rows < 1 || row_length < 1 then invalid "row-reduce: empty geometry";
      if threads_per_row < 1 || rows_per_block < 1 then
        invalid "row-reduce: empty block geometry";
      if row_groups_per_block < 1 then invalid "row-reduce: empty group";
      if split < 1 then invalid "row-reduce: split < 1";
      if split > 1 && (rows_per_block > 1 || row_groups_per_block > 1) then
        invalid "row-reduce: cannot combine splitting with packing"
  | Column_reduce { rows; row_length; block; grid } ->
      if rows < 1 || row_length < 1 then invalid "column-reduce: empty";
      if block < 1 || grid < 1 then invalid "column-reduce: empty launch");
  if block t > max_block then
    invalid "block size %d exceeds limit %d" (block t) max_block

(* Output elements produced by each grid block, when they form a
   contiguous range (required for block locality); None when the blocks'
   outputs interleave (split reduces, column reduces). *)
let contiguous_outputs_per_block = function
  | Elementwise { elements; grid; _ } -> Some ((elements + grid - 1) / grid)
  | Row_reduce { rows_per_block; row_groups_per_block; split; _ } ->
      if split > 1 then None else Some (rows_per_block * row_groups_per_block)
  | Column_reduce _ -> None

(* The row partition [(rows, rows_per_grid_block)] induced on a logical
   row space, used to align producer and consumer groups for regional
   (shared-memory) stitching.  Uses the effective ceil(rows/grid) so that
   producer and consumer agree whenever they share grid and row count. *)
let row_partition t =
  match t with
  | Elementwise { rows = Some rows; _ } ->
      Some (rows, (rows + grid t - 1) / grid t)
  | Elementwise { rows = None; _ } -> None
  | Row_reduce { rows; split; _ } ->
      if split > 1 then None else Some (rows, (rows + grid t - 1) / grid t)
  | Column_reduce _ -> None

(* Two mappings are block-aligned when they partition the same row space
   identically with the same grid: block i of the consumer then reads
   exactly what block i of the producer wrote. *)
let block_aligned a b =
  grid a = grid b
  &&
  match (row_partition a, row_partition b) with
  | Some (ra, pa), Some (rb, pb) -> ra = rb && pa = pb
  | _ -> false

let to_string = function
  | Elementwise { elements; block; grid; rows } ->
      Printf.sprintf "elementwise{n=%d, <<<%d,%d>>>%s}" elements grid block
        (match rows with Some r -> Printf.sprintf ", rows=%d" r | None -> "")
  | Row_reduce
      { rows; row_length; threads_per_row; rows_per_block;
        row_groups_per_block; split } ->
      Printf.sprintf
        "row-reduce{%dx%d, tpr=%d, pack_h=%d, pack_v=%d, split=%d}" rows
        row_length threads_per_row rows_per_block row_groups_per_block split
  | Column_reduce { rows; row_length; block; grid } ->
      Printf.sprintf "col-reduce{%dx%d, <<<%d,%d>>>}" rows row_length grid
        block

let pp fmt t = Format.pp_print_string fmt (to_string t)
