(* Helpers shared by every backend when lowering graphs to kernels. *)

open Astitch_ir
open Astitch_simt

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  if n <= 1 then 1 else go 1

let round_up_to m n = (n + m - 1) / m * m

let ceil_div a b = (a + b - 1) / b

(* Threads XLA-style codegen would give one reduction row: the row length
   rounded to a warp, capped at the block limit. *)
let threads_for_row ~warp_size ~max_block row_length =
  Stdlib.min max_block (Stdlib.max warp_size (round_up_to warp_size (Stdlib.min max_block row_length)))

let compiled_op ?(scheme = Scheme.Local) ?(placement = Kernel_plan.Device_mem)
    ?(recompute = 1) ?(group = 0) ~mapping id =
  { Kernel_plan.id; scheme; placement; mapping; recompute; group }

(* Compute-intensive ops run as vendor-library calls (cuBLAS / cuDNN):
   one kernel per op for every backend. *)
let library_kernel (arch : Arch.t) g id =
  let out_elems = Graph.num_elements g id in
  let block = 256 in
  (* library kernels tile for high occupancy; cap the grid at 8 waves *)
  let grid =
    Stdlib.max 1
      (Stdlib.min (ceil_div out_elems block) (arch.num_sms * 8))
  in
  let mapping =
    Thread_mapping.Elementwise { elements = out_elems; block; grid; rows = None }
  in
  let launch = Launch.make ~regs_per_thread:64 ~grid ~block () in
  {
    Kernel_plan.name = Printf.sprintf "%s_%d" (Op.mnemonic (Graph.op g id)) id;
    kind = Kernel_plan.Library;
    ops =
      [
        compiled_op ~scheme:Scheme.Independent
          ~placement:Kernel_plan.Device_mem ~mapping id;
      ];
    launch;
    barriers = 0;
    scratch_bytes = 0;
  }

let library_kernels arch g =
  Graph.compute_intensive_ids g
  |> List.filter (Graph.is_live g)
  |> List.map (library_kernel arch g)

(* Memcpy/memset accounting shared across backends:
   - one device-to-host copy per graph output;
   - one memset per kernel that initializes atomic accumulators
     (column reduces and split row-reduces);
   - backends add their own boundary copies (standalone reshapes etc.). *)
let output_memcpys g = List.length (Graph.outputs g)

let atomic_memsets kernels =
  List.fold_left
    (fun acc (k : Kernel_plan.kernel) ->
      acc
      + List.length
          (List.filter
             (fun (o : Kernel_plan.compiled_op) ->
               Thread_mapping.uses_atomics o.mapping)
             k.ops))
    0 kernels

let output_bytes g =
  List.fold_left (fun acc id -> acc + Graph.bytes g id) 0 (Graph.outputs g)

(* A backend's plan: its kernels [ks] plus one library kernel per live
   compute-intensive op, in dependency order, with the memcpy/memset
   accounting above and no batch classification. *)
let assemble (arch : Arch.t) g ks =
  let kernels = Kernel_plan.toposort_kernels g (ks @ library_kernels arch g) in
  {
    Kernel_plan.arch;
    graph = g;
    kernels;
    memcpys = output_memcpys g;
    memsets = atomic_memsets kernels;
    memcpy_bytes = output_bytes g;
    batch = None;
  }
