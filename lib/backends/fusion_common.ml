(* Shared machinery for the baseline fusion backends (XLA / TVM / TRT).

   All three follow the same recipe, differing only in which edges they
   refuse to fuse across:
   1. identify memory-intensive clusters;
   2. split each cluster into fusion kernels by cutting the edges the
      backend cannot generate code for;
   3. inside a kernel, inline every producer into its consumers through
      per-thread registers (the "per-element input inline" codegen of
      Sec 2.2) — which multiplies the producer's computation by its
      fan-out on one-to-many edges;
   4. the fusion root's naive thread mapping drives the whole kernel. *)

open Astitch_ir
open Astitch_simt
open Astitch_plan

type cut_edge_fn =
  Graph.t -> producer:Op.node_id -> consumer:Op.node_id -> bool

(* --- Naive (non-adaptive) thread mappings ------------------------------- *)

(* The XLA-style schedule the paper criticizes in Fig 6: one block per
   reduction row (block size = row length rounded to a warp), a plain
   256-thread grid for element-wise roots. *)
let naive_mapping (arch : Arch.t) g id =
  match (Pattern.reduce_geometry_opt g id, Pattern.reduce_layout_opt g id) with
  | Some (rows, row_length), Some Pattern.Row_reduce ->
          (* one block per row; XLA only falls back to a two-stage
             (atomic) reduction for very long rows - the 30,000-element
             rows of Fig 6(b) still run as a single under-filled wave *)
          let split =
            if row_length > 65536 then Lowering.ceil_div row_length 65536
            else 1
          in
          Thread_mapping.Row_reduce
            {
              rows;
              row_length;
              threads_per_row =
                Lowering.threads_for_row ~warp_size:arch.warp_size
                  ~max_block:arch.max_threads_per_block row_length;
              rows_per_block = 1;
              row_groups_per_block = 1;
              split;
            }
  | Some (rows, row_length), Some Pattern.Column_reduce ->
      let total = rows * row_length in
      Thread_mapping.Column_reduce
        {
          rows;
          row_length;
          block = 256;
          grid = Stdlib.max 1 (Lowering.ceil_div total 256);
        }
  | _ ->
      let elements = Graph.num_elements g id in
      Thread_mapping.Elementwise
        {
          elements;
          block = 256;
          grid = Stdlib.max 1 (Lowering.ceil_div elements 256);
          rows = None;
        }

(* Ansor-style tuned mapping: auto-scheduling finds good block shapes for
   each standalone kernel (it packs small reduction rows into full
   blocks), but cannot change what is fused. *)
let tuned_mapping (arch : Arch.t) g id =
  match (Pattern.reduce_geometry_opt g id, Pattern.reduce_layout_opt g id) with
  | Some (rows, row_length), Some Pattern.Row_reduce ->
      let threads_per_row =
        Lowering.threads_for_row ~warp_size:arch.warp_size
          ~max_block:arch.max_threads_per_block row_length
      in
      let rows_per_block =
        Stdlib.max 1
          (Stdlib.min rows (arch.max_threads_per_block / threads_per_row))
      in
      Thread_mapping.Row_reduce
        {
          rows;
          row_length;
          threads_per_row;
          rows_per_block;
          row_groups_per_block = 1;
          split = 1;
        }
  | _ -> naive_mapping arch g id

(* --- Fusion-kernel construction ----------------------------------------- *)

(* Split a cluster into fusion components by greedily merging across the
   edges the backend can fuse, with the classic legality check: merging
   the components of a producer-consumer pair is illegal if one already
   reaches the other through *other components* in the contracted
   (component-level) graph.  Kernels execute atomically, so the check must
   run on the contraction, not on node-level paths: a kernel-dependency
   cycle A -> C -> B with a fused A+B needs no directed node path through
   C's members.  The invariant maintained is that the contraction stays a
   DAG, which makes the final kernel list schedulable.

   Paths between cluster nodes never leave the cluster: leaving means
   passing a compute-intensive op, which strictly increases the compute
   depth, and clusters are single-depth. *)
let components g (cluster : Clustering.cluster) ~cut_edge =
  let nodes = cluster.Clustering.nodes in
  let in_cluster = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace in_cluster id ()) nodes;
  let parent = Hashtbl.create 16 in
  let members_of = Hashtbl.create 16 in
  List.iter
    (fun id ->
      Hashtbl.replace parent id id;
      Hashtbl.replace members_of id [ id ])
    nodes;
  let rec find id =
    let p = Hashtbl.find parent id in
    if p = id then id
    else begin
      let r = find p in
      Hashtbl.replace parent id r;
      r
    end
  in
  (* successor components of [root] in the current contraction *)
  let comp_succ root =
    let s = Hashtbl.create 8 in
    List.iter
      (fun id ->
        List.iter
          (fun consumer ->
            if Hashtbl.mem in_cluster consumer then begin
              let cc = find consumer in
              if cc <> root then Hashtbl.replace s cc ()
            end)
          (Graph.consumers g id))
      (Hashtbl.find members_of root);
    s
  in
  (* Can [src] reach [dst] through at least one intermediate component? *)
  let reaches_via_others src dst =
    let visited = Hashtbl.create 16 in
    let queue = Queue.create () in
    Hashtbl.iter
      (fun c () -> if c <> dst && c <> src then Queue.add c queue)
      (comp_succ src);
    let found = ref false in
    while (not (Queue.is_empty queue)) && not !found do
      let c = Queue.pop queue in
      if not (Hashtbl.mem visited c) then begin
        Hashtbl.replace visited c ();
        Hashtbl.iter
          (fun n () ->
            if n = dst then found := true
            else if n <> src && not (Hashtbl.mem visited n) then
              Queue.add n queue)
          (comp_succ c)
      end
    done;
    !found
  in
  let illegal_merge ca cb =
    reaches_via_others ca cb || reaches_via_others cb ca
  in
  List.iter
    (fun id ->
      List.iter
        (fun operand ->
          if
            Hashtbl.mem in_cluster operand
            && not (cut_edge g ~producer:operand ~consumer:id)
          then begin
            let ca = find operand and cb = find id in
            if ca <> cb && not (illegal_merge ca cb) then begin
              let keep = Stdlib.min ca cb and gone = Stdlib.max ca cb in
              Hashtbl.replace parent gone keep;
              Hashtbl.replace members_of keep
                (Hashtbl.find members_of keep @ Hashtbl.find members_of gone);
              Hashtbl.remove members_of gone
            end
          end)
        (Graph.operands g id))
    nodes;
  Hashtbl.fold
    (fun _ ids acc -> List.sort compare ids :: acc)
    members_of []
  |> List.sort compare

(* A node escapes its kernel when a live consumer sits outside it or it
   is a graph output; a dead consumer is never lowered. *)
let escapes g kernel_set id =
  Graph.is_output g id
  || List.exists (fun c -> Graph.is_live g c && not (Hashtbl.mem kernel_set c)) (Graph.consumers g id)

(* A component may contain a cut edge internally (producer and consumer
   joined through other fusable paths).  The producer then becomes a
   multi-output fusion root, exactly as in XLA: it is materialized and the
   in-kernel consumer reads the materialized value instead of inlining
   (inlining across a cut edge is what the backend refused to generate
   code for in the first place - e.g. re-running a whole reduction per
   consumer element). *)
let is_multi_output_root g kernel_set ~cut_edge id =
  List.exists
    (fun consumer ->
      Hashtbl.mem kernel_set consumer
      && cut_edge g ~producer:id ~consumer)
    (Graph.consumers g id)

(* Per-element inline recompute factors: the root is computed once; a
   producer is re-evaluated once per broadcast replica when inlined under
   a one-to-many edge (the Figure 5 pathology).  Within one thread, the
   emitter caches per-element values, so several same-index consumers
   share one evaluation: demand combines with [max], not [+].  Demand
   never crosses cut edges: those consumers read a materialized value. *)
let recompute_cap = 1_000_000

let recompute_factors g kernel_set ~cut_edge (ids : Op.node_id list) =
  let factor = Hashtbl.create 16 in
  let get id = Option.value ~default:0 (Hashtbl.find_opt factor id) in
  List.iter
    (fun id ->
      let demand =
        List.fold_left
          (fun acc consumer ->
            if
              Hashtbl.mem kernel_set consumer
              && not (cut_edge g ~producer:id ~consumer)
            then
              Stdlib.max acc
                (Stdlib.max 1 (get consumer)
                * Pattern.fanout g ~producer:id ~consumer)
            else acc)
          0 (Graph.consumers g id)
      in
      Hashtbl.replace factor id (Stdlib.min recompute_cap (Stdlib.max 1 demand)))
    (List.rev ids);
  fun id -> Stdlib.max 1 (get id)

let is_layout_only g id =
  match Graph.op g id with
  | Op.Reshape _ | Op.Transpose _ -> true
  | _ -> false

(* Build one fusion kernel from a component. *)
let build_kernel arch g ~mapping_for_root ~cut_edge ~name (ids : Op.node_id list) =
  let kernel_set = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace kernel_set id ()) ids;
  let recompute = recompute_factors g kernel_set ~cut_edge ids in
  let materialized id =
    escapes g kernel_set id || is_multi_output_root g kernel_set ~cut_edge id
  in
  (* roots: escaping nodes plus multi-output roots.  The kernel schedule
     follows the root with the largest workload (a reduce counts its
     input); ties prefer the reduce. *)
  let roots = List.filter materialized ids in
  let root_weight id =
    match Graph.op g id with
    | Op.Reduce { input; _ } -> (Graph.num_elements g input, 1)
    | _ -> (Graph.num_elements g id, 0)
  in
  let primary =
    match
      List.sort (fun a b -> compare (root_weight b) (root_weight a)) roots
    with
    | r :: _ -> r
    | [] -> List.nth ids (List.length ids - 1)
  in
  let primary_mapping = mapping_for_root arch g primary in
  let op_mapping id =
    if Op.is_reduce (Graph.op g id) then mapping_for_root arch g id
    else primary_mapping
  in
  let ops =
    List.map
      (fun id ->
        let placement =
          if materialized id then Kernel_plan.Device_mem
          else Kernel_plan.Register
        in
        {
          Kernel_plan.id;
          scheme =
            (if placement = Kernel_plan.Device_mem then Scheme.Independent
             else Scheme.Local);
          placement;
          mapping = op_mapping id;
          recompute = recompute id;
          group = 0;
        })
      ids
  in
  let regs =
    Stdlib.min
      (Stdlib.min arch.Arch.max_registers_per_thread
         (arch.Arch.registers_per_sm / Thread_mapping.block primary_mapping))
      (20 + (3 * List.length ids))
    |> Stdlib.max 16
  in
  let launch =
    Launch.make ~regs_per_thread:regs
      ~grid:(Thread_mapping.grid primary_mapping)
      ~block:(Thread_mapping.block primary_mapping)
      ()
  in
  {
    Kernel_plan.name;
    kind = Kernel_plan.Codegen;
    ops;
    launch;
    barriers = 0;
    scratch_bytes = 0;
  }

(* Standalone layout ops lower to cudaMemcpy DtoD. *)
let copy_kernel g id =
  let mapping =
    Thread_mapping.Elementwise
      {
        elements = Graph.num_elements g id;
        block = 256;
        grid = Stdlib.max 1 (Lowering.ceil_div (Graph.num_elements g id) 256);
        rows = None;
      }
  in
  {
    Kernel_plan.name = Printf.sprintf "copy_%d" id;
    kind = Kernel_plan.Copy;
    ops =
      [
        {
          Kernel_plan.id;
          scheme = Scheme.Independent;
          placement = Kernel_plan.Device_mem;
          mapping;
          recompute = 1;
          group = 0;
        };
      ];
    launch = Launch.make ~grid:(Thread_mapping.grid mapping) ~block:256 ();
    barriers = 0;
    scratch_bytes = 0;
  }

(* The full baseline pipeline. *)
let compile ~name ~cut_edge ~mapping_for_root (arch : Arch.t) g =
  let clusters = Clustering.clusters g in
  let fusion_kernels =
    List.concat_map
      (fun cluster ->
        components g cluster ~cut_edge
        |> List.mapi (fun i ids ->
               match ids with
               | [ single ] when is_layout_only g single ->
                   copy_kernel g single
               | _ ->
                   build_kernel arch g ~mapping_for_root ~cut_edge
                     ~name:
                       (Printf.sprintf "%s_fusion_c%d_%d" name
                          cluster.Clustering.id i)
                     ids))
      clusters
  in
  let plan = Lowering.assemble arch g fusion_kernels in
  Kernel_plan.check plan;
  plan
