(* Compiled execution plans.

   A plan is an ordered list of kernels over the nodes of a computation
   graph.  Each kernel lists its ops (in execution order) with the
   stitching scheme, buffer placement, thread mapping and recompute factor
   the backend chose.  From that single representation we derive:
   - the simulated execution cost (through [kernel_work] + the SIMT model),
   - the nvprof-style counters,
   - the numerical execution (the runtime executor interprets plans), and
   - the structural invariants each backend must respect ([check]). *)

open Astitch_ir
open Astitch_simt

type placement =
  | Register (* per-thread; value lives only inside consuming threads *)
  | Shared_mem (* per-block scratch; regional stitching *)
  | Global_scratch (* device scratch consumed inside the same kernel *)
  | Device_mem (* materialized tensor visible to later kernels *)

let placement_to_string = function
  | Register -> "reg"
  | Shared_mem -> "smem"
  | Global_scratch -> "gmem-scratch"
  | Device_mem -> "device"

type compiled_op = {
  id : Op.node_id;
  scheme : Scheme.t;
  placement : placement;
  mapping : Thread_mapping.t;
  recompute : int; (* avg times each output element is computed; >= 1 *)
  group : int;
      (* op group (schedule) this op belongs to inside its kernel; ops in
         different groups cannot share per-thread register caches, so an
         operand read by two groups is loaded twice (the operator-level
         reuse dominant merging buys back) *)
}

type kernel_kind =
  | Codegen (* generated fusion/stitch kernel *)
  | Library (* cuBLAS / cuDNN call for a compute-intensive op *)
  | Copy (* standalone layout op implemented as cudaMemcpy DtoD *)

type kernel = {
  name : string;
  kind : kernel_kind;
  ops : compiled_op list; (* execution order *)
  launch : Launch.t;
  barriers : int; (* in-kernel global barriers *)
  scratch_bytes : int; (* global-scratch arena after liveness reuse *)
}

type t = {
  arch : Arch.t;
  graph : Graph.t;
  kernels : kernel list; (* execution order *)
  memcpys : int; (* CUDA memcpy calls (Table 3 "CPY" includes memsets) *)
  memsets : int;
  memcpy_bytes : int;
  batch : Batch_axis.plan option;
      (* when the graph is the max-batch member of a shape-polymorphic
         family, the symbolic batch extent and per-node classification
         that license executing any smaller batch over this plan's
         buffers without recompiling; None for fixed-shape plans *)
}

(* Structural problems are reported as Compile_error violations; [check]
   raises [Compile_error.Error] on the first, [check_all] collects all. *)

(* --- Simple accessors -------------------------------------------------- *)

let kernel_node_ids k = List.map (fun (o : compiled_op) -> o.id) k.ops

let is_memory_intensive_kernel k = k.kind = Codegen

let memory_intensive_kernels t =
  List.filter is_memory_intensive_kernel t.kernels

let compute_intensive_kernels t =
  List.filter (fun k -> k.kind = Library) t.kernels

let copy_kernels t = List.filter (fun k -> k.kind = Copy) t.kernels

(* Table 3's "CPY": CUDA memcpy/memset activities. *)
let cpy_count t = t.memcpys + t.memsets + List.length (copy_kernels t)

(* Per-kernel op lookup.  Hot paths (invariant checking, the runtime
   executor) query ops by node id many times per kernel; an index table
   built in one pass replaces the per-query list scan.  Insertion keeps
   the first op with a given id, matching what [List.find_opt] returned
   on (ill-formed) kernels with duplicates. *)
type op_index = (Op.node_id, compiled_op) Hashtbl.t

let index_ops k : op_index =
  let idx = Hashtbl.create (max 16 (2 * List.length k.ops)) in
  List.iter
    (fun (o : compiled_op) ->
      if not (Hashtbl.mem idx o.id) then Hashtbl.add idx o.id o)
    k.ops;
  idx

let find_op_in (idx : op_index) id = Hashtbl.find_opt idx id
let find_op k id = find_op_in (index_ops k) id

(* --- Per-op instruction counting --------------------------------------- *)

(* FP32 instructions executed for one full evaluation of the op. *)
let op_insts g id =
  let op = Graph.op g id in
  let out_elems = Graph.num_elements g id in
  match op with
  | Op.Reduce { input; _ } -> Graph.num_elements g input
  | Op.Max_pool { window; _ } -> out_elems * window * window
  | Op.Dot { lhs; _ } ->
      let ls = Graph.shape g lhs in
      let k = ls.(Shape.rank ls - 1) in
      2 * out_elems * k
  | Op.Conv2d { filter; _ } ->
      let fs = Graph.shape g filter in
      2 * out_elems * fs.(0) * fs.(1) * fs.(2)
  | _ -> out_elems * Op.fp32_insts_per_element op

(* --- Memory-traffic analysis ------------------------------------------ *)

(* Whether a cross-kernel read of [id] hits L2 (it was produced recently by
   a preceding kernel and is small enough to still be resident) or goes to
   DRAM (parameters/constants are cold; big tensors are evicted). *)
let intermediate_stays_in_l2 t id =
  Graph.bytes t.graph id * 2 <= t.arch.Arch.l2_cache_bytes

let is_leaf g id =
  match Graph.op g id with
  | Op.Parameter _ | Op.Constant _ | Op.Iota _ -> true
  | _ -> false

(* DRAM + instruction work of one kernel.

   Reads: distinct operands read from outside the kernel's on-chip values.
   Cold data (parameters, constants) always comes from DRAM; intermediates
   materialized by earlier kernels are L2 hits when small (this is why XLA
   and AStitch show nearly identical dram_read counters in Table 5 while
   the write counters differ by 4x: every XLA kernel boundary *writes* its
   intermediate, but the following read usually hits L2).

   Redundant recomputation multiplies instructions, not DRAM traffic (the
   replicated loads hit cache).  That reproduces Table 5's structure:
   inst_fp_32 inflation without read inflation. *)
let kernel_work t (k : kernel) : Cost_model.work =
  let g = t.graph in
  let in_kernel = Hashtbl.create 16 in
  List.iter (fun (o : compiled_op) -> Hashtbl.replace in_kernel o.id o) k.ops;
  (* Reads are deduplicated per (operand, op group): within one schedule
     the loaded value sits in registers, across groups it is re-loaded
     (the operator-level reuse dominant merging buys back).  A consumer
     that is recomputed also re-loads its operands; the cache bounds the
     amplification, so it is capped. *)
  let reload_cap = 4 in
  let seen_reads : (Op.node_id * int, int) Hashtbl.t = Hashtbl.create 16 in
  let note_external_read ~group ~times id =
    let times = Stdlib.min reload_cap times in
    let prev = Option.value ~default:0 (Hashtbl.find_opt seen_reads (id, group)) in
    if times > prev then Hashtbl.replace seen_reads (id, group) times
  in
  let total_read_bytes () =
    Hashtbl.fold
      (fun (id, _group) times acc ->
        let bytes = Graph.bytes g id in
        if is_leaf g id then acc + (bytes * times)
        else if not (intermediate_stays_in_l2 t id) then acc + (bytes * times)
        else acc)
      seen_reads 0
  in
  let write_bytes = ref 0 in
  let insts = ref 0 in
  let atomics = ref 0 in
  List.iter
    (fun (o : compiled_op) ->
      List.iter
        (fun operand ->
          match Hashtbl.find_opt in_kernel operand with
          | Some producer -> (
              match producer.placement with
              | Register | Shared_mem -> ()
              | Global_scratch ->
                  (* scratch reads go through L2 when small *)
                  if not (intermediate_stays_in_l2 t operand) then
                    note_external_read ~group:o.group ~times:1 operand
              | Device_mem -> ())
          | None -> note_external_read ~group:o.group ~times:o.recompute operand)
        (Graph.operands g o.id);
      (match o.placement with
      | Device_mem | Global_scratch ->
          write_bytes := !write_bytes + Graph.bytes g o.id
      | Register | Shared_mem -> ());
      insts := !insts + (op_insts g o.id * o.recompute);
      (match Graph.op g o.id with
      | Op.Scatter_add _ ->
          (* one atomic add per update element *)
          atomics := !atomics + Graph.num_elements g o.id
      | _ -> ());
      if Thread_mapping.uses_atomics o.mapping then begin
        let extra =
          match o.mapping with
          | Thread_mapping.Row_reduce { rows; split; _ } -> rows * split
          | Thread_mapping.Column_reduce { rows = _; row_length = _; grid; _ }
            ->
              Graph.num_elements g o.id * Stdlib.min 8 grid
          | Thread_mapping.Elementwise _ -> 0
        in
        atomics := !atomics + extra
      end)
    k.ops;
  {
    Cost_model.dram_read_bytes = total_read_bytes ();
    dram_write_bytes = !write_bytes;
    fp32_insts = !insts;
    atomic_insts = !atomics;
    num_barriers = k.barriers;
  }

(* --- Structural invariants --------------------------------------------- *)

(* Violations of one kernel, independent of the rest of the plan:
   intra-kernel topological order (1), consistent thread mappings (1b),
   register co-location (5), shared-memory legality and footprint (6),
   barrier and launch legality (7).  Cross-kernel invariants live in
   [plan_violations].
   Runs once per kernel where the compile driver makes it, so its cost
   stays in the kernel's own size: no node-indexed state. *)
let kernel_violations ~emit arch g (k : kernel) =
  let structure = Compile_error.Invalid_structure in
  let idx = index_ops k in
  let live_consumers id =
    List.filter (Graph.is_live g) (Graph.consumers g id)
  in
  (* 1. intra-kernel topological order and non-emptiness *)
  if k.ops = [] then
    emit
      (Compile_error.violation ~where:k.name Compile_error.Empty_cluster
         "kernel %s has no ops" k.name);
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (o : compiled_op) ->
      List.iter
        (fun operand ->
          if Hashtbl.mem idx operand && not (Hashtbl.mem seen operand) then
            emit
              (Compile_error.violation ~where:k.name ~ops:[ o.id; operand ]
                 structure
                 "kernel %s: op %%%d uses in-kernel operand %%%d before it \
                  is computed" k.name o.id operand))
        (Graph.operands g o.id);
      Hashtbl.replace seen o.id ())
    k.ops;
  (* 1b. every op's thread mapping is a consistent geometry *)
  List.iter
    (fun (o : compiled_op) ->
      try
        Thread_mapping.validate ~max_block:arch.Arch.max_threads_per_block
          o.mapping
      with Thread_mapping.Invalid m ->
        emit
          (Compile_error.violation ~where:k.name ~ops:[ o.id ] structure
             "kernel %s: op %%%d mapping %s: %s" k.name o.id
             (Thread_mapping.to_string o.mapping) m))
    k.ops;
  (* 5. register placement: consumers must be co-located, and one-to-many
        consumers must pay their recompute *)
  List.iter
    (fun (o : compiled_op) ->
      if o.placement = Register then
        List.iter
          (fun consumer ->
            match find_op_in idx consumer with
            | None ->
                emit
                  (Compile_error.violation ~where:k.name
                     ~ops:[ o.id; consumer ] structure
                     "node %%%d in register but consumer %%%d is outside \
                      kernel %s" o.id consumer k.name)
            | Some c ->
                if
                  Pattern.edge_dep g ~producer:o.id ~consumer = One_to_many
                  && o.recompute = 1 && c.recompute = 1
                  && not (Thread_mapping.block_aligned o.mapping c.mapping)
                then
                  emit
                    (Compile_error.violation ~where:k.name
                       ~ops:[ o.id; consumer ] structure
                       "node %%%d: register value fans out to %%%d without \
                        recompute or alignment" o.id consumer))
          (live_consumers o.id))
    k.ops;
  (* 6. shared-memory placement: consumers in-kernel, block-aligned, and
        total smem within the declared launch footprint *)
  let smem_bytes = ref 0 in
  List.iter
    (fun (o : compiled_op) ->
      if o.placement = Shared_mem then begin
        (match Thread_mapping.contiguous_outputs_per_block o.mapping with
        | None ->
            emit
              (Compile_error.violation ~where:k.name ~ops:[ o.id ] structure
                 "node %%%d: shared-memory placement with non-contiguous \
                  mapping" o.id)
        | Some per_block ->
            smem_bytes :=
              !smem_bytes + (per_block * Dtype.size_bytes (Graph.dtype g o.id)));
        List.iter
          (fun consumer ->
            if find_op_in idx consumer = None then
              emit
                (Compile_error.violation ~where:k.name ~ops:[ o.id; consumer ]
                   structure
                   "node %%%d in shared memory but consumer %%%d escapes \
                    kernel %s" o.id consumer k.name))
          (live_consumers o.id)
      end)
    k.ops;
  if !smem_bytes > k.launch.Launch.shared_mem_per_block then
    emit
      (Compile_error.violation ~where:k.name Compile_error.Shared_mem_overflow
         "kernel %s: shared buffers need %dB > declared %dB" k.name
         !smem_bytes k.launch.Launch.shared_mem_per_block);
  (* 7. global-scratch consumed in-kernel requires a global barrier, which
        must be legal for the launch *)
  let needs_barrier =
    List.exists
      (fun (o : compiled_op) ->
        o.placement = Global_scratch
        && List.exists (fun c -> Hashtbl.mem idx c) (live_consumers o.id))
      k.ops
  in
  if needs_barrier && k.barriers = 0 then
    emit
      (Compile_error.violation ~where:k.name Compile_error.Barrier_deadlock
         "kernel %s: global-scratch reuse without a global barrier" k.name);
  (if k.barriers > 0 then
     try Barrier.check_legal arch k.launch
     with Barrier.Deadlock m ->
       emit
         (Compile_error.violation ~where:k.name Compile_error.Barrier_deadlock
            "kernel %s: %s" k.name m));
  try Occupancy.check_launchable arch k.launch
  with Occupancy.Unlaunchable m ->
    emit
      (Compile_error.violation ~where:k.name Compile_error.Unlaunchable
         "kernel %s: %s" k.name m)

(* Cross-kernel invariants: unique materialization (2), availability in
   execution order (3), outputs materialized (4).  Per-node state lives
   in arrays allocated once per plan. *)
let plan_violations ~emit t =
  let g = t.graph in
  let structure = Compile_error.Invalid_structure in
  let num_nodes = Graph.num_nodes g in
  (* 2. each node materialized to device at most once *)
  let materialized = Array.make num_nodes false in
  List.iter
    (fun k ->
      List.iter
        (fun (o : compiled_op) ->
          if o.placement = Device_mem then begin
            if materialized.(o.id) then
              emit
                (Compile_error.violation ~where:k.name ~ops:[ o.id ] structure
                   "node %%%d materialized by two kernels" o.id);
            materialized.(o.id) <- true
          end)
        k.ops)
    t.kernels;
  (* 3. cross-kernel availability in execution order; [computed_in.(id)]
        is the last kernel (by position) that computed the node so far *)
  let available = Array.make num_nodes false in
  let computed_in = Array.make num_nodes (-1) in
  List.iteri
    (fun ki k ->
      List.iter
        (fun (o : compiled_op) ->
          List.iter
            (fun operand ->
              let ok =
                computed_in.(operand) = ki
                || available.(operand)
                || is_leaf g operand
              in
              if not ok then
                emit
                  (Compile_error.violation ~where:k.name ~ops:[ operand ]
                     structure
                     "kernel %s: op %%%d reads %%%d which is not available"
                     k.name o.id operand))
            (Graph.operands g o.id);
          computed_in.(o.id) <- ki)
        k.ops;
      (* executor semantics: on-chip and scratch values die with their
         kernel, and a kernel recomputing a node on-chip purges any copy
         an earlier kernel materialized (single value slot per node) *)
      List.iter
        (fun (o : compiled_op) -> available.(o.id) <- o.placement = Device_mem)
        k.ops)
    t.kernels;
  (* 4. graph outputs are materialized *)
  List.iter
    (fun out ->
      if not (available.(out) || is_leaf g out) then
        emit
          (Compile_error.violation ~ops:[ out ] structure
             "graph output %%%d never materialized to device memory" out))
    (Graph.outputs g)

let check_kernel arch g k =
  let acc = ref [] in
  kernel_violations ~emit:(fun v -> acc := v :: !acc) arch g k;
  List.rev !acc

let check_cross_kernel t =
  let acc = ref [] in
  plan_violations ~emit:(fun v -> acc := v :: !acc) t;
  List.rev !acc

let check_all t =
  let acc = ref [] in
  let emit v = acc := v :: !acc in
  List.iter (kernel_violations ~emit t.arch t.graph) t.kernels;
  plan_violations ~emit t;
  List.rev !acc

let check t =
  match check_all t with
  | [] -> ()
  | violations -> raise (Compile_error.error ~pass:"plan-check" violations)

(* --- Kernel scheduling -------------------------------------------------- *)

(* Topologically order kernels by their data dependencies (kernel A -> B
   when B reads a node A materializes).  Needed because remote stitching
   produces kernels whose op ids interleave; node-id order is no longer a
   valid schedule.  Ties break on the smallest node id for determinism. *)
let toposort_kernels g kernels =
  let arr = Array.of_list kernels in
  let n = Array.length arr in
  let num_nodes = Graph.num_nodes g in
  (* node -> the last kernel that materializes it, or -1 *)
  let producer = Array.make num_nodes (-1) in
  Array.iteri
    (fun ki k ->
      List.iter
        (fun (o : compiled_op) ->
          if o.placement = Device_mem then producer.(o.id) <- ki)
        k.ops)
    arr;
  (* stamps while scanning kernel ki: [in_kernel.(id) = ki] for its own
     ops, [dep_of.(kj) = ki] once kj is recorded as its dependency *)
  let in_kernel = Array.make num_nodes (-1) in
  let dep_of = Array.make n (-1) in
  let indegree = Array.make n 0 in
  let succs = Array.make n [] in
  Array.iteri
    (fun ki k ->
      List.iter (fun (o : compiled_op) -> in_kernel.(o.id) <- ki) k.ops;
      List.iter
        (fun (o : compiled_op) ->
          List.iter
            (fun operand ->
              let kj = producer.(operand) in
              if
                in_kernel.(operand) <> ki
                && kj >= 0 && kj <> ki && dep_of.(kj) <> ki
              then begin
                dep_of.(kj) <- ki;
                succs.(kj) <- ki :: succs.(kj);
                indegree.(ki) <- indegree.(ki) + 1
              end)
            (Graph.operands g o.id))
        k.ops)
    arr;
  let key ki =
    match arr.(ki).ops with [] -> max_int | o :: _ -> o.id
  in
  let module Ready = Set.Make (struct
    type t = int * int

    let compare (k1, i1) (k2, i2) =
      match Int.compare k1 k2 with 0 -> Int.compare i1 i2 | c -> c
  end) in
  let ready = ref Ready.empty in
  Array.iteri
    (fun ki d -> if d = 0 then ready := Ready.add (key ki, ki) !ready)
    indegree;
  let out = ref [] in
  let emitted = ref 0 in
  while not (Ready.is_empty !ready) do
    let ((_, ki) as elt) = Ready.min_elt !ready in
    ready := Ready.remove elt !ready;
    out := arr.(ki) :: !out;
    incr emitted;
    List.iter
      (fun kj ->
        indegree.(kj) <- indegree.(kj) - 1;
        if indegree.(kj) = 0 then ready := Ready.add (key kj, kj) !ready)
      succs.(ki)
  done;
  if !emitted <> n then
    Compile_error.fail ~pass:"kernel-schedule" Compile_error.Invalid_structure
      "cyclic kernel dependencies";
  List.rev !out

(* --- Pretty printing ---------------------------------------------------- *)

let pp_kernel g fmt (k : kernel) =
  Format.fprintf fmt "%s %s [%a]%s@." k.name
    (match k.kind with
    | Codegen -> "(codegen)"
    | Library -> "(library)"
    | Copy -> "(memcpy)")
    Launch.pp k.launch
    (if k.barriers > 0 then Printf.sprintf " barriers=%d" k.barriers else "");
  List.iter
    (fun (o : compiled_op) ->
      Format.fprintf fmt "    %a  :: %s/%s recompute=%d  %s@." (Graph.pp_node g)
        o.id
        (Scheme.to_string o.scheme)
        (placement_to_string o.placement)
        o.recompute
        (Thread_mapping.to_string o.mapping))
    k.ops

let pp fmt t =
  Format.fprintf fmt "plan on %s: %d kernels, %d memcpys, %d memsets@."
    t.arch.Arch.name (List.length t.kernels) t.memcpys t.memsets;
  List.iter (fun k -> Format.fprintf fmt "  %a" (pp_kernel t.graph) k) t.kernels
