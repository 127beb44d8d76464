(* Plan execution: computes real tensor values by walking the plan's
   kernels in order.

   Stitching never changes numerics - each op still evaluates its operands
   element-wise exactly as the reference interpreter does - so executing a
   plan must reproduce Interp.run bit-for-bit.  What execution adds over
   the interpreter is plan discipline: ops are only evaluated when their
   kernel runs, and operands must already be available under the plan's
   own ordering ([Tape.lower] checks it when the context is created; a
   read of a value the plan never computed is an [Execution_error]). *)

open Astitch_ir
open Astitch_tensor
open Astitch_plan
module Trace = Astitch_obs.Trace

exception Execution_error of string

(* --- Runtime fault instrumentation --------------------------------------

   Every context carries two of the serving runtime's fault sites:
   [Kernel_exec] fires after each kernel executes, [Staged_restage]
   inside slab refills.  Corrupt mode perturbs one cell of a live buffer
   in place ([Fault_site.corrupt]) - silent numeric damage with no
   exception, which only the serving layer's poisoned-batch detection
   (comparing the fired counter around each batch) can catch. *)

(* --- Reusable execution contexts --------------------------------------

   A plan is compiled once and executed many times, so [create_context]
   compiles the plan once into per-kernel action arrays and
   [run_context] replays them; [run] is a one-shot unstitched context.

   Every kernel runs on one tiled engine, which honors the plan's
   stitching schemes ([Tape] assigns each op its role):

   - Register ops are scalarized: [Scalar_eval] compiles them into
     tile writers evaluated inside their consumers' loops, one tile of
     at most [Scalar_eval.tile] elements at a time - zero
     materialization (the paper's Local scheme).  A heavy one the plan
     charges once and two or more loops read is held instead
     ([Tape.Held]): its own loop writes it into a per-kernel hold
     buffer just before the first loop that reads it;
   - Shared_mem ops are staged per block: a reusable slab sized from the
     thread mapping's contiguous block geometry holds one block's worth
     of elements, refilled on block change (Regional scheme);
   - only Device_mem / Global_scratch values touch full buffers, and
     those come from a liveness-driven arena ([Astitch_core.Mem_planner.plan_slots]):
     nodes with disjoint live ranges share one backing array, so the
     context allocates strictly fewer full buffers than it executes ops;
   - reshapes of full storage are bound as views (O(1) per run).

   A kernel whose stitched lowering hits an unsupported pattern, and
   every kernel under [~fused:false], lowers unstitched: each op
   materialized into its own arena buffer by the same tile writers, so
   its loops bound at a batch prefix like any other.

   Bit-identity: every fused loop writes output elements in ascending
   linear order, one tile after another, and each element is produced by
   exactly the float operations, in exactly the order, of the matching
   [Interp] case ([Scalar_eval] documents the per-op argument; reductions
   fold their contributing inputs in ascending linear order, which is
   precisely the order [Interp]'s global ascending sweep feeds each
   accumulator).  Values are pure functions of operand elements, so
   recomputing them (scalarization) or re-staging them (slabs) cannot
   change a bit.  Slabs also count their refills; tile writers read
   every slab in the order per-element reads would (see
   [Scalar_eval.t]), so those counts do not depend on the tiling.  The
   loops that write whole values and refill slabs go through
   [Scalar_eval.fill_range], which cuts tiles at the value's window
   period: inside one window every slab read falls in one block, so
   ops whose operands share a slab run their tile writers too. *)

(* One staged (Shared_mem) value: a slab holding one block of elements.
   [fill] is tied after the tile writer exists (it captures it). *)
type slab = {
  total : int;
  block_elems : int;
  s_unit : int; (* per-batch prefix elements; 0 when batch-invariant *)
  sdata : float array;
  mutable cur_block : int; (* -1 = empty; reset per kernel execution *)
  mutable cur_total : int; (* element bound this run: a prefix of [total]
                              when executing a smaller symbolic batch *)
  mutable fill : int -> unit;
}

type action =
  | Tiled of {
      dst : float array;
      n : int;
      unit : int;
      node : Scalar_eval.t;
      staged : bool; (* destination is a global scratch slot *)
    }
      (* write one value tile by tile, into its arena buffer, its
         per-kernel global scratch slot or its hold buffer, tiles cut at
         the value's window period; [unit] is the per-batch element
         count (0 = batch-invariant), so a symbolic batch b bounds the
         loop at [unit * b] instead of [n] *)
  | Scatter of {
      dst : float array;
      idx : Scalar_eval.t;
      upd : Scalar_eval.t;
      one : float array; (* a row's index, read by a one-slot fill *)
      buf : float array; (* one tile of a row's updates *)
      k : int;
      row : int;
      rows : int;
      staged : bool; (* destination is a global scratch slot *)
    } (* scatter_add with scalarized index/update operands *)
  | Bind_view of { id : int; root : int; shape : Shape.t }
  | Barrier_sync
      (* in-kernel global barrier: the scratch values staged since the
         previous barrier point become visible to every block *)

type kernel = {
  actions : action array;
  slabs : slab array;
  written : int array; (* materialized ids: where a corrupt fault lands *)
  prof : Profile.exec_kernel;
}

(* Symbolic-batch support: when the plan carries a batch classification
   (compiled at [smax], every node Invariant or Scaled), the context can
   execute any batch b in [1, smax] over the same max-sized buffers by
   bounding every scaled loop at its prefix. *)
type sym_info = {
  smax : int;
  cls : Batch_axis.cls array;
  units : int array; (* node id -> per-batch elems; 0 for invariant *)
}

type context = {
  plan : Kernel_plan.t;
  values : Tensor.t array; (* node id -> current value *)
  param_slots : (int * string * Shape.t) array; (* id, name, declared *)
  kernels : kernel array; (* plan order *)
  output_ids : int array;
  report : Profile.exec_report;
  timed : bool;
  sym : sym_info option; (* Some iff the plan carries a batch
                            classification *)
}

let bytes_of elems = 8 * elems (* host tensors are unboxed float64 *)

let create_context_body ~fused ~timed (plan : Kernel_plan.t) : context =
  let g = plan.graph in
  let n = Graph.num_nodes g in
  (* symbolic batch: per-node prefix units (elements per batch step),
     used while lowering to tag scaled loops and slabs *)
  let sym =
    match plan.batch with
    | Some pb
      when pb.Batch_axis.max_batch >= 1 && Array.length pb.Batch_axis.cls = n
      ->
        Some
          {
            smax = pb.Batch_axis.max_batch;
            cls = pb.Batch_axis.cls;
            units =
              Array.init n (fun id ->
                  match pb.Batch_axis.cls.(id) with
                  | Batch_axis.Invariant -> 0
                  | Batch_axis.Scaled _ ->
                      Graph.num_elements g id / pb.Batch_axis.max_batch);
          }
    | _ -> None
  in
  let unit_of id = match sym with None -> 0 | Some si -> si.units.(id) in
  let values = Array.make n (Tensor.scalar 0.) in
  (* constants and iotas are run-invariant: evaluate them once *)
  let run_invariant (nd : Graph.node) =
    match nd.op with Op.Constant _ | Op.Iota _ -> true | _ -> false
  in
  Graph.iter_nodes
    (fun nd ->
      if run_invariant nd then
        values.(nd.id) <- Interp.eval_node g values ~params:[] nd)
    g;
  let param_slots =
    Graph.fold_nodes
      (fun acc (nd : Graph.node) ->
        match nd.op with
        | Op.Parameter { name } -> (nd.id, name, nd.shape) :: acc
        | _ -> acc)
      [] g
    |> List.rev |> Array.of_list
  in
  (* ---- tape lowering + arena planning ---- *)
  let tape =
    try Tape.lower ~fused plan
    with Tape.Unavailable m -> raise (Execution_error m)
  in
  let assignments, slot_table =
    Astitch_core.Mem_planner.plan_slots
      (List.map
         (fun (iv : Tape.interval) ->
           (iv.node, iv.elems, iv.def_pos, iv.last_pos))
         tape.Tape.intervals)
  in
  Astitch_core.Mem_planner.check_slot_exclusive assignments;
  let slot_arrays =
    let a = Array.make (List.length slot_table) [||] in
    List.iter (fun (s, elems) -> a.(s) <- Array.make elems 0.) slot_table;
    a
  in
  (* bind every arena-backed node once: differently-shaped tensors over a
     shared slot array are just records; the data is the slot *)
  let arena = Array.make n None in
  List.iter
    (fun (a : Astitch_core.Mem_planner.slot_assignment) ->
      let t = Tensor.create (Graph.shape g a.node) slot_arrays.(a.slot) in
      arena.(a.node) <- Some t;
      values.(a.node) <- t)
    assignments;
  (* ---- per-kernel compilation ---- *)
  let lower_kernel (kt : Tape.kernel_tape) =
    let k = kt.kernel in
    let prof : Profile.exec_kernel =
      {
        kname = k.name;
        fallback = kt.fallback;
        ops = List.length k.ops;
        loops = 0;
        bytes_materialized = 0;
        bytes_scalarized = 0;
        bytes_held = 0;
        slab_bytes = 0;
        bytes_staged = 0;
        restages = 0;
        demotions = List.length kt.demotions;
        gscratch_bytes = 0;
        bytes_staged_global = 0;
        barriers_run = 0;
        wall_ns = 0.;
        minor_words = 0;
        runs = 0;
      }
    in
    let roles : (int, Tape.role) Hashtbl.t = Hashtbl.create 16 in
    List.iter (fun (id, r) -> Hashtbl.replace roles id r) kt.roles;
    (* per-kernel global scratch: slots live between barrier-separated
       segments, planned with the same liveness reuse as the plan-wide
       arena but in action indices (a slot frees after its last reader
       and can back a later value in the same kernel) *)
    let gassignments, gslot_table =
      Astitch_core.Mem_planner.plan_slots kt.gslots
    in
    Astitch_core.Mem_planner.check_slot_exclusive gassignments;
    let gslot_arrays =
      let a = Array.make (List.length gslot_table) [||] in
      List.iter (fun (s, elems) -> a.(s) <- Array.make elems 0.) gslot_table;
      a
    in
    prof.gscratch_bytes <-
      Array.fold_left (fun acc a -> acc + bytes_of (Array.length a)) 0
        gslot_arrays;
    let gscratch : (int, float array) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (a : Astitch_core.Mem_planner.slot_assignment) ->
        Hashtbl.replace gscratch a.node gslot_arrays.(a.slot))
      gassignments;
    (* hold buffers, in op order: (held id, the producer whose loop its
       hold precedes, buffer) *)
    let holds =
      List.filter_map
        (fun (id, role) ->
          match role with
          | Tape.Held { before } ->
              let buf = Array.make (Graph.num_elements g id) 0. in
              prof.bytes_held <- prof.bytes_held + bytes_of (Array.length buf);
              Some (id, before, buf)
          | _ -> None)
        kt.roles
    in
    let accessors : (int, Scalar_eval.t) Hashtbl.t = Hashtbl.create 16 in
    let slabs = ref [] in
    let static arr =
      Scalar_eval.storage ~get:(fun j -> arr.(j)) (fun () -> arr)
    in
    (* full-storage reads: capture the backing array when the binding is
       static (arena slots, pre-evaluated constants), read through
       [values] when it is rebound per run (parameters, views) *)
    let storage_read id =
      match arena.(id) with
      | Some t -> static (Tensor.data t)
      | None ->
          if run_invariant (Graph.node g id) then
            static (Tensor.data values.(id))
          else
            Scalar_eval.storage
              ~get:(fun j -> Tensor.get_linear values.(id) j)
              (fun () -> Tensor.data values.(id))
    in
    let rec accessor id =
      match Hashtbl.find_opt accessors id with
      | Some f -> f
      | None ->
          let f =
            match Hashtbl.find_opt roles id with
            | None | Some Tape.Materialize -> storage_read id
            | Some (Tape.Staged_global _) ->
                (* the slot array is fixed at context creation; reads are
                   sequenced after the staging action by the tape's
                   barrier points *)
                static (Hashtbl.find gscratch id)
            | Some (Tape.Alias { root }) ->
                (* a reshape view preserves linear order: read the root *)
                accessor root
            | Some (Tape.Held _) ->
                (* written before the first loop that reads it *)
                let _, _, buf = List.find (fun (h, _, _) -> h = id) holds in
                static buf
            | Some Tape.Inline ->
                prof.bytes_scalarized <-
                  prof.bytes_scalarized + bytes_of (Graph.num_elements g id);
                Scalar_eval.compile g (Graph.node g id) ~operand:accessor
            | Some (Tape.Staged { block_elems }) ->
                let total = Graph.num_elements g id in
                let sl =
                  {
                    total;
                    block_elems;
                    s_unit = unit_of id;
                    sdata = Array.make block_elems 0.;
                    cur_block = -1;
                    cur_total = total;
                    fill = ignore;
                  }
                in
                slabs := sl :: !slabs;
                prof.slab_bytes <- prof.slab_bytes + bytes_of block_elems;
                let node =
                  Scalar_eval.compile g (Graph.node g id) ~operand:accessor
                in
                sl.fill <-
                  (fun b ->
                    let lo = b * block_elems in
                    let hi = Int.min sl.cur_total (lo + block_elems) in
                    Scalar_eval.fill_range node sl.sdata 0 lo hi;
                    prof.bytes_staged <-
                      prof.bytes_staged + bytes_of (hi - lo);
                    (* a backwards move means a consumer re-visits blocks
                       it already staged: irregular access, re-staged *)
                    if b < sl.cur_block then prof.restages <- prof.restages + 1;
                    match
                      Fault_site.check_runtime Fault_site.Staged_restage
                        ~pass:"staged-fill"
                    with
                    | None -> ()
                    | Some fseed -> Fault_site.corrupt sl.sdata fseed);
                let load b =
                  if sl.cur_block <> b then begin
                    sl.fill b;
                    sl.cur_block <- b
                  end
                in
                (* a tile visits blocks in ascending order, as the same
                   reads one element at a time would *)
                let fill dst off lo len =
                  let j = ref lo and hi = lo + len in
                  while !j < hi do
                    let b = !j / block_elems in
                    load b;
                    let stop = Int.min hi ((b + 1) * block_elems) in
                    Array.blit sl.sdata (!j - (b * block_elems)) dst
                      (off + (!j - lo)) (stop - !j);
                    j := stop
                  done
                in
                Scalar_eval.staged ~id ~block_elems ~total ~node
                  ~get:(fun j ->
                    let b = j / block_elems in
                    load b;
                    sl.sdata.(j - (b * block_elems)))
                  ~fill
          in
          Hashtbl.replace accessors id f;
          f
    in
    let tiled ~staged dst (nd : Graph.node) =
      Tiled
        {
          dst;
          n = Array.length dst;
          unit = unit_of nd.id;
          node = Scalar_eval.compile g nd ~operand:accessor;
          staged;
        }
    in
    let scatter ~staged dst indices updates rows =
      let us = Graph.shape g updates in
      let k = Shape.dim us 0 in
      let row = Shape.num_elements us / k in
      Scatter
        {
          dst;
          idx = accessor indices;
          upd = accessor updates;
          one = [| 0. |];
          buf = Array.make (Int.min row Scalar_eval.tile) 0.;
          k;
          row;
          rows;
          staged;
        }
    in
    let barrier_before : (int, unit) Hashtbl.t = Hashtbl.create 8 in
    List.iter (fun id -> Hashtbl.replace barrier_before id ()) kt.barrier_before;
    let actions =
      List.concat_map
        (fun ((id, role) : int * Tape.role) ->
          let nd = Graph.node g id in
          (* the tape opens a new barrier-separated segment before any
             producer that reads scratch staged since the last barrier;
             the values held for the producer's loop are written after
             the barrier, in op order *)
          let pre =
            (if Hashtbl.mem barrier_before id then [ Barrier_sync ] else [])
            @
            if holds = [] then []
            else
              List.filter_map
                (fun (h, before, buf) ->
                  if before <> id then None
                  else begin
                    prof.loops <- prof.loops + 1;
                    Some (tiled ~staged:false buf (Graph.node g h))
                  end)
                holds
          in
          match role with
          | Tape.Inline | Tape.Held _ | Tape.Staged _ ->
              [] (* consumed lazily, or written by a hold loop *)
          | Tape.Alias { root } ->
              pre @ [ Bind_view { id; root; shape = nd.shape } ]
          | Tape.Staged_global _ -> (
              let dst = Hashtbl.find gscratch id in
              prof.loops <- prof.loops + 1;
              match nd.op with
              | Op.Scatter_add { indices; updates; rows } ->
                  pre @ [ scatter ~staged:true dst indices updates rows ]
              | _ -> pre @ [ tiled ~staged:true dst nd ])
          | Tape.Materialize -> (
              let dst =
                match arena.(id) with
                | Some t -> t
                | None -> assert false (* every Materialize role has a slot *)
              in
              prof.loops <- prof.loops + 1;
              prof.bytes_materialized <-
                prof.bytes_materialized + bytes_of (Tensor.num_elements dst);
              (* materialization always runs through precompiled tile
                 writers: bit-identical to [Interp.eval_node] (see
                 [Scalar_eval]) but with the per-run setup - stride
                 tables, shape checks, per-element index allocation -
                 paid once at context creation *)
              match nd.op with
              | Op.Scatter_add { indices; updates; rows } ->
                  let dst = Tensor.data dst in
                  pre @ [ scatter ~staged:false dst indices updates rows ]
              | _ -> pre @ [ tiled ~staged:false (Tensor.data dst) nd ]))
        kt.roles
    in
    {
      actions = Array.of_list actions;
      slabs = Array.of_list !slabs;
      written = Array.of_list kt.materialized;
      prof;
    }
  in
  let kernels = Array.of_list (List.map lower_kernel tape.Tape.kernels) in
  (* ---- profile report ---- *)
  (* the values an every-op-materialized run writes: every kernel op but
     parameters and reshapes *)
  let requested = Hashtbl.create 64 in
  List.iter
    (fun (k : Kernel_plan.kernel) ->
      List.iter
        (fun (o : Kernel_plan.compiled_op) ->
          match Graph.op g o.id with
          | Op.Parameter _ | Op.Reshape _ -> ()
          | _ -> Hashtbl.replace requested o.id (Graph.num_elements g o.id))
        k.ops)
    plan.kernels;
  let report : Profile.exec_report =
    {
      exec_kernels = Array.to_list (Array.map (fun k -> k.prof) kernels);
      nodes_executed =
        List.fold_left
          (fun acc (k : Kernel_plan.kernel) -> acc + List.length k.ops)
          0 plan.kernels;
      buffers_requested = Hashtbl.length requested;
      buffers_allocated = Array.length slot_arrays;
      arena_bytes =
        Array.fold_left (fun acc a -> acc + bytes_of (Array.length a)) 0
          slot_arrays;
      naive_bytes =
        Hashtbl.fold (fun _ elems acc -> acc + bytes_of elems) requested 0;
    }
  in
  {
    plan;
    values;
    param_slots;
    kernels;
    output_ids = Array.of_list (Graph.outputs g);
    report;
    timed;
    sym;
  }

let create_context ?(fused = true) ?(timed = false) (plan : Kernel_plan.t) :
    context =
  if not (Trace.enabled ()) then create_context_body ~fused ~timed plan
  else
    Trace.with_span ~phase:"exec" "create-context"
      ~attrs:
        [
          ("fused", Trace.Bool fused);
          ("kernels", Trace.Int (List.length plan.Kernel_plan.kernels));
        ]
      (fun () -> create_context_body ~fused ~timed plan)

let exec_report ctx = ctx.report
let rebindable ctx = ctx.sym <> None

let context_fallbacks ctx =
  List.filter_map
    (fun (k : Profile.exec_kernel) ->
      match k.fallback with Some r -> Some (k.kname, r) | None -> None)
    ctx.report.exec_kernels

let run_context ?batch (ctx : context) ~params : Tensor.t list =
  (* [traced] is decided once per run: with no sink installed the ids
     stay 0 and no per-kernel code below allocates (the zero-cost
     contract the test suite pins down with [Gc.minor_words]).  When
     the worker pool calls this inside its batch span the whole
     run-context tree - including the per-kernel spans - nests under
     that batch via the domain-local span stack. *)
  let traced = Trace.enabled () in
  let rsid = if traced then Trace.span_begin ~phase:"exec" "run-context" else 0 in
  let g = ctx.plan.Kernel_plan.graph in
  (* symbolic-batch rebind: [bscale] > 0 executes the prefix for batch
     [bscale] over the max-sized buffers; 0 is the ordinary full run *)
  let scaled =
    match batch with
    | None -> None
    | Some b -> (
        match ctx.sym with
        | None ->
            invalid_arg "run_context: context is not batch-rebindable"
        | Some si ->
            if b < 1 || b > si.smax then
              invalid_arg
                (Printf.sprintf "run_context: batch %d outside 1..%d" b
                   si.smax)
            else if b = si.smax then None
            else Some (b, si))
  in
  let bscale = match scaled with Some (b, _) -> b | None -> 0 in
  let values = ctx.values in
  (* bind parameters through the pre-resolved slots (id order); under a
     symbolic batch, scaled parameters bind at their prefix shape *)
  Array.iter
    (fun (id, name, shape) ->
      match List.assoc_opt name params with
      | None -> raise (Interp.Missing_parameter name)
      | Some t ->
          let shape =
            match scaled with
            | Some (b, si) -> (
                match si.cls.(id) with
                | Batch_axis.Scaled { axis; _ } ->
                    let s = Array.copy shape in
                    s.(axis) <- shape.(axis) / si.smax * b;
                    s
                | Batch_axis.Invariant -> shape)
            | None -> shape
          in
          if not (Shape.equal (Tensor.shape t) shape) then
            Tensor.mismatch "parameter %s: bound shape %s, declared %s" name
              (Shape.to_string (Tensor.shape t))
              (Shape.to_string shape);
          values.(id) <- t)
    ctx.param_slots;
  Array.iter
    (fun ke ->
      let prof = ke.prof in
      let ksid =
        if traced then Trace.span_begin ~phase:"exec" prof.Profile.kname
        else 0
      in
      let t0 = if ctx.timed then Astitch_obs.Clock.monotonic_ns () else 0 in
      (* an unboxed external: reading it allocates nothing *)
      let w0 = if ctx.timed then Gc.minor_words () else 0. in
      (* slab contents are stale across runs (parameters changed); under
         a symbolic batch the slab bound shrinks to the prefix.  Loops,
         not [Array.iter]: a closure per kernel would be the run's only
         allocation on small kernels *)
      for i = 0 to Array.length ke.slabs - 1 do
        let sl = ke.slabs.(i) in
        sl.cur_block <- -1;
        sl.cur_total <-
          (if bscale > 0 && sl.s_unit > 0 then sl.s_unit * bscale
           else sl.total)
      done;
      for i = 0 to Array.length ke.actions - 1 do
        match ke.actions.(i) with
        | Tiled { dst; n; unit; node; staged } ->
            let n = if bscale > 0 && unit > 0 then unit * bscale else n in
            Scalar_eval.fill_range node dst 0 0 n;
            if staged then
              prof.bytes_staged_global <- prof.bytes_staged_global + bytes_of n
        | Scatter { dst; idx; upd; one; buf; k; row; rows; staged } ->
            Array.fill dst 0 (Array.length dst) 0.;
            (* row r: its index, then its updates a tile at a time, added
               in element order - the reads per-element accessors would
               make, in the same order *)
            for r = 0 to k - 1 do
              idx.fill one 0 r 1;
              let d =
                Int.max 0 (Int.min (rows - 1) (int_of_float one.(0))) * row
              in
              let c = ref 0 in
              while !c < row do
                let len = Int.min (Array.length buf) (row - !c) in
                let src = (r * row) + !c and base = d + !c in
                Scalar_eval.fill_range upd buf 0 src (src + len);
                for t = 0 to len - 1 do
                  dst.(base + t) <- dst.(base + t) +. buf.(t)
                done;
                c := !c + len
              done
            done;
            if staged then
              prof.bytes_staged_global <-
                prof.bytes_staged_global + bytes_of (Array.length dst)
        | Barrier_sync ->
            (* on device: grid-wide sync making the scratch writes of the
               previous segment visible; on the host model the sequential
               action order already provides the ordering, so the barrier
               only counts *)
            prof.barriers_run <- prof.barriers_run + 1
        | Bind_view { id; root; shape } ->
            (* under a symbolic batch the root holds either a max-sized
               buffer or a prefix-shaped parameter, so the compiled view
               shape no longer matches; bind the root raw instead - every
               read of the view is linear (reshape preserves linear
               order) and outputs are re-shaped explicitly below *)
            values.(id) <-
              (if bscale > 0 then values.(root)
               else Tensor.reshape values.(root) shape)
      done;
      (* serving-runtime fault site: the kernel just "launched" - raise
         models a failed launch, corrupt silently damages one cell of a
         value this kernel materialized.  Unarmed cost is one empty-list
         walk, preserving the zero-allocation contract. *)
      (match
         Fault_site.check_runtime Fault_site.Kernel_exec ~pass:prof.kname
       with
      | None -> ()
      | Some fseed ->
          let ids = ke.written in
          if Array.length ids > 0 then
            Fault_site.corrupt
              (Tensor.data values.(ids.(abs fseed mod Array.length ids)))
              fseed);
      if ctx.timed then begin
        let words = Gc.minor_words () -. w0 in
        prof.minor_words <- prof.minor_words + int_of_float words;
        prof.wall_ns <-
          prof.wall_ns +. float_of_int (Astitch_obs.Clock.monotonic_ns () - t0);
        prof.runs <- prof.runs + 1
      end;
      if ksid <> 0 then
        Trace.span_end ksid
          ~attrs:[ ("fused", Trace.Bool (Option.is_none prof.fallback)) ])
    ctx.kernels;
  if rsid <> 0 then
    Trace.span_end rsid ~attrs:[ ("batch", Trace.Int bscale) ];
  match scaled with
  | None ->
      Array.fold_right
        (fun id acc -> Tensor.copy values.(id) :: acc)
        ctx.output_ids []
  | Some (b, si) ->
      (* outputs are the leading prefix of each max-sized buffer, fresh
         copies under the batch-b shape (invariant outputs copy whole) *)
      Array.fold_right
        (fun id acc ->
          let full = Graph.shape g id in
          let s, nb =
            match si.cls.(id) with
            | Batch_axis.Invariant -> (full, Shape.num_elements full)
            | Batch_axis.Scaled { axis; _ } ->
                let s = Array.copy full in
                s.(axis) <- full.(axis) / si.smax * b;
                (s, si.units.(id) * b)
          in
          Tensor.create s (Array.sub (Tensor.data values.(id)) 0 nb) :: acc)
        ctx.output_ids []

(* The one-shot context, built for one run and dropped: every kernel
   unstitched, no create-context span, so traced set-up counts only
   contexts meant to be reused. *)
let run plan ~params =
  run_context (create_context_body ~fused:false ~timed:false plan) ~params

(* Execute and compare against the reference interpreter, bit for bit:
   every plan must reproduce it exactly. *)
let run_and_check plan ~params =
  let outputs = run plan ~params in
  let reference = Interp.run plan.Kernel_plan.graph ~params in
  List.iter2
    (fun got expect ->
      if not (Tensor.equal_bits got expect) then
        raise
          (Execution_error
             (Format.asprintf
                "plan output diverges from reference (max abs diff %g)"
                (Tensor.max_abs_diff got expect))))
    outputs reference;
  outputs
