(* Per-scope lowering for the AStitch compiler (paper Sec 4): each stitch
   scope becomes a single kernel through the three-step automatic design —
   1. dominant identification + op grouping (Dominant),
   2. adaptive thread mapping + schedule propagation (Adaptive_mapping,
      Locality.adapt_elementwise),
   3. finalization: passive block-locality checking picks regional vs
      global stitching per dominant; memory planning demotes regional
      buffers that overflow the shared-memory budget and lays out the
      global scratch arena; resource-aware launch configuration bounds
      registers so the blocks-per-wave guarantee survives.
   The whole-graph driver (clustering, remote stitching, the group pool,
   kernel schedule and plan checks) is [Fallback.compile]. *)

open Astitch_ir
open Astitch_simt
open Astitch_plan
module Trace = Astitch_obs.Trace

(* --- Per-cluster compilation -------------------------------------------- *)

type node_role = {
  mutable mapping : Thread_mapping.t;
  mutable placement : Kernel_plan.placement;
  mutable scheme : Scheme.t;
  mutable recompute : int;
}

let compile_cluster_body ?demoted_out (config : Config.t) (arch : Arch.t) g
    ~(name : string) ~(smem_budget : int) ~(group_base : int)
    (nodes : Op.node_id list) : Kernel_plan.kernel =
  let in_cluster = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace in_cluster id ()) nodes;
  let escaping = Astitch_backends.Fusion_common.escapes g in_cluster in
  (* Step 1: dominants and groups *)
  let groups =
    Trace.with_span ~phase:"compile" "dominant-grouping" (fun () ->
        Dominant.group_ops ~merging:config.dominant_merging g ~nodes ~escaping)
  in
  let occurrences = Dominant.occurrences groups in
  let is_candidate =
    let set = Hashtbl.create 16 in
    List.iter
      (fun (grp : Dominant.group) ->
        Hashtbl.replace set grp.dominant ();
        List.iter (fun s -> Hashtbl.replace set s ()) grp.sub_dominants)
      groups;
    Hashtbl.mem set
  in
  (* Step 2: thread mapping per group, with proactive adaptation of
     element-wise groups to their producer's row partition *)
  let group_of = Hashtbl.create 16 in
  let group_index = Hashtbl.create 16 in
  let group_mapping : (Op.node_id, Thread_mapping.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let dominant_mapping id =
    if config.adaptive_thread_mapping then Adaptive_mapping.for_dominant arch g id
    else Astitch_backends.Fusion_common.naive_mapping arch g id
  in
  Trace.with_span ~phase:"compile" "schedule-propagation" (fun () ->
  List.iteri
    (fun i (grp : Dominant.group) ->
      List.iter
        (fun id ->
          if not (Hashtbl.mem group_of id) then begin
            Hashtbl.replace group_of id grp;
            Hashtbl.replace group_index id (group_base + i)
          end)
        grp.members)
    groups;
  List.iter
    (fun (grp : Dominant.group) ->
      let d = grp.dominant in
      let mapping =
        if Op.is_reduce (Graph.op g d) then dominant_mapping d
        else begin
          (* proactive block-locality adaptation: adopt the partition of a
             producer group reaching this group through its members *)
          let producer_dominants =
            List.concat_map
              (fun id ->
                List.filter
                  (fun operand ->
                    Hashtbl.mem in_cluster operand
                    && is_candidate operand
                    && not (List.mem operand grp.members))
                  (Graph.operands g id))
              grp.members
          in
          let adopted =
            if config.adaptive_thread_mapping then
              List.find_map
                (fun producer ->
                  match Hashtbl.find_opt group_mapping producer with
                  | Some pm ->
                      Locality.adapt_elementwise arch ~producer:pm
                        ~elements:(Graph.num_elements g d)
                  | None -> None)
                producer_dominants
            else None
          in
          match adopted with
          | Some m -> m
          | None -> dominant_mapping d
        end
      in
      List.iter (fun id -> Hashtbl.replace group_mapping id mapping) grp.members;
      Hashtbl.replace group_mapping d mapping)
    groups);
  (* Sub-dominant reduces keep a reduce-shaped mapping of their own (their
     geometry differs from the final dominant's); everything else shares
     the group schedule through element-wise propagation. *)
  let node_mapping id =
    let grp_map =
      match Hashtbl.find_opt group_mapping id with
      | Some m -> m
      | None ->
          Adaptive_mapping.elementwise arch
            ~elements:(Graph.num_elements g id) ~rows:None
    in
    if Op.is_reduce (Graph.op g id) then dominant_mapping id
    else
      Thread_mapping.Elementwise
        {
          elements = Graph.num_elements g id;
          block = Thread_mapping.block grp_map;
          grid = Thread_mapping.grid grp_map;
          rows = Option.map fst (Thread_mapping.row_partition grp_map);
        }
  in
  (* Step 3: placement / scheme finalization *)
  let roles : (Op.node_id, node_role) Hashtbl.t = Hashtbl.create 16 in
  let in_cluster_consumers id =
    List.filter (Hashtbl.mem in_cluster) (Graph.consumers g id)
  in
  let consumers_aligned id mapping =
    match in_cluster_consumers id with
    | [] -> true
    | consumers ->
        Locality.regional_ok ~producer_mapping:mapping
          ~consumer_mappings:
            (List.map
               (fun c ->
                 match Hashtbl.find_opt group_mapping c with
                 | Some m -> m
                 | None -> node_mapping c)
               consumers)
  in
  Trace.with_span ~phase:"compile" "locality-placement" (fun () ->
  List.iter
    (fun id ->
      let mapping = node_mapping id in
      let atomic = Thread_mapping.uses_atomics mapping in
      let placement, scheme =
        if escaping id then
          let consumers = in_cluster_consumers id in
          if consumers = [] then (Kernel_plan.Device_mem, Scheme.Independent)
          else if (not atomic) && consumers_aligned id mapping then
            (Kernel_plan.Device_mem, Scheme.Regional)
          else (Kernel_plan.Device_mem, Scheme.Global)
        else if is_candidate id then
          if (not atomic) && consumers_aligned id mapping then
            (Kernel_plan.Shared_mem, Scheme.Regional)
          else (Kernel_plan.Global_scratch, Scheme.Global)
        else (Kernel_plan.Register, Scheme.Local)
      in
      Hashtbl.replace roles id { mapping; placement; scheme; recompute = 1 })
    nodes;
  (* recompute: in-group inline duplication of local (cheap) ops, summed
     across the groups sharing a node - that sum is exactly the
     cross-group duplication paid when dominant merging is off *)
  let total_recompute = Hashtbl.create 16 in
  List.iter
    (fun (grp : Dominant.group) ->
      let member_set = Hashtbl.create 16 in
      List.iter (fun id -> Hashtbl.replace member_set id ()) grp.members;
      let demand = Hashtbl.create 16 in
      let get id = Option.value ~default:0 (Hashtbl.find_opt demand id) in
      List.iter
        (fun id ->
          if not (is_candidate id) then begin
            (* per-thread value caching within a group: max, not sum *)
            let d =
              List.fold_left
                (fun acc consumer ->
                  if Hashtbl.mem member_set consumer then
                    Stdlib.max acc
                      (Stdlib.max 1 (get consumer)
                      * Pattern.fanout g ~producer:id ~consumer)
                  else acc)
                0 (Graph.consumers g id)
            in
            Hashtbl.replace demand id (Stdlib.min 1_000_000 (Stdlib.max 1 d))
          end)
        (List.rev grp.members);
      List.iter
        (fun id ->
          let d = Stdlib.max 1 (get id) in
          Hashtbl.replace total_recompute id
            (d + Option.value ~default:0 (Hashtbl.find_opt total_recompute id)))
        grp.members)
    groups;
  List.iter
    (fun id ->
      let role = Hashtbl.find roles id in
      let r =
        if is_candidate id then 1
        else
          Option.value ~default:(occurrences id)
            (Hashtbl.find_opt total_recompute id)
      in
      role.recompute <- Stdlib.min 1_000_000 (Stdlib.max 1 r))
    nodes);
  (* shared-memory budget: demote overflowing regional buffers to global *)
  let smem_per_block, scratch_bytes, barriers =
    Trace.with_span ~phase:"compile" "mem-planning" (fun () ->
  let budget = smem_budget in
  let shared_entries =
    List.filter_map
      (fun id ->
        let role = Hashtbl.find roles id in
        if role.placement = Kernel_plan.Shared_mem then
          match Locality.shared_bytes_per_block g id role.mapping with
          | Some bytes -> Some (id, bytes)
          | None -> None
        else None)
      nodes
  in
  let kept, demoted = Mem_planner.fit_shared ~budget shared_entries in
  (match demoted_out with
  | Some r -> r := List.map fst demoted
  | None -> ());
  List.iter
    (fun (id, _) ->
      let role = Hashtbl.find roles id in
      role.placement <- Kernel_plan.Global_scratch;
      role.scheme <- Scheme.Global)
    demoted;
  let smem_per_block = List.fold_left (fun acc (_, b) -> acc + b) 0 kept in
  (* global-scratch arena with liveness reuse *)
  let position = Hashtbl.create 16 in
  List.iteri (fun i id -> Hashtbl.replace position id i) nodes;
  let scratch_entries =
    List.filter_map
      (fun id ->
        let role = Hashtbl.find roles id in
        if role.placement = Kernel_plan.Global_scratch then begin
          let def = Hashtbl.find position id in
          let last_use =
            List.fold_left
              (fun acc c ->
                match Hashtbl.find_opt position c with
                | Some p -> Stdlib.max acc p
                | None -> acc)
              def (Graph.consumers g id)
          in
          Some (id, Graph.bytes g id, def, last_use)
        end
        else None)
      nodes
  in
  let allocations, scratch_bytes = Mem_planner.plan_scratch scratch_entries in
  Mem_planner.check_no_aliasing allocations;
  (* barriers: one global synchronization per producer whose value crosses
     groups through global memory *)
  let barriers =
    List.length
      (List.filter
         (fun id ->
           let role = Hashtbl.find roles id in
           (role.placement = Kernel_plan.Global_scratch
           || (role.placement = Kernel_plan.Device_mem
              && role.scheme = Scheme.Global))
           && in_cluster_consumers id <> [])
         nodes)
  in
  (smem_per_block, scratch_bytes, barriers))
  in
  (* launch configuration *)
  let launch =
    Trace.with_span ~phase:"compile" "launch-config" (fun () ->
  let block =
    List.fold_left
      (fun acc id ->
        Stdlib.max acc (Thread_mapping.block (Hashtbl.find roles id).mapping))
      1 nodes
  in
  let grid =
    List.fold_left
      (fun acc id ->
        Stdlib.max acc (Thread_mapping.grid (Hashtbl.find roles id).mapping))
      1 nodes
  in
  let lc = Launch_config.plan arch ~block ~shared_mem_per_block:smem_per_block in
  Launch.make ~regs_per_thread:lc.regs_per_thread
    ~shared_mem_per_block:smem_per_block ~grid ~block ())
  in
  Trace.with_span ~phase:"compile" "codegen" (fun () ->
  let ops =
    List.map
      (fun id ->
        let role = Hashtbl.find roles id in
        {
          Kernel_plan.id;
          scheme = role.scheme;
          placement = role.placement;
          mapping = role.mapping;
          recompute = role.recompute;
          group =
            Option.value ~default:group_base (Hashtbl.find_opt group_index id);
        })
      nodes
  in
  let kernel =
    {
      Kernel_plan.name;
      kind = Kernel_plan.Codegen;
      ops;
      launch;
      barriers;
      scratch_bytes;
    }
  in
  (* Fault injection (Corrupt): demote a materialized op to a register.
     Every cluster has at least one escaping (Device_mem) op, so either a
     consumer now lives outside the kernel (co-location invariant) or a
     graph output is never materialized — [Kernel_plan.check] rejects the
     kernel either way; the corruption is never silent. *)
  match Fault_site.check Fault_site.Codegen ~pass:"codegen" with
  | None -> kernel
  | Some seed -> (
      let device_ops =
        List.filter
          (fun (o : Kernel_plan.compiled_op) ->
            o.placement = Kernel_plan.Device_mem)
          kernel.ops
      in
      match device_ops with
      | [] -> kernel
      | _ ->
          let victim =
            (List.nth device_ops (abs seed mod List.length device_ops)).id
          in
          {
            kernel with
            ops =
              List.map
                (fun (o : Kernel_plan.compiled_op) ->
                  if o.id = victim then
                    { o with placement = Kernel_plan.Register }
                  else o)
                kernel.ops;
          }))

let compile_cluster_traced ?demoted_out (config : Config.t) (arch : Arch.t) g
    ~(name : string) ~(smem_budget : int) ~(group_base : int)
    (nodes : Op.node_id list) : Kernel_plan.kernel =
  if not (Trace.enabled ()) then
    compile_cluster_body ?demoted_out config arch g ~name ~smem_budget
      ~group_base nodes
  else
    Trace.with_span ~phase:"compile" "cluster"
      ~attrs:[ ("cluster", Trace.Str name); ("ops", Trace.Int (List.length nodes)) ]
      (fun () ->
        compile_cluster_body ?demoted_out config arch g ~name ~smem_budget
          ~group_base nodes)

let compile_cluster (config : Config.t) (arch : Arch.t) g ~(name : string)
    ~(smem_budget : int) ~(group_base : int) (nodes : Op.node_id list) :
    Kernel_plan.kernel =
  compile_cluster_traced config arch g ~name ~smem_budget ~group_base nodes

(* Gated per-cluster compilation (paper Sec 4.2 + Stripe-style cost
   gating): compile the scope once; when shared-memory pressure demoted
   regional buffers to global scratch - or the kernel's barriers are
   illegal outright (grid wider than one co-resident wave) - decide with
   [Global_gating] between keeping the demotions in one barriered kernel
   and splitting the scope at the first crossing producer.  Splitting
   recompiles both halves from the graph, so the boundary value
   re-derives as an escaping Device_mem result; each half re-enters the
   gate (a half can overflow again). *)
let rec compile_cluster_gated (config : Config.t) (arch : Arch.t) g
    ~(name : string) ~(smem_budget : int) ~(group_base : int)
    (nodes : Op.node_id list) : Kernel_plan.kernel list =
  let demoted = ref [] in
  let k =
    compile_cluster_traced ~demoted_out:demoted config arch g ~name
      ~smem_budget ~group_base nodes
  in
  if k.Kernel_plan.barriers = 0 then [ k ]
  else begin
    let staged_bytes =
      List.fold_left (fun acc id -> acc + Graph.bytes g id) 0 !demoted
    in
    let verdict =
      Global_gating.gate arch ~launch:k.launch
        ~barriers:(List.length !demoted) ~staged_bytes
    in
    let keep =
      verdict.Global_gating.legal
      && (!demoted = [] || verdict.Global_gating.choice = Global_gating.Demote)
    in
    if keep then [ k ]
    else begin
      (* cut after the first producer that forced the barriers: the first
         demoted buffer, or the first global-scheme crossing otherwise *)
      let barrier_source id =
        List.exists (fun d -> d = id) !demoted
        || List.exists
             (fun (o : Kernel_plan.compiled_op) ->
               o.id = id
               && (o.placement = Kernel_plan.Global_scratch
                  || o.scheme = Scheme.Global))
             k.ops
      in
      let rec cut_at i = function
        | [] | [ _ ] -> None (* never split off an empty second half *)
        | id :: rest ->
            if barrier_source id then Some i else cut_at (i + 1) rest
      in
      match cut_at 0 nodes with
      | None -> [ k ]
      | Some cut ->
          if Trace.enabled () then
            Trace.instant ~phase:"compile" "global-split"
              ~attrs:
                [
                  ("cluster", Trace.Str name);
                  ("cut", Trace.Int cut);
                  ("demote_us", Trace.Float verdict.Global_gating.demote_us);
                  ("split_us", Trace.Float verdict.Global_gating.split_us);
                ];
          let nodes_a = List.filteri (fun i _ -> i <= cut) nodes in
          let nodes_b = List.filteri (fun i _ -> i > cut) nodes in
          compile_cluster_gated config arch g ~name:(name ^ "a") ~smem_budget
            ~group_base nodes_a
          @ compile_cluster_gated config arch g ~name:(name ^ "b") ~smem_budget
              ~group_base nodes_b
    end
  end

(* --- Groups ------------------------------------------------------------- *)

(* Combine the per-cluster kernels of one remote-stitched group into a
   single kernel.  The parts are mutually independent, so their blocks run
   concurrently: grids add (capped at the wave bound so barriers stay
   legal), per-block shared memory adds (each part was planned against a
   budget slice), barriers run in lockstep (max). *)
let combine_parts (arch : Arch.t) ~name = function
  | [] -> None
  | [ single ] -> Some { single with Kernel_plan.name }
  | parts ->
      let ops = List.concat_map (fun (k : Kernel_plan.kernel) -> k.ops) parts in
      let block =
        List.fold_left
          (fun acc (k : Kernel_plan.kernel) ->
            Stdlib.max acc k.launch.Launch.block)
          1 parts
      in
      let grid =
        Stdlib.min
          (Adaptive_mapping.blocks_per_wave arch)
          (List.fold_left
             (fun acc (k : Kernel_plan.kernel) -> acc + k.launch.Launch.grid)
             0 parts)
      in
      let smem =
        List.fold_left
          (fun acc (k : Kernel_plan.kernel) ->
            acc + k.launch.Launch.shared_mem_per_block)
          0 parts
      in
      let barriers =
        List.fold_left
          (fun acc (k : Kernel_plan.kernel) -> Stdlib.max acc k.barriers)
          0 parts
      in
      let scratch_bytes =
        List.fold_left
          (fun acc (k : Kernel_plan.kernel) -> acc + k.scratch_bytes)
          0 parts
      in
      let lc = Launch_config.plan arch ~block ~shared_mem_per_block:smem in
      Some
        {
          Kernel_plan.name;
          kind = Kernel_plan.Codegen;
          ops;
          launch =
            Launch.make ~regs_per_thread:lc.regs_per_thread
              ~shared_mem_per_block:smem ~grid ~block ();
          barriers;
          scratch_bytes;
        }

(* Lower one remote-stitched group at full strength: a lone layout op
   is a device copy; a single cluster passes the demote-vs-split gate (a
   split is local to this scope; remote-stitched groups merge grids and
   cannot split without breaking the lockstep wave); several clusters
   compile against equal slices of the shared-memory budget, with group
   bases 1024 apart, and combine into one kernel. *)
let compile_group (config : Config.t) (arch : Arch.t) g ~name
    (parts : Clustering.cluster list) : Kernel_plan.kernel list =
  match parts with
  | [ { Clustering.nodes = [ single ]; _ } ]
    when Astitch_backends.Fusion_common.is_layout_only g single ->
      [ Astitch_backends.Fusion_common.copy_kernel g single ]
  | [ c ] -> (
      match
        compile_cluster_gated config arch g ~name:(name ^ ".0")
          ~smem_budget:(Launch_config.shared_mem_budget arch) ~group_base:0
          c.Clustering.nodes
      with
      | [ k ] -> [ { k with Kernel_plan.name } ]
      | ks -> ks)
  | _ ->
      let smem_budget =
        Launch_config.shared_mem_budget arch / List.length parts
      in
      List.mapi
        (fun j (c : Clustering.cluster) ->
          compile_cluster config arch g
            ~name:(Printf.sprintf "%s.%d" name j)
            ~smem_budget ~group_base:(j * 1024) c.Clustering.nodes)
        parts
      |> combine_parts arch ~name |> Option.to_list

(* The ATM ablation (Table 4): XLA's fusion scopes, with adaptive
   mappings for reduce roots when [adaptive_thread_mapping] is on. *)
let compile_fusion (config : Config.t) (arch : Arch.t) g : Kernel_plan.t =
  Trace.with_span ~phase:"compile" "fusion-codegen" (fun () ->
      Astitch_backends.Fusion_common.compile ~name:"atm"
        ~cut_edge:Astitch_backends.Xla_backend.For_ablation.cut_edge
        ~mapping_for_root:(fun arch g id ->
          if config.adaptive_thread_mapping && Op.is_reduce (Graph.op g id)
          then Adaptive_mapping.for_dominant arch g id
          else Astitch_backends.Fusion_common.naive_mapping arch g id)
        arch g)
