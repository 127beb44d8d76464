(* The whole-graph compile driver, with per-cluster graceful degradation.

   The paper's compiler is one pipeline (Sec 4): scope identification
   (clustering, remote stitching), per-scope lowering, then kernel
   scheduling.  Its production posture (Sec 6.3) is that a JIT compiler
   serving thousands of jobs must never take a training job down with
   it.  This module is that pipeline with that posture: when a stitch
   scope cannot be compiled at full strength — a kernel fails
   [Kernel_plan.check_kernel] or a pass raises — that scope alone is
   retried with progressively safer strategies while the rest of the
   graph stays fully stitched:

     Remote -> Stitched -> Regional -> Local -> Fusion -> Kernel_per_op

   Regional demotes global schemes to device memory; Local additionally
   gives up shared memory; Fusion falls back to XLA-style fusion cuts; the
   terminal kernel-per-op rung is a direct constructor that touches none
   of the instrumented passes, so the ladder always terminates even under
   persistent injected faults.  Every kernel is checked once where it is
   made and the cross-kernel rules once on the assembled plan; every step
   down is recorded as a [Degradation.event].  [Astitch.compile] is this
   driver refusing to degrade: it keeps the plan only when the report is
   empty. *)

open Astitch_ir
open Astitch_simt
open Astitch_plan
module FC = Astitch_backends.Fusion_common
module Trace = Astitch_obs.Trace
module Metrics = Astitch_obs.Metrics

(* Observability: every step down the ladder counts against
   [fallback.degradations] and, when a trace sink is installed, emits a
   "degrade" instant carrying the scope and the rung transition. *)
let note_degrade cluster from_level to_level =
  Metrics.(inc (counter default "fallback.degradations"));
  if Trace.enabled () then
    Trace.instant ~phase:"fallback" "degrade"
      ~attrs:
        [
          ("cluster", Trace.Str cluster);
          ("from", Trace.Str (Degradation.level_to_string from_level));
          ("to", Trace.Str (Degradation.level_to_string to_level));
        ]

(* --- Terminal constructors (uninstrumented) ----------------------------- *)

(* One kernel per op: naive mapping, everything materialized.  Deliberately
   avoids every fault-injection site so it cannot be blocked. *)
let per_op_kernel (arch : Arch.t) g id =
  if FC.is_layout_only g id then FC.copy_kernel g id
  else
    let mapping = FC.naive_mapping arch g id in
    {
      Kernel_plan.name = Printf.sprintf "fallback_op_%d" id;
      kind = Kernel_plan.Codegen;
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
      launch =
        Launch.make
          ~grid:(Thread_mapping.grid mapping)
          ~block:(Thread_mapping.block mapping)
          ();
      barriers = 0;
      scratch_bytes = 0;
    }

(* A whole-graph terminal: kernel-per-op for every live memory-intensive
   node.  Always compiles and always validates - it is both the ladder's
   last resort and the "no stitching" baseline. *)
let per_op_plan (arch : Arch.t) g =
  let ids = ref [] in
  for id = Graph.num_nodes g - 1 downto 0 do
    if Graph.is_live g id && Clustering.is_clusterable g id then
      ids := id :: !ids
  done;
  Lowering.assemble arch g (List.map (per_op_kernel arch g) !ids)

(* --- Scheme demotion (the Regional and Local rungs) --------------------- *)

(* Regional: give up global stitching.  Global-scratch buffers materialize
   to device memory instead, which removes the scratch arena and the
   global barriers the scratch reuse required. *)
let demote_global (k : Kernel_plan.kernel) =
  let ops =
    List.map
      (fun (o : Kernel_plan.compiled_op) ->
        if o.placement = Kernel_plan.Global_scratch then
          {
            o with
            placement = Kernel_plan.Device_mem;
            scheme = Scheme.Independent;
          }
        else if o.scheme = Scheme.Global then
          { o with scheme = Scheme.Independent }
        else o)
      k.Kernel_plan.ops
  in
  { k with Kernel_plan.ops; barriers = 0; scratch_bytes = 0 }

(* Gate-aware Regional rung: before materializing everything to device
   memory, try keeping the kernel's regional values stitched by demoting
   them to global scratch behind in-kernel barriers (the paper's
   regional->global demotion) - but only when the barrier is legal at
   the kernel's grid and the cost model scores the barriers cheaper than
   the split the materializing fallback amounts to. *)
let demote_regional (arch : Arch.t) g (k : Kernel_plan.kernel) =
  let shared =
    List.filter
      (fun (o : Kernel_plan.compiled_op) ->
        o.placement = Kernel_plan.Shared_mem)
      k.Kernel_plan.ops
  in
  let launch =
    Launch.make ~regs_per_thread:k.launch.Launch.regs_per_thread
      ~shared_mem_per_block:0 ~grid:k.launch.Launch.grid
      ~block:k.launch.Launch.block ()
  in
  let in_kernel = Hashtbl.create 16 in
  List.iter
    (fun (o : Kernel_plan.compiled_op) -> Hashtbl.replace in_kernel o.id ())
    k.ops;
  let crossing =
    List.filter
      (fun (o : Kernel_plan.compiled_op) ->
        List.exists (Hashtbl.mem in_kernel) (Graph.consumers g o.id))
      shared
  in
  let staged_bytes =
    List.fold_left
      (fun acc (o : Kernel_plan.compiled_op) -> acc + Graph.bytes g o.id)
      0 shared
  in
  let verdict =
    Global_gating.gate arch ~launch
      ~barriers:(k.barriers + List.length crossing)
      ~staged_bytes:(k.scratch_bytes + staged_bytes)
  in
  if
    shared = []
    || (not verdict.Global_gating.legal)
    || verdict.Global_gating.choice = Global_gating.Split
  then demote_global k
  else
    {
      k with
      Kernel_plan.ops =
        List.map
          (fun (o : Kernel_plan.compiled_op) ->
            if o.placement = Kernel_plan.Shared_mem then
              {
                o with
                placement = Kernel_plan.Global_scratch;
                scheme = Scheme.Global;
              }
            else o)
          k.ops;
      launch;
      barriers = k.barriers + List.length crossing;
      scratch_bytes = k.scratch_bytes + staged_bytes;
    }

(* Local: additionally give up shared memory — registers and device memory
   only, the safest stitching the codegen supports. *)
let demote_local (k : Kernel_plan.kernel) =
  let k = demote_global k in
  let ops =
    List.map
      (fun (o : Kernel_plan.compiled_op) ->
        if o.placement = Kernel_plan.Shared_mem then
          {
            o with
            placement = Kernel_plan.Device_mem;
            scheme = Scheme.Independent;
          }
        else o)
      k.Kernel_plan.ops
  in
  let launch =
    Launch.make ~regs_per_thread:k.launch.Launch.regs_per_thread
      ~shared_mem_per_block:0 ~grid:k.launch.Launch.grid
      ~block:k.launch.Launch.block ()
  in
  { k with Kernel_plan.ops; launch }

(* --- The ladder ---------------------------------------------------------- *)

let ladder_pass = function
  | Degradation.Remote -> "remote-stitching"
  | Degradation.Stitched -> "stitch-compile"
  | Degradation.Regional -> "regional-demotion"
  | Degradation.Local -> "local-demotion"
  | Degradation.Fusion -> "fusion-fallback"
  | Degradation.Kernel_per_op -> "kernel-per-op"

let compile (config : Config.t) (arch : Arch.t) g :
    (Kernel_plan.t * Degradation.report, Compile_error.t) result =
  (* [log] is the graph's event log or a group's own. *)
  let recorder log cluster from_level to_level error =
    note_degrade cluster from_level to_level;
    log := { Degradation.cluster; from_level; to_level; error } :: !log
  in
  let events = ref [] in
  let record = recorder events in
  (* Run one compile attempt: every produced kernel is checked here,
     where it is made, and bare exceptions from either become structured
     errors. *)
  let attempt ~pass (f : unit -> Kernel_plan.kernel list) =
    match
      Compile_error.protect ~pass (fun () ->
          let ks = f () in
          (ks, List.concat_map (Kernel_plan.check_kernel arch g) ks))
    with
    | Error e -> Error e
    | Ok (ks, []) -> Ok ks
    | Ok (_, violations) -> Error (Compile_error.make ~pass violations)
  in
  (* XLA-style fusion over one scope; components that still fail get
     kernel-per-op treatment, so this rung only fails on bare exceptions. *)
  let fusion_rung ~name nodes =
    let cut = Astitch_backends.Xla_backend.For_ablation.cut_edge in
    FC.components g { Clustering.id = 0; nodes } ~cut_edge:cut
    |> List.mapi (fun i ids ->
           match ids with
           | [ single ] when FC.is_layout_only g single ->
               [ FC.copy_kernel g single ]
           | _ -> (
               let k =
                 FC.build_kernel arch g ~mapping_for_root:FC.naive_mapping
                   ~cut_edge:cut
                   ~name:(Printf.sprintf "%s.f%d" name i)
                   ids
               in
               match Kernel_plan.check_kernel arch g k with
               | [] -> [ k ]
               | _ -> List.map (per_op_kernel arch g) ids))
    |> List.concat
  in
  (* Degrade one cluster through the given rungs, each attempt traced as
     a "fallback" span.  The terminal kernel-per-op constructor cannot
     fail; its kernels go to [floor], to be checked with the plan.
     [record] and [floor] are parameters so parallel group compilation
     can collect into per-group logs instead of racing on shared ones. *)
  let per_cluster_ladder ~record ~floor ~rungs ~name ~smem_budget ~group_base
      nodes =
    let compile_once () =
      Stitch_backend.compile_cluster config arch g ~name ~smem_budget
        ~group_base nodes
    in
    let rung = function
      | Degradation.Stitched ->
          fun () ->
            Stitch_backend.compile_cluster_gated config arch g ~name
              ~smem_budget ~group_base nodes
      | Degradation.Regional ->
          fun () -> [ demote_regional arch g (compile_once ()) ]
      | Degradation.Local -> fun () -> [ demote_local (compile_once ()) ]
      | Degradation.Fusion -> fun () -> fusion_rung ~name nodes
      | Degradation.Remote | Degradation.Kernel_per_op -> assert false
    in
    let rec go = function
      | [] -> floor (List.map (per_op_kernel arch g) nodes)
      | level :: rest -> (
          let pass = ladder_pass level in
          match
            attempt ~pass (fun () ->
                Trace.with_span ~phase:"fallback" pass (rung level))
          with
          | Ok ks -> ks
          | Error e ->
              let next =
                match rest with
                | l :: _ -> l
                | [] -> Degradation.Kernel_per_op
              in
              record name level next e;
              go rest)
    in
    go rungs
  in
  let group_name = Printf.sprintf "stitch_op_%d" in
  (* One remote-stitched group's kernels.  The top rung is full-strength
     group lowering; when it fails the group splits and each cluster
     degrades on its own, with the full shared-memory budget (it no longer
     shares a kernel), and the group leaves its events and kernel-per-op
     kernels in [logs.(i)] — a slot per group, so groups can compile on a
     domain pool. *)
  let group_kernels logs i (parts : Clustering.cluster list) =
    let name = group_name i in
    let remote = List.compare_length_with parts 1 > 0 in
    let top = if remote then Degradation.Remote else Degradation.Stitched in
    match
      attempt ~pass:(ladder_pass top) (fun () ->
          Stitch_backend.compile_group config arch g ~name parts)
    with
    | Ok ks -> ks
    | Error e ->
        let events = ref [] and per_op = ref [] in
        let record = recorder events in
        let floor ks =
          per_op := ks @ !per_op;
          ks
        in
        let rungs =
          (if remote then [ Degradation.Stitched ] else [])
          @ [ Degradation.Regional; Degradation.Local; Degradation.Fusion ]
        in
        record name top (List.hd rungs) e;
        let ks =
          List.concat
            (List.mapi
               (fun j (c : Clustering.cluster) ->
                 per_cluster_ladder ~record ~floor ~rungs
                   ~name:(Printf.sprintf "%s.%d" name j)
                   ~smem_budget:(Launch_config.shared_mem_budget arch)
                   ~group_base:(j * 1024) c.Clustering.nodes)
               parts)
        in
        logs.(i) <- (List.rev !events, !per_op);
        ks
  in
  (* Group [i]'s kernels as an instance of group [r]'s, whose scope key
     is the same: node ids map by position, and kernel names trade [r]'s
     group name for [i]'s (the suffixes of gated splits stay); a copy
     kernel is rebuilt for its new node.  Launch, barriers, scratch and
     mappings carry over.  The instance is checked like any attempt;
     [None] when it fails, and the caller compiles group [i] itself. *)
  let instantiate ~r ~i src dst ks =
    let rename () =
      let ids = Hashtbl.create 64 in
      List.iter2
        (fun (a : Clustering.cluster) (b : Clustering.cluster) ->
          List.iter2 (Hashtbl.replace ids) a.nodes b.nodes)
        src dst;
      let from = String.length (group_name r) in
      List.map
        (fun (k : Kernel_plan.kernel) ->
          match k.ops with
          | [ o ] when k.kind = Kernel_plan.Copy ->
              FC.copy_kernel g (Hashtbl.find ids o.id)
          | _ ->
              {
                k with
                name =
                  group_name i
                  ^ String.sub k.name from (String.length k.name - from);
                ops =
                  List.map
                    (fun (o : Kernel_plan.compiled_op) ->
                      { o with id = Hashtbl.find ids o.id })
                    k.ops;
              })
        ks
    in
    Result.to_option (attempt ~pass:"scope-memo" rename)
  in
  (* Assemble and check, then repair.  The library kernels and the
     [unchecked] kernel-per-op kernels get their [check_kernel] here
     (every other kernel passed it in its attempt), then the cross-kernel
     rules run on the plan.  A corrupted front end (e.g. clustering
     dropped a node) shows up here as cross-kernel violations.  Each
     round adds kernel-per-op producers for nodes no kernel materializes
     and replaces codegen kernels that fail in isolation; bounded so a
     truly broken plan returns a structured error instead of looping. *)
  let finish ~unchecked kernels =
    let assemble ~unchecked ks =
      Compile_error.protect ~pass:"kernel-schedule" (fun () ->
          Trace.with_span ~phase:"compile" "kernel-schedule" @@ fun () ->
          let plan = Lowering.assemble arch g ks in
          let unchecked_violations (k : Kernel_plan.kernel) =
            if k.kind = Kernel_plan.Library || List.memq k unchecked then
              Kernel_plan.check_kernel arch g k
            else []
          in
          ( plan,
            List.concat_map unchecked_violations plan.Kernel_plan.kernels
            @ Kernel_plan.check_cross_kernel plan ))
    in
    let rec repair round ~unchecked ks =
      match assemble ~unchecked ks with
      | Error e ->
          (* unschedulable kernel graph: degrade the whole graph *)
          record "graph" Degradation.Stitched Degradation.Kernel_per_op e;
          Ok (per_op_plan arch g)
      | Ok (plan, violations) -> (
          match violations with
          | [] -> Ok plan
          | violations when round >= 4 ->
              Error (Compile_error.make ~pass:"resilient-compile" violations)
          | violations ->
              (* Nodes the violations reference that no kernel
                 materializes (closure over operands).  A per-op producer
                 is NOT enough when some kernel computes the node on-chip:
                 the executor purges on-chip values at kernel exit, which
                 would clobber the materialized copy.  Such kernels are
                 replaced wholesale instead — as are kernels that fail
                 [check_kernel] in isolation. *)
              let produced = Hashtbl.create 64 in
              List.iter
                (fun (k : Kernel_plan.kernel) ->
                  List.iter
                    (fun (o : Kernel_plan.compiled_op) ->
                      if o.placement = Kernel_plan.Device_mem then
                        Hashtbl.replace produced o.id ())
                    k.Kernel_plan.ops)
                (ks @ Lowering.library_kernels arch g);
              let missing = Hashtbl.create 16 in
              let rec need id =
                if
                  Graph.is_live g id
                  && (not (Kernel_plan.is_leaf g id))
                  && (not (Hashtbl.mem produced id))
                  && not (Hashtbl.mem missing id)
                then begin
                  Hashtbl.replace missing id ();
                  List.iter need (Graph.operands g id)
                end
              in
              List.iter
                (fun (v : Compile_error.violation) ->
                  List.iter need v.Compile_error.ops)
                violations;
              let must_replace (k : Kernel_plan.kernel) =
                k.kind = Kernel_plan.Codegen
                && (Kernel_plan.check_kernel arch g k <> []
                   || List.exists
                        (fun (o : Kernel_plan.compiled_op) ->
                          o.placement <> Kernel_plan.Device_mem
                          && Hashtbl.mem missing o.id)
                        k.ops)
              in
              let fresh = ref unchecked in
              let per_op id =
                let k = per_op_kernel arch g id in
                fresh := k :: !fresh;
                k
              in
              let ks' =
                List.concat_map
                  (fun (k : Kernel_plan.kernel) ->
                    if must_replace k then begin
                      record k.name Degradation.Stitched
                        Degradation.Kernel_per_op
                        (Compile_error.make ~pass:"plan-repair" violations);
                      List.map per_op (Kernel_plan.kernel_node_ids k)
                    end
                    else [ k ])
                  ks
              in
              (* whatever is still unproduced gets a per-op producer *)
              List.iter
                (fun (k : Kernel_plan.kernel) ->
                  List.iter
                    (fun (o : Kernel_plan.compiled_op) ->
                      if o.placement = Kernel_plan.Device_mem then
                        Hashtbl.replace produced o.id ())
                    k.Kernel_plan.ops)
                ks';
              let added =
                Hashtbl.fold (fun id () acc -> id :: acc) missing []
                |> List.filter (fun id -> not (Hashtbl.mem produced id))
                |> List.sort compare
                |> List.map (fun id ->
                       record
                         (Printf.sprintf "node_%d" id)
                         Degradation.Stitched Degradation.Kernel_per_op
                         (Compile_error.make ~pass:"plan-repair"
                            [
                              Compile_error.violation ~ops:[ id ]
                                Compile_error.Invalid_structure
                                "node %%%d not materialized by any kernel"
                                id;
                            ]);
                       per_op id)
              in
              if added = [] && ks' = ks then
                Error
                  (Compile_error.make ~pass:"resilient-compile" violations)
              else repair (round + 1) ~unchecked:!fresh (ks' @ added))
    in
    repair 0 ~unchecked kernels
  in
  if not config.hierarchical_data_reuse then
    (* ATM ablation: XLA fusion scopes are already the Fusion rung; the
       only step left below them is kernel-per-op for the whole graph. *)
    let f () = Stitch_backend.compile_fusion config arch g in
    match Compile_error.protect ~pass:"fusion-fallback" f with
    | Ok plan -> Ok (plan, [])
    | Error e ->
        record "graph" Degradation.Fusion Degradation.Kernel_per_op e;
        Ok (per_op_plan arch g, List.rev !events)
  else begin
    let clusters =
      match
        Compile_error.protect ~pass:"clustering" (fun () ->
            Trace.with_span ~phase:"compile" "clustering" (fun () ->
                Clustering.clusters g))
      with
      | Ok cs -> cs
      | Error e ->
          (* clustering itself failed: every clusterable node becomes its
             own scope and degrades from there *)
          record "graph" Degradation.Stitched Degradation.Kernel_per_op e;
          let singles = ref [] in
          for id = Graph.num_nodes g - 1 downto 0 do
            if Graph.is_live g id && Clustering.is_clusterable g id then
              singles := id :: !singles
          done;
          List.mapi
            (fun i id -> { Clustering.id = i; nodes = [ id ] })
            !singles
    in
    let cluster_groups =
      match
        Compile_error.protect ~pass:"remote-stitching" (fun () ->
            Trace.with_span ~phase:"compile" "remote-stitching" (fun () ->
                if config.remote_stitching then
                  Clustering.remote_stitch_groups g clusters
                else List.map (fun c -> [ c ]) clusters))
      with
      | Ok groups -> groups
      | Error e ->
          record "graph" Degradation.Remote Degradation.Stitched e;
          List.map (fun c -> [ c ]) clusters
    in
    (* Groups degrade independently, so they compile on a domain pool;
       kernels and logs merge back in group-index order, byte-identical
       to the sequential walk at any domain count.  A group whose exact
       scope key repeats an earlier group's is an instance of that first
       occurrence when the first compiled at its top rung with an empty
       log, so only first occurrences go to the pool.  The memo lives for
       this call: keys are exact only within one graph, config and arch.
       Fault injection gates off the pool (a global registry) and the
       memo (fault fuel counts attempts). *)
    let faults = Fault_site.compile_active () in
    let domains = if faults then 1 else config.compile_domains in
    let groups = Array.of_list cluster_groups in
    let n = Array.length groups in
    let logs = Array.make n ([], []) in
    let stitch_kernels =
      Trace.with_span ~phase:"compile" "scope-memo" @@ fun () ->
      let reps =
        if faults then Array.init n Fun.id
        else Scope_key.representatives g groups
      in
      let firsts = List.filter (fun i -> reps.(i) = i) (List.init n Fun.id) in
      let kernels = Array.make n [] in
      List.iter2
        (fun i ks -> kernels.(i) <- ks)
        firsts
        (Parallel.map ~domains (fun i -> group_kernels logs i groups.(i)) firsts);
      let reused = ref 0 in
      Array.iteri
        (fun i r ->
          if r <> i then
            let instance =
              if fst logs.(r) = [] then
                instantiate ~r ~i groups.(r) groups.(i) kernels.(r)
              else None
            in
            kernels.(i) <-
              (match instance with
              | Some ks ->
                  incr reused;
                  ks
              | None -> group_kernels logs i groups.(i)))
        reps;
      Metrics.(add (counter default "compile.scopes") (n - !reused));
      Metrics.(add (counter default "compile.scopes_reused") !reused);
      List.concat (Array.to_list kernels)
    in
    Array.iter (fun (evs, _) -> events := List.rev_append evs !events) logs;
    match
      finish stitch_kernels
        ~unchecked:(Array.fold_right (fun (_, ks) acc -> ks @ acc) logs [])
    with
    | Ok plan -> Ok (plan, List.rev !events)
    | Error e -> Error e
  end
