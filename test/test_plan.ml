(* Planning layer: thread mappings, clustering, plan invariants. *)

open Astitch_ir
open Astitch_simt
open Astitch_plan

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Thread mappings ----------------------------------------------------- *)

let test_mapping_geometry () =
  let m =
    Thread_mapping.Row_reduce
      { rows = 750_000; row_length = 32; threads_per_row = 32;
        rows_per_block = 32; row_groups_per_block = 147; split = 1 }
  in
  Thread_mapping.validate m;
  check_int "block" 1024 (Thread_mapping.block m);
  check_int "grid" 160 (Thread_mapping.grid m);
  check "no atomics" false (Thread_mapping.uses_atomics m);
  let s =
    Thread_mapping.Row_reduce
      { rows = 64; row_length = 30_000; threads_per_row = 1024;
        rows_per_block = 1; row_groups_per_block = 1; split = 2 }
  in
  Thread_mapping.validate s;
  check_int "split grid" 128 (Thread_mapping.grid s);
  check "split atomics" true (Thread_mapping.uses_atomics s);
  check "split no contiguous outputs" true
    (Thread_mapping.contiguous_outputs_per_block s = None)

let test_mapping_validation () =
  (match
     Thread_mapping.validate
       (Thread_mapping.Row_reduce
          { rows = 4; row_length = 8; threads_per_row = 2048;
            rows_per_block = 1; row_groups_per_block = 1; split = 1 })
   with
  | () -> Alcotest.fail "oversized block must fail"
  | exception Thread_mapping.Invalid _ -> ());
  match
    Thread_mapping.validate
      (Thread_mapping.Row_reduce
         { rows = 4; row_length = 8; threads_per_row = 32; rows_per_block = 2;
           row_groups_per_block = 1; split = 2 })
  with
  | () -> Alcotest.fail "split+packing must fail"
  | exception Thread_mapping.Invalid _ -> ()

let test_mapping_alignment () =
  let red =
    Thread_mapping.Row_reduce
      { rows = 100; row_length = 64; threads_per_row = 64; rows_per_block = 16;
        row_groups_per_block = 1; split = 1 }
  in
  let grid = Thread_mapping.grid red in
  let aligned =
    Thread_mapping.Elementwise
      { elements = 6400; block = 1024; grid; rows = Some 100 }
  in
  check "aligned" true (Thread_mapping.block_aligned red aligned);
  let misaligned =
    Thread_mapping.Elementwise
      { elements = 6400; block = 1024; grid = grid + 1; rows = Some 100 }
  in
  check "grid mismatch" false (Thread_mapping.block_aligned red misaligned);
  let rowless =
    Thread_mapping.Elementwise { elements = 6400; block = 1024; grid; rows = None }
  in
  check "rowless" false (Thread_mapping.block_aligned red rowless)

(* --- Clustering ----------------------------------------------------------- *)

(* mem -> dot -> mem sandwich: clusters must not span the dot. *)
let sandwich_graph () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 4; 4 ] in
  let a = Builder.tanh b x in
  let w = Builder.parameter b "w" [ 4; 4 ] in
  let d = Builder.dot b a w in
  let y = Builder.add b d a in (* reads across the compute op *)
  let out = Builder.sigmoid b y in
  (Builder.finish b ~outputs:[ out ], a, d, y, out)

let test_cluster_depth_split () =
  let g, a, d, y, out = sandwich_graph () in
  let depths = Clustering.compute_depths g in
  check_int "a depth" 0 depths.(a);
  check_int "y depth" 1 depths.(y);
  let cs = Clustering.clusters g in
  check_int "two clusters" 2 (List.length cs);
  let find_cluster n = List.find (fun c -> List.mem n c.Clustering.nodes) cs in
  check "a alone" true (find_cluster a != find_cluster y);
  check "y with out" true (find_cluster y == find_cluster out);
  check "dot not clustered" true
    (List.for_all (fun c -> not (List.mem d c.Clustering.nodes)) cs)

let test_remote_stitch_independent () =
  (* two disconnected memory-intensive chains merge *)
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 8 ] in
  let y = Builder.parameter b "y" [ 8 ] in
  let o1 = Builder.tanh b (Builder.neg b x) in
  let o2 = Builder.sigmoid b (Builder.abs b y) in
  let g = Builder.finish b ~outputs:[ o1; o2 ] in
  let cs = Clustering.clusters g in
  check_int "two before" 2 (List.length cs);
  let merged = Clustering.remote_stitch g cs in
  check_int "one after" 1 (List.length merged)

let test_remote_stitch_dependent () =
  (* chains linked through a dot must NOT merge (would be cyclic) *)
  let g, _, _, _, _ = sandwich_graph () in
  let cs = Clustering.clusters g in
  let merged = Clustering.remote_stitch g cs in
  check_int "still two" 2 (List.length merged)

let test_remote_stitch_width_cap () =
  let b = Builder.create () in
  let outs =
    List.init 6 (fun i ->
        Builder.tanh b (Builder.parameter b (Printf.sprintf "x%d" i) [ 4 ]))
  in
  let g = Builder.finish b ~outputs:outs in
  let merged = Clustering.remote_stitch ~max_merge_width:2 g (Clustering.clusters g) in
  check_int "3 groups of 2" 3 (List.length merged)

(* Reference levelling for remote stitching: a node x cluster reachability
   closure over byte bitsets, then longest-path levels by an O(C^2) Kahn
   pass over the cluster pairs.  Slow but direct; [remote_stitch_groups]
   must group exactly like it. *)
module Oracle = struct
  let bits n = Bytes.make ((n + 7) / 8) '\000'

  let set b i =
    let c = Char.code (Bytes.get b (i / 8)) in
    Bytes.set b (i / 8) (Char.chr (c lor (1 lsl (i mod 8))))

  let mem b i = Char.code (Bytes.get b (i / 8)) land (1 lsl (i mod 8)) <> 0

  let union_into ~into src =
    for i = 0 to Bytes.length into - 1 do
      Bytes.set into i
        (Char.chr
           (Char.code (Bytes.get into i) lor Char.code (Bytes.get src i)))
    done

  let remote_stitch_groups ~max_merge_width g (cs : Clustering.cluster list) =
    let num_clusters = List.length cs in
    if num_clusters <= 1 then List.map (fun c -> [ c ]) cs
    else begin
      let n = Graph.num_nodes g in
      let cluster_of = Array.make n None in
      List.iter
        (fun (c : Clustering.cluster) ->
          List.iter (fun id -> cluster_of.(id) <- Some c.id) c.nodes)
        cs;
      (* clusters reachable strictly downstream of each node *)
      let reach = Array.init n (fun _ -> bits num_clusters) in
      for id = n - 1 downto 0 do
        List.iter
          (fun consumer ->
            union_into ~into:reach.(id) reach.(consumer);
            match cluster_of.(consumer) with
            | Some c -> set reach.(id) c
            | None -> ())
          (Graph.consumers g id)
      done;
      let creach = Array.init num_clusters (fun _ -> bits num_clusters) in
      List.iter
        (fun (c : Clustering.cluster) ->
          List.iter (fun id -> union_into ~into:creach.(c.id) reach.(id)) c.nodes)
        cs;
      let level = Array.make num_clusters 0 in
      let indegree = Array.make num_clusters 0 in
      let reaches a b = a <> b && mem creach.(a) b in
      for a = 0 to num_clusters - 1 do
        for b = 0 to num_clusters - 1 do
          if reaches a b then indegree.(b) <- indegree.(b) + 1
        done
      done;
      let queue = Queue.create () in
      Array.iteri (fun c d -> if d = 0 then Queue.add c queue) indegree;
      let processed = ref 0 in
      while not (Queue.is_empty queue) do
        let a = Queue.pop queue in
        incr processed;
        for b = 0 to num_clusters - 1 do
          if reaches a b then begin
            if level.(b) < level.(a) + 1 then level.(b) <- level.(a) + 1;
            indegree.(b) <- indegree.(b) - 1;
            if indegree.(b) = 0 then Queue.add b queue
          end
        done
      done;
      assert (!processed = num_clusters);
      let by_level = Hashtbl.create 16 in
      List.iter
        (fun (c : Clustering.cluster) ->
          let l = level.(c.id) in
          Hashtbl.replace by_level l
            (c :: Option.value ~default:[] (Hashtbl.find_opt by_level l)))
        cs;
      let levels = Hashtbl.fold (fun l _ acc -> l :: acc) by_level [] in
      List.concat_map
        (fun l ->
          let members = List.rev (Hashtbl.find by_level l) in
          let rec chunk = function
            | [] -> []
            | rest ->
                let took = List.filteri (fun i _ -> i < max_merge_width) rest in
                took :: chunk (List.filteri (fun i _ -> i >= max_merge_width) rest)
          in
          chunk members)
        (List.sort compare levels)
    end
end

(* Every live clusterable node as its own cluster: the scopes the
   resilient compiler falls back to, and many more levels than the
   same-depth components of a small random graph. *)
let singleton_clusters g =
  List.filter
    (fun id -> Graph.is_live g id && Clustering.is_clusterable g id)
    (Graph.topo_order g)
  |> List.mapi (fun i id -> { Clustering.id = i; nodes = [ id ] })

let group_ids groups =
  List.map (List.map (fun (c : Clustering.cluster) -> c.id)) groups

let same_groups_as_oracle ~max_merge_width g cs =
  group_ids (Clustering.remote_stitch_groups ~max_merge_width g cs)
  = group_ids (Oracle.remote_stitch_groups ~max_merge_width g cs)

let prop_remote_stitch_matches_oracle =
  QCheck2.Test.make ~name:"remote-stitch groups match the closure oracle"
    ~count:200
    QCheck2.Gen.(pair (int_range 100_001 110_000) (int_range 20 160))
    (fun (seed, nodes) ->
      let g = Astitch_workloads.Synthetic.random_graph ~seed ~nodes () in
      List.for_all
        (fun cs ->
          List.for_all
            (fun max_merge_width ->
              same_groups_as_oracle ~max_merge_width g cs
              || QCheck2.Test.fail_reportf
                   "seed %d, %d nodes, %d clusters, width %d: groups differ"
                   seed nodes (List.length cs) max_merge_width)
            [ 1; 2; 4 ])
        [ Clustering.clusters g; singleton_clusters g ])

let test_remote_stitch_zoo_matches_oracle () =
  List.iter
    (fun (e : Astitch_workloads.Zoo.entry) ->
      List.iter
        (fun (name, mk) ->
          let g = mk () in
          let cs = Clustering.clusters g in
          List.iter
            (fun max_merge_width ->
              check
                (Printf.sprintf "%s width %d" name max_merge_width)
                true
                (same_groups_as_oracle ~max_merge_width g cs))
            [ 1; 2; 4 ])
        ((e.name, e.inference)
        :: Option.to_list
             (Option.map (fun t -> (e.name ^ "-train", t)) e.training)))
    Astitch_workloads.Zoo.all

(* --- Plan invariants ------------------------------------------------------ *)

let tiny_plan_graph () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 4; 8 ] in
  let t = Builder.tanh b x in
  let r = Builder.reduce_sum b ~axes:[ 1 ] t in
  (Builder.finish b ~outputs:[ r ], t, r)

let mk_op ?(scheme = Scheme.Local) ?(placement = Kernel_plan.Register)
    ?(recompute = 1) id mapping =
  { Kernel_plan.id; scheme; placement; mapping; recompute; group = 0 }

let ew elements =
  Thread_mapping.Elementwise { elements; block = 256; grid = 1; rows = None }

(* Everything [check_all] reports, as (kind, ops, message), in order;
   every kernel's [check_kernel] followed by [check_cross_kernel], the
   split the compile driver runs, must report the same list. *)
let check_violations msg expected (plan : Kernel_plan.t) =
  let check msg violations =
    Alcotest.(check (list (triple string (list int) string)))
      msg expected
      (List.map
         (fun (v : Compile_error.violation) ->
           (Compile_error.kind_to_string v.kind, v.ops, v.message))
         violations)
  in
  check msg (Kernel_plan.check_all plan);
  check (msg ^ ", split")
    (List.concat_map
       (Kernel_plan.check_kernel plan.arch plan.graph)
       plan.kernels
    @ Kernel_plan.check_cross_kernel plan)

let test_check_catches_unavailable () =
  let g, t, r = tiny_plan_graph () in
  let k =
    {
      Kernel_plan.name = "k";
      kind = Kernel_plan.Codegen;
      ops = [ mk_op ~placement:Kernel_plan.Device_mem r (ew 4) ];
      launch = Launch.make ~grid:1 ~block:256 ();
      barriers = 0;
      scratch_bytes = 0;
    }
  in
  let plan =
    { Kernel_plan.arch = Arch.v100; graph = g; kernels = [ k ];
      memcpys = 0; memsets = 0; memcpy_bytes = 0; batch = None }
  in
  (match Kernel_plan.check plan with
  | () -> Alcotest.fail "reading tanh before computing it must fail"
  | exception Compile_error.Error _ -> ());
  check_violations "read before compute"
    [ ("invalid-structure", [ t ],
       Printf.sprintf "kernel k: op %%%d reads %%%d which is not available" r t) ]
    plan;
  (* fixed plan passes *)
  let k_ok = { k with ops = [ mk_op t (ew 32); mk_op ~placement:Kernel_plan.Device_mem r (ew 4) ] } in
  Kernel_plan.check { plan with kernels = [ k_ok ] }

let test_check_catches_register_escape () =
  let g, t, r = tiny_plan_graph () in
  let k1 =
    {
      Kernel_plan.name = "k1";
      kind = Kernel_plan.Codegen;
      ops = [ mk_op ~placement:Kernel_plan.Register t (ew 32) ];
      launch = Launch.make ~grid:1 ~block:256 ();
      barriers = 0;
      scratch_bytes = 0;
    }
  in
  let k2 = { k1 with name = "k2"; ops = [ mk_op ~placement:Kernel_plan.Device_mem r (ew 4) ] } in
  let plan =
    { Kernel_plan.arch = Arch.v100; graph = g; kernels = [ k1; k2 ];
      memcpys = 0; memsets = 0; memcpy_bytes = 0; batch = None }
  in
  match Kernel_plan.check plan with
  | () -> Alcotest.fail "register value escaping its kernel must fail"
  | exception Compile_error.Error _ -> ()

let test_check_catches_double_materialize () =
  let g, t, r = tiny_plan_graph () in
  let mk name ops =
    { Kernel_plan.name; kind = Kernel_plan.Codegen; ops;
      launch = Launch.make ~grid:1 ~block:256 (); barriers = 0; scratch_bytes = 0 }
  in
  let dev id n = mk_op ~placement:Kernel_plan.Device_mem id (ew n) in
  let plan =
    { Kernel_plan.arch = Arch.v100; graph = g;
      kernels = [ mk "a" [ dev t 32 ]; mk "b" [ dev t 32 ]; mk "c" [ dev r 4 ] ];
      memcpys = 0; memsets = 0; memcpy_bytes = 0; batch = None }
  in
  (match Kernel_plan.check plan with
  | () -> Alcotest.fail "double materialization must fail"
  | exception Compile_error.Error _ -> ());
  check_violations "double materialization"
    [ ("invalid-structure", [ t ],
       Printf.sprintf "node %%%d materialized by two kernels" t) ]
    plan

let plan_of g kernels =
  { Kernel_plan.arch = Arch.v100; graph = g; kernels;
    memcpys = 0; memsets = 0; memcpy_bytes = 0; batch = None }

let kernel name ops =
  { Kernel_plan.name; kind = Kernel_plan.Codegen; ops;
    launch = Launch.make ~grid:1 ~block:256 (); barriers = 0; scratch_bytes = 0 }

let test_check_purged_copy_unavailable () =
  (* kernel "a" materializes tanh; "b" recomputes it into scratch, which
     dies with "b" and takes the only value slot of the node with it, so
     "c" reading tanh afterwards finds nothing *)
  let g, t, r = tiny_plan_graph () in
  let dev id n = mk_op ~placement:Kernel_plan.Device_mem id (ew n) in
  let a = kernel "a" [ dev t 32 ] and c = kernel "c" [ dev r 4 ] in
  let b =
    kernel "b"
      [ mk_op ~placement:Kernel_plan.Global_scratch ~scheme:Scheme.Global t (ew 32) ]
  in
  check_violations "without the recompute" [] (plan_of g [ a; c ]);
  check_violations "purged by the recompute"
    [ ("invalid-structure", [ t ],
       Printf.sprintf "kernel c: op %%%d reads %%%d which is not available" r t) ]
    (plan_of g [ a; b; c ])

let test_check_output_never_materialized () =
  let g, t, r = tiny_plan_graph () in
  check_violations "output left in registers"
    [ ("invalid-structure", [ r ],
       Printf.sprintf "graph output %%%d never materialized to device memory" r) ]
    (plan_of g [ kernel "k" [ mk_op t (ew 32); mk_op r (ew 4) ] ])

let test_check_barrier_required () =
  let g, t, r = tiny_plan_graph () in
  let k =
    {
      Kernel_plan.name = "k";
      kind = Kernel_plan.Codegen;
      ops =
        [
          mk_op ~placement:Kernel_plan.Global_scratch ~scheme:Scheme.Global t (ew 32);
          mk_op ~placement:Kernel_plan.Device_mem r (ew 4);
        ];
      launch = Launch.make ~grid:1 ~block:256 ();
      barriers = 0;
      scratch_bytes = 0;
    }
  in
  let plan =
    { Kernel_plan.arch = Arch.v100; graph = g; kernels = [ k ];
      memcpys = 0; memsets = 0; memcpy_bytes = 0; batch = None }
  in
  (match Kernel_plan.check plan with
  | () -> Alcotest.fail "global scratch without barrier must fail"
  | exception Compile_error.Error _ -> ());
  Kernel_plan.check { plan with kernels = [ { k with barriers = 1 } ] }

let test_toposort_kernels () =
  let g, t, r = tiny_plan_graph () in
  let mk name ops =
    { Kernel_plan.name; kind = Kernel_plan.Codegen; ops;
      launch = Launch.make ~grid:1 ~block:256 (); barriers = 0; scratch_bytes = 0 }
  in
  let dev id n = mk_op ~placement:Kernel_plan.Device_mem id (ew n) in
  let k_consumer = mk "consumer" [ dev r 4 ] in
  let k_producer = mk "producer" [ dev t 32 ] in
  (* given in the wrong order, toposort must fix it *)
  let sorted = Kernel_plan.toposort_kernels g [ k_consumer; k_producer ] in
  Alcotest.(check (list string)) "order" [ "producer"; "consumer" ]
    (List.map (fun (k : Kernel_plan.kernel) -> k.name) sorted)

(* --- kernel_work traffic -------------------------------------------------- *)

let test_kernel_work () =
  let g, t, r = tiny_plan_graph () in
  let k =
    {
      Kernel_plan.name = "k";
      kind = Kernel_plan.Codegen;
      ops =
        [
          mk_op t (ew 32);
          mk_op ~placement:Kernel_plan.Device_mem r (ew 4);
        ];
      launch = Launch.make ~grid:1 ~block:256 ();
      barriers = 0;
      scratch_bytes = 0;
    }
  in
  let plan =
    { Kernel_plan.arch = Arch.v100; graph = g; kernels = [ k ];
      memcpys = 0; memsets = 0; memcpy_bytes = 0; batch = None }
  in
  let w = Kernel_plan.kernel_work plan k in
  (* reads the 4x8 f32 parameter, writes the 4-element reduce result *)
  check_int "reads" (32 * 4) w.Astitch_simt.Cost_model.dram_read_bytes;
  check_int "writes" (4 * 4) w.Astitch_simt.Cost_model.dram_write_bytes;
  (* tanh: 28 insts x 32 elements; reduce: 32 accumulations *)
  check_int "insts" ((28 * 32) + 32) w.Astitch_simt.Cost_model.fp32_insts

(* --- Lowering helpers --------------------------------------------------------- *)

let test_lowering_helpers () =
  check_int "pow2 1" 1 (Lowering.next_pow2 0);
  check_int "pow2 5" 8 (Lowering.next_pow2 5);
  check_int "pow2 exact" 64 (Lowering.next_pow2 64);
  check_int "round 7->32" 32 (Lowering.round_up_to 32 7);
  check_int "round exact" 64 (Lowering.round_up_to 32 64);
  check_int "ceil" 4 (Lowering.ceil_div 7 2);
  (* threads_for_row: warp-rounded, capped at the block limit *)
  let tfr = Lowering.threads_for_row ~warp_size:32 ~max_block:1024 in
  check_int "tiny row" 32 (tfr 5);
  check_int "row 37" 64 (tfr 37);
  check_int "row 1024" 1024 (tfr 1024);
  check_int "huge row capped" 1024 (tfr 30_000)

let test_library_kernel_shape () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 64; 64 ] in
  let w = Builder.parameter b "w" [ 64; 64 ] in
  let d = Builder.dot b x w in
  let g = Builder.finish b ~outputs:[ d ] in
  let k = Lowering.library_kernel Arch.v100 g d in
  check "library kind" true (k.kind = Kernel_plan.Library);
  check_int "one op" 1 (List.length k.ops);
  check "grid bounded" true (k.launch.Launch.grid <= Arch.v100.num_sms * 8)

let test_memcpy_conventions () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 4 ] in
  let y = Builder.tanh b x in
  let z = Builder.sigmoid b x in
  let g = Builder.finish b ~outputs:[ y; z ] in
  check_int "one DtoH per output" 2 (Lowering.output_memcpys g);
  check_int "output bytes" 32 (Lowering.output_bytes g)

(* --- Thread-mapping remaining branches ------------------------------------------ *)

let test_mapping_column_and_elementwise () =
  let col = Thread_mapping.Column_reduce { rows = 8; row_length = 64; block = 256; grid = 2 } in
  Thread_mapping.validate col;
  check "col atomics" true (Thread_mapping.uses_atomics col);
  check "col no contiguous" true (Thread_mapping.contiguous_outputs_per_block col = None);
  check "col no partition" true (Thread_mapping.row_partition col = None);
  let ew = Thread_mapping.Elementwise { elements = 100; block = 256; grid = 4; rows = None } in
  check_int "ew per block" 25 (Option.get (Thread_mapping.contiguous_outputs_per_block ew));
  check "strings" true
    (String.length (Thread_mapping.to_string col) > 0
    && String.length (Thread_mapping.to_string ew) > 0)

let test_remote_stitch_levels () =
  (* a 3-deep chain of clusters through compute ops keeps 3 levels *)
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 4; 4 ] in
  let w = Builder.parameter b "w" [ 4; 4 ] in
  let a1 = Builder.tanh b x in
  let d1 = Builder.dot b a1 w in
  let a2 = Builder.sigmoid b d1 in
  let d2 = Builder.dot b a2 w in
  let a3 = Builder.relu b d2 in
  let g = Builder.finish b ~outputs:[ a3 ] in
  let groups = Clustering.remote_stitch_groups g (Clustering.clusters g) in
  check_int "three sequential groups" 3 (List.length groups);
  check "all singleton" true (List.for_all (fun grp -> List.length grp = 1) groups)

let () =
  Alcotest.run "plan"
    [
      ( "mapping",
        [
          Alcotest.test_case "geometry" `Quick test_mapping_geometry;
          Alcotest.test_case "validation" `Quick test_mapping_validation;
          Alcotest.test_case "alignment" `Quick test_mapping_alignment;
        ] );
      ( "clustering",
        [
          Alcotest.test_case "depth split" `Quick test_cluster_depth_split;
          Alcotest.test_case "remote merge" `Quick test_remote_stitch_independent;
          Alcotest.test_case "no cyclic merge" `Quick test_remote_stitch_dependent;
          Alcotest.test_case "width cap" `Quick test_remote_stitch_width_cap;
          Alcotest.test_case "zoo levels match oracle" `Quick
            test_remote_stitch_zoo_matches_oracle;
          QCheck_alcotest.to_alcotest ~long:false prop_remote_stitch_matches_oracle;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "availability" `Quick test_check_catches_unavailable;
          Alcotest.test_case "register escape" `Quick test_check_catches_register_escape;
          Alcotest.test_case "double materialize" `Quick test_check_catches_double_materialize;
          Alcotest.test_case "purged copy unavailable" `Quick test_check_purged_copy_unavailable;
          Alcotest.test_case "output never materialized" `Quick test_check_output_never_materialized;
          Alcotest.test_case "barrier required" `Quick test_check_barrier_required;
          Alcotest.test_case "toposort" `Quick test_toposort_kernels;
          Alcotest.test_case "kernel work" `Quick test_kernel_work;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "helpers" `Quick test_lowering_helpers;
          Alcotest.test_case "library kernel" `Quick test_library_kernel_shape;
          Alcotest.test_case "memcpy conventions" `Quick test_memcpy_conventions;
          Alcotest.test_case "column+elementwise" `Quick test_mapping_column_and_elementwise;
          Alcotest.test_case "remote levels" `Quick test_remote_stitch_levels;
        ] );
    ]
