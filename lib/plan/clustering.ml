(* Stitching-scope identification (paper Sec 4.1).

   Memory-intensive subgraphs are the connected components of the graph
   restricted to memory-intensive non-leaf nodes *at the same compute
   depth*, where the compute depth of a node counts the compute-intensive
   ops on its longest path from the inputs.  Splitting by depth guarantees
   cycle-freedom: any path re-entering a cluster from outside must pass a
   compute-intensive op and therefore land at a strictly larger depth.

   Remote stitching then merges mutually-unreachable clusters so several
   disconnected subgraphs share one kernel launch. *)

open Astitch_ir

type cluster = {
  id : int;
  nodes : Op.node_id list; (* ascending = topological *)
}

let is_clusterable g id =
  (not (Kernel_plan.is_leaf g id))
  && Op.classify (Graph.op g id) = Op.Memory_intensive

(* Longest-path count of compute-intensive ops from the graph inputs. *)
let compute_depths g =
  let n = Graph.num_nodes g in
  let depth = Array.make n 0 in
  for id = 0 to n - 1 do
    let d =
      List.fold_left
        (fun acc operand ->
          let bump =
            match Op.classify (Graph.op g operand) with
            | Op.Compute_intensive -> 1
            | Op.Memory_intensive -> 0
          in
          Stdlib.max acc (depth.(operand) + bump))
        0 (Graph.operands g id)
    in
    depth.(id) <- d
  done;
  depth

(* Union-find over node ids. *)
let find parent i =
  let rec root i = if parent.(i) = i then i else root parent.(i) in
  let r = root i in
  (* path compression *)
  let rec compress i =
    if parent.(i) <> r then begin
      let next = parent.(i) in
      parent.(i) <- r;
      compress next
    end
  in
  compress i;
  r

let union parent a b =
  let ra = find parent a and rb = find parent b in
  if ra <> rb then parent.(Stdlib.max ra rb) <- Stdlib.min ra rb

(* Fault injection (Corrupt): drop the last node of a multi-node cluster
   (seed picks which).  The dropped node is live, so no kernel produces it
   and the plan fails the availability / output invariants — detectable by
   [Kernel_plan.check], never silently wrong. *)
let corrupt_clusters seed cs =
  match List.filter (fun c -> List.length c.nodes > 1) cs with
  | [] -> cs
  | multi ->
      let victim = (List.nth multi (abs seed mod List.length multi)).id in
      List.map
        (fun c ->
          if c.id = victim then
            let keep = List.length c.nodes - 1 in
            { c with nodes = List.filteri (fun i _ -> i < keep) c.nodes }
          else c)
        cs

let clusters g =
  let n = Graph.num_nodes g in
  let depth = compute_depths g in
  let is_clusterable g id = Graph.is_live g id && is_clusterable g id in
  let parent = Array.init n Fun.id in
  for id = 0 to n - 1 do
    if is_clusterable g id then
      List.iter
        (fun operand ->
          if is_clusterable g operand && depth.(operand) = depth.(id) then
            union parent operand id)
        (Graph.operands g id)
  done;
  let members = Hashtbl.create 64 in
  for id = n - 1 downto 0 do
    if is_clusterable g id then begin
      let r = find parent id in
      let existing = Option.value ~default:[] (Hashtbl.find_opt members r) in
      Hashtbl.replace members r (id :: existing)
    end
  done;
  let roots = Hashtbl.fold (fun r _ acc -> r :: acc) members [] in
  let cs =
    List.sort compare roots
    |> List.mapi (fun i r -> { id = i; nodes = Hashtbl.find members r })
  in
  match Fault_site.check Fault_site.Clustering ~pass:"clustering" with
  | None -> cs
  | Some seed -> corrupt_clusters seed cs

(* --- Remote stitching --------------------------------------------------- *)

(* Merge mutually-unreachable clusters, bounded by [max_merge_width]
   members per stitch op.

   Safety argument: clusters are levelled by longest path in the
   cluster-reachability DAG.  Two clusters at the same level cannot reach
   each other (reachability strictly increases the level), so merging
   within a level never builds a cyclic kernel; and because every
   cross-group dependency goes from a strictly lower level to a higher
   one, the *grouped* kernel graph stays acyclic as well — pairwise
   checks alone do not give that second property.

   Levels are read off the contracted graph, where each cluster collapses
   to one vertex and every other node stays its own.  It is acyclic by
   the compute-depth argument above: a path leaving a cluster and
   re-entering it would cross a compute-intensive op and land at a
   strictly larger depth.  A chain of clusters, each reaching the next,
   is a path through their vertices there, and the cluster vertices on a
   path form such a chain; so a cluster's level is the number of cluster
   vertices on the longest path into its own, minus one.  One Kahn pass
   finds it in O(N + E). *)
let remote_stitch_groups ?(max_merge_width = 4) g (cs : cluster list) =
  let num_clusters = List.length cs in
  if num_clusters <= 1 then List.map (fun c -> [ c ]) cs
  else begin
    let n = Graph.num_nodes g in
    (* vertex of each node: its cluster's id, or [num_clusters + id] *)
    let vertex = Array.init n (fun id -> num_clusters + id) in
    let cluster_nodes = Array.make num_clusters [] in
    List.iter
      (fun c ->
        cluster_nodes.(c.id) <- c.nodes;
        List.iter (fun id -> vertex.(id) <- c.id) c.nodes)
      cs;
    let num_vertices = num_clusters + n in
    let indegree = Array.make num_vertices 0 in
    let rec count_in v = function
      | [] -> ()
      | c :: rest ->
          let w = vertex.(c) in
          if w <> v then indegree.(w) <- indegree.(w) + 1;
          count_in v rest
    in
    for id = 0 to n - 1 do
      count_in vertex.(id) (Graph.consumers g id)
    done;
    (* Kahn over an array queue; [chain.(v)] counts the cluster vertices on
       the longest path into v, v included once it is popped *)
    let chain = Array.make num_vertices 0 in
    let queue = Array.make num_vertices 0 in
    let tail = ref 0 in
    let push v =
      queue.(!tail) <- v;
      incr tail
    in
    for v = 0 to num_vertices - 1 do
      if indegree.(v) = 0 then push v
    done;
    let rec relax v = function
      | [] -> ()
      | c :: rest ->
          let w = vertex.(c) in
          if w <> v then begin
            if chain.(w) < chain.(v) then chain.(w) <- chain.(v);
            indegree.(w) <- indegree.(w) - 1;
            if indegree.(w) = 0 then push w
          end;
          relax v rest
    in
    let head = ref 0 in
    while !head < !tail do
      let v = queue.(!head) in
      incr head;
      if v < num_clusters then begin
        chain.(v) <- chain.(v) + 1;
        List.iter (fun id -> relax v (Graph.consumers g id)) cluster_nodes.(v)
      end
      else if vertex.(v - num_clusters) = v then
        relax v (Graph.consumers g (v - num_clusters))
      (* otherwise the node sits in a cluster and this vertex is unused *)
    done;
    assert (!head = num_vertices);
    let level = Array.init num_clusters (fun c -> chain.(c) - 1) in
    (* group clusters by level, chunking at the width cap *)
    let by_level = Hashtbl.create 16 in
    List.iter
      (fun c ->
        let l = level.(c.id) in
        Hashtbl.replace by_level l
          (c :: Option.value ~default:[] (Hashtbl.find_opt by_level l)))
      cs;
    let levels = Hashtbl.fold (fun l _ acc -> l :: acc) by_level [] in
    let groups =
      List.concat_map
        (fun l ->
          let members = List.rev (Hashtbl.find by_level l) in
          let rec chunk = function
            | [] -> []
            | rest ->
                let took = List.filteri (fun i _ -> i < max_merge_width) rest in
                let remaining =
                  List.filteri (fun i _ -> i >= max_merge_width) rest
                in
                took :: chunk remaining
          in
          chunk members)
        (List.sort compare levels)
    in
    groups
  end

let remote_stitch ?max_merge_width g cs =
  remote_stitch_groups ?max_merge_width g cs
  |> List.mapi (fun i group ->
         let nodes =
           List.concat_map (fun c -> c.nodes) group |> List.sort_uniq compare
         in
         { id = i; nodes })
