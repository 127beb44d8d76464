(** Stitching-scope identification (paper Sec 4.1): memory-intensive
    subgraph clustering plus remote stitching of mutually-independent
    clusters. *)

open Astitch_ir

type cluster = { id : int; nodes : Op.node_id list (** ascending ids *) }

val is_clusterable : Graph.t -> Op.node_id -> bool
(** Memory-intensive and not a leaf (parameter/constant/iota). *)

val compute_depths : Graph.t -> int array
(** Per node: compute-intensive ops on the longest path from the inputs.
    Clusters never span depths, which guarantees cycle-freedom. *)

val clusters : Graph.t -> cluster list
(** Maximal same-depth connected components of memory-intensive nodes. *)

val remote_stitch_groups :
  ?max_merge_width:int -> Graph.t -> cluster list -> cluster list list
(** Group mutually-unreachable clusters (up to [max_merge_width] per
    stitch op, default 4).  Clusters are levelled by longest path in the
    reachability DAG and grouped within a level, so neither the merged
    kernels nor the grouped kernel graph can become cyclic.  Levels come
    from one pass over the graph with each cluster contracted to a
    vertex: O(nodes + edges). *)

val remote_stitch :
  ?max_merge_width:int -> Graph.t -> cluster list -> cluster list
(** {!remote_stitch_groups} with each group flattened to one cluster. *)
