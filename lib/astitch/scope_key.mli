(** Exact structural keys of remote-stitch groups within one graph, so
    that one compile lowers each distinct stitch scope once.

    Two groups share a key when every fact the per-group passes and
    [Kernel_plan.check_kernel] read is the same up to node numbering:
    - the part count, and per part its node count (nodes in ascending
      id order, so a position map between two groups preserves order);
    - per node, the op's constructor and every attribute, its shape and
      dtype, and whether it is live and a graph output;
    - per operand, its position in the group, or for an external operand
      its shape, dtype and whether it is a leaf;
    - per consumer, its position in the group, or for an external
      consumer whether it is live, its [Pattern.edge_dep] and its element
      count (escape analysis looks at live consumers outside the scope).
    A key is the bytes of those facts, each node written with
    {!Astitch_ir.Op_format.write_node}.  Groups with one key therefore
    compile, under one config and arch, to the same kernels up to node
    ids and kernel names.  Keys are compared exactly, never by hash
    alone, and mean nothing across graphs. *)

open Astitch_ir
open Astitch_plan

val representatives : Graph.t -> Clustering.cluster list array -> int array
(** [representatives g groups] maps each group index to the index of the
    first group with the same key: [i] itself for a first occurrence.
    Only groups whose cheap signature (per part its node count, first op
    and first element count; the last node's op, shape and consumer
    count) occurs at least twice in [groups] get a full key. *)
