(** Symbolic batch-axis classification for shape-polymorphic plans.

    Classifies every node of a deterministic builder family
    [build : batch:int -> Graph.t] as batch-[Invariant] or [Scaled]
    (one axis growing linearly with the batch), by diffing the batch-1
    and batch-2 graphs node by node — node ids are dense in
    construction order, so they line up across batch sizes.

    A successful classification licenses *prefix execution*: a plan
    compiled at the maximum batch evaluates any smaller batch b by
    bounding each scaled loop at b x unit elements over the max-sized
    buffers.  [analyze] enforces the soundness conditions (batch axis
    effectively outermost, no batch-collapsing ops, no
    extent-dependent index arithmetic); the serving layer refuses
    families that fail ([Batching.Not_batchable]). *)

type cls =
  | Invariant  (** same shape at every batch size *)
  | Scaled of { axis : int; unit : int }
      (** [axis] has extent [unit * batch]; [unit] is the batch-1 extent *)

type plan = { max_batch : int; cls : cls array }
(** What a compiled plan carries: the extent it was compiled at and the
    per-node classification (indexed by node id). *)

val shape_at : cls -> Shape.t -> batch:int -> Shape.t
(** The node's shape at [batch], given its batch-1 shape. *)

val classify_shapes : Shape.t -> Shape.t -> (cls, string) result
(** Classify one node from its batch-1 and batch-2 shapes: equal shapes
    are [Invariant], exactly one axis doubling is [Scaled]; anything
    else is an [Error]. *)

val analyze : g1:Graph.t -> g2:Graph.t -> (cls array, string) result
(** Diff the batch-1 and batch-2 builds.  [Error] carries the first
    node-level reason the family is not prefix-executable. *)

val validate_at :
  cls array -> base:Graph.t -> at:Graph.t -> batch:int -> (unit, string) result
(** Check the classification against a third build (normally the max
    batch): the linearity inferred from batches {1,2} must hold there
    too.  Catches locally-linear families (overlapping pool windows,
    batch-axis padding). *)
