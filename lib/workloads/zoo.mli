(** Registry of the paper's five evaluation workloads (Table 2). *)

open Astitch_ir

type entry = {
  name : string;
  field : string;
  inference : unit -> Graph.t;
  training : (unit -> Graph.t) option;
  tiny : unit -> Graph.t;
  tiny_training : (unit -> Graph.t) option;
      (** The training graph at the tiny variant's size, when the model
          has a training graph. *)
  batched : batch:int -> Graph.t;
      (** Test-size inference graph at the given batch, row-independent
          per request: outputs slice back bit-identical to batch-1 runs
          of the same builder.  What the serving runtime executes. *)
  train_batch : int option;
  infer_batch : int;
}

val all : entry list
val find : string -> entry option
