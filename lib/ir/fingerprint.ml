(* Canonical structural fingerprints for graphs.

   The plan store (with the arch and codec version) and each [Batching]
   spec key a graph by a value that identifies "the same graph" no matter
   how its nodes happen to be numbered: a server rebuilding a model from
   the same builder calls, a parser re-reading the same file, or a
   frontend emitting the same subgraph with interleaved dead nodes must
   all find one stored plan.  We therefore canonicalize instead of hashing
   the raw node array: nodes are renumbered by a deterministic
   depth-first walk from the outputs (operands before users, outputs in
   declaration order), dead nodes disappear, and each live node is printed
   with its full operator identity - kind, every static attribute, operand
   canonical ids, shape and dtype.  Two graphs share a fingerprint exactly
   when their canonical texts collide, so store-key soundness reduces to
   the collision resistance of [Digest] over a faithful serialization,
   not to the quality of an ad-hoc structural hash. *)

let attr_ints name ints =
  Printf.sprintf " %s=[%s]" name
    (String.concat "," (List.map string_of_int (Array.to_list ints)))

(* Operator identity beyond the operand list: every static attribute that
   changes semantics must appear here (a new op with attributes MUST be
   added, otherwise two semantically different graphs could collide). *)
let op_identity : Op.t -> string = function
  | Op.Parameter { name } -> Printf.sprintf "parameter name=%S" name
  | Op.Constant { value } ->
      (* hex float: distinguishes values that print equal at %g *)
      Printf.sprintf "constant value=%h" value
  | Op.Iota { axis } -> Printf.sprintf "iota axis=%d" axis
  | Op.Unary { kind; _ } -> "unary:" ^ Op.unary_to_string kind
  | Op.Binary { kind; _ } -> "binary:" ^ Op.binary_to_string kind
  | Op.Broadcast { dims; _ } -> "broadcast" ^ attr_ints "dims" dims
  | Op.Reduce { kind; axes; _ } ->
      "reduce:" ^ Op.reduce_to_string kind ^ attr_ints "axes" axes
  | Op.Reshape _ -> "reshape"
  | Op.Transpose { perm; _ } -> "transpose" ^ attr_ints "perm" perm
  | Op.Select _ -> "select"
  | Op.Concat { axis; _ } -> Printf.sprintf "concat axis=%d" axis
  | Op.Slice { starts; stops; _ } ->
      "slice" ^ attr_ints "starts" starts ^ attr_ints "stops" stops
  | Op.Pad { low; high; _ } ->
      "pad" ^ attr_ints "low" low ^ attr_ints "high" high
  | Op.Gather _ -> "gather"
  | Op.Scatter_add { rows; _ } -> Printf.sprintf "scatter-add rows=%d" rows
  | Op.Max_pool { window; stride; _ } ->
      Printf.sprintf "max-pool window=%d stride=%d" window stride
  | Op.Dot _ -> "dot"
  | Op.Conv2d { stride; _ } -> Printf.sprintf "conv2d stride=%d" stride

let canonical_text g =
  let n = Graph.num_nodes g in
  let canonical = Array.make n (-1) in
  let next = ref 0 in
  let buf = Buffer.create 1024 in
  (* Iterative post-order DFS from the outputs: operands are numbered (and
     printed) before their users, so a node's line only references already
     assigned canonical ids.  The visit order is fully determined by the
     output list and each op's operand order - never by raw node ids. *)
  let rec visit id =
    if canonical.(id) < 0 then begin
      List.iter visit (Graph.operands g id);
      if canonical.(id) < 0 then begin
        let c = !next in
        incr next;
        canonical.(id) <- c;
        let nd = Graph.node g id in
        Buffer.add_string buf
          (Printf.sprintf "%%%d = %s (%s) : %s %s\n" c (op_identity nd.op)
             (String.concat ","
                (List.map
                   (fun o -> Printf.sprintf "%%%d" canonical.(o))
                   (Graph.operands g id)))
             (Shape.to_string nd.shape)
             (Dtype.to_string nd.dtype))
      end
    end
  in
  List.iter visit (Graph.outputs g);
  Buffer.add_string buf
    (Printf.sprintf "outputs: %s\n"
       (String.concat ","
          (List.map
             (fun o -> Printf.sprintf "%%%d" canonical.(o))
             (Graph.outputs g))));
  Buffer.contents buf

let of_graph g = Digest.to_hex (Digest.string (canonical_text g))
