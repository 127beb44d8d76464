(* Canonical structural fingerprints for graphs.

   The plan store (with the arch and codec version) keys a graph by a
   value that identifies "the same graph" no matter how its nodes happen
   to be numbered: a server rebuilding a model from the same builder
   calls, a parser re-reading the same file, or a frontend emitting the
   same subgraph with interleaved dead nodes must all find one stored
   plan.  We therefore canonicalize instead of hashing the raw node
   array: nodes are renumbered by a deterministic depth-first walk from
   the outputs (operands before users, outputs in declaration order),
   dead nodes disappear, and the renumbered graph is written in the plan
   codec's own graph format ([Op_format]), which carries every operator
   kind, static attribute, operand, shape and dtype.  Two graphs share a
   fingerprint exactly when those bytes collide, so store-key soundness
   reduces to the collision resistance of [Digest] over the format the
   plan itself is stored in. *)

let of_graph g =
  let n = Graph.num_nodes g in
  let canonical = Array.make n (-1) in
  let next = ref 0 in
  let b = Buffer.create (64 * n) in
  let live = ref 0 in
  for id = 0 to n - 1 do
    if Graph.is_live g id then incr live
  done;
  (* The walk reaches exactly the live nodes, so this is the node count
     of [Op_format.write_graph] on the renumbered graph. *)
  Op_format.w_i b !live;
  let operand b o = Op_format.w_i b canonical.(o) in
  (* Post-order DFS from the outputs: operands are numbered (and
     written) before their users, so a node only references assigned
     canonical ids.  The visit order is fully determined by the output
     list and each op's operand order - never by raw node ids. *)
  let rec visit id =
    if canonical.(id) < 0 then begin
      List.iter visit (Graph.operands g id);
      if canonical.(id) < 0 then begin
        canonical.(id) <- !next;
        incr next;
        Op_format.write_node b ~operand (Graph.node g id)
      end
    end
  in
  List.iter visit (Graph.outputs g);
  Op_format.w_list b operand (Graph.outputs g);
  Digest.to_hex (Digest.string (Buffer.contents b))
