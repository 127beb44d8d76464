(* Immutable computation graphs.

   Node ids are dense and assigned in construction order, so every operand
   id is smaller than its user's id: graphs are acyclic by construction and
   the id order is a valid topological order. *)

type node = { id : Op.node_id; op : Op.t; shape : Shape.t; dtype : Dtype.t }

type t = {
  nodes : node array;
  outputs : Op.node_id list;
  consumers : Op.node_id list array; (* users of each node, ascending *)
  output_set : bool array; (* is_output without the per-call list scan *)
  live : bool array; (* reachable backwards from the outputs *)
}

exception Ill_formed of string

let ill_formed fmt = Format.kasprintf (fun s -> raise (Ill_formed s)) fmt

let num_nodes g = Array.length g.nodes

let node g id =
  if id < 0 || id >= num_nodes g then ill_formed "node id %d out of range" id;
  g.nodes.(id)

let op g id = (node g id).op
let shape g id = (node g id).shape
let dtype g id = (node g id).dtype
let outputs g = g.outputs
let consumers g id = g.consumers.(id)
let operands g id = Op.operands (op g id)

let topo_order g = List.init (num_nodes g) Fun.id

let iter_nodes f g = Array.iter f g.nodes
let fold_nodes f acc g = Array.fold_left f acc g.nodes

let is_output g id = id >= 0 && id < num_nodes g && g.output_set.(id)
let is_live g id = g.live.(id)

(* A node's value escapes the graph if a consumer exists outside it or it
   is a declared output; parameters never escape (they are inputs). *)
let num_elements g id = Shape.num_elements (shape g id)

let bytes g id = num_elements g id * Dtype.size_bytes (dtype g id)

let parameters g =
  fold_nodes
    (fun acc n -> match n.op with Op.Parameter _ -> n.id :: acc | _ -> acc)
    [] g
  |> List.rev

let find_parameter g name =
  let rec scan i =
    if i >= num_nodes g then None
    else
      match g.nodes.(i).op with
      | Op.Parameter { name = n } when String.equal n name -> Some i
      | _ -> scan (i + 1)
  in
  scan 0

let memory_intensive_ids g =
  fold_nodes
    (fun acc n ->
      match Op.classify n.op with
      | Op.Memory_intensive -> n.id :: acc
      | Op.Compute_intensive -> acc)
    [] g
  |> List.rev

let compute_intensive_ids g =
  fold_nodes
    (fun acc n ->
      match Op.classify n.op with
      | Op.Compute_intensive -> n.id :: acc
      | Op.Memory_intensive -> acc)
    [] g
  |> List.rev

(* --- Construction ----------------------------------------------------- *)

let of_nodes nodes ~outputs =
  let n = Array.length nodes in
  Array.iteri
    (fun i (nd : node) ->
      if nd.id <> i then ill_formed "node at position %d has id %d" i nd.id;
      List.iter
        (fun o ->
          if o < 0 || o >= i then
            ill_formed "node %d references operand %d (not yet defined)" i o)
        (Op.operands nd.op))
    nodes;
  List.iter
    (fun o ->
      if o < 0 || o >= n then ill_formed "output id %d out of range" o)
    outputs;
  if outputs = [] then ill_formed "graph must declare at least one output";
  let consumers = Array.make n [] in
  Array.iter
    (fun (nd : node) ->
      List.iter (fun o -> consumers.(o) <- nd.id :: consumers.(o))
        (Op.operands nd.op))
    nodes;
  Array.iteri (fun i l -> consumers.(i) <- List.sort_uniq compare l) consumers;
  let output_set = Array.make n false in
  List.iter (fun o -> output_set.(o) <- true) outputs;
  (* Liveness: nodes reachable backwards from the outputs.  Compilers
     never emit code for dead nodes (XLA and TF both eliminate them), so
     every backend filters on this; computing it here, once, keeps the
     per-cluster and per-kernel passes linear in their own size.  A node
     is live if it is an output or feeds a live node, and consumers have
     larger ids, so one descending pass settles every node. *)
  let live = Array.copy output_set in
  let rec any_live = function
    | [] -> false
    | c :: cs -> live.(c) || any_live cs
  in
  for id = n - 1 downto 0 do
    if not live.(id) then live.(id) <- any_live consumers.(id)
  done;
  { nodes; outputs; consumers; output_set; live }

(* Re-check all shapes/dtypes against the inference rules. *)
let validate g =
  iter_nodes
    (fun nd ->
      let shape_of id = shape g id and dtype_of id = dtype g id in
      match nd.op with
      | Op.Parameter _ | Op.Constant _ | Op.Iota _ -> ()
      | Op.Broadcast { input; dims } ->
          Shape_infer.validate_broadcast ~input_shape:(shape g input) ~dims
            ~output_shape:nd.shape
      | Op.Reshape { input } ->
          if Shape.num_elements (shape g input) <> Shape.num_elements nd.shape
          then
            ill_formed "node %d: reshape changes element count (%s -> %s)"
              nd.id
              (Shape.to_string (shape g input))
              (Shape.to_string nd.shape)
      | op ->
          let s, dt = Shape_infer.infer ~shape_of ~dtype_of op in
          if not (Shape.equal s nd.shape) then
            ill_formed "node %d (%s): stored shape %s but inferred %s" nd.id
              (Op.mnemonic op) (Shape.to_string nd.shape) (Shape.to_string s);
          if not (Dtype.equal dt nd.dtype) then
            ill_formed "node %d (%s): stored dtype %s but inferred %s" nd.id
              (Op.mnemonic op) (Dtype.to_string nd.dtype) (Dtype.to_string dt))
    g

let pp_node g fmt id =
  let nd = node g id in
  Format.fprintf fmt "%%%d = %s%s %s" nd.id (Op.mnemonic nd.op)
    (Shape.to_string nd.shape)
    (String.concat " "
       (List.map (fun o -> Printf.sprintf "%%%d" o) (Op.operands nd.op)))

let pp fmt g =
  Format.fprintf fmt "graph {@.";
  iter_nodes (fun nd -> Format.fprintf fmt "  %a@." (pp_node g) nd.id) g;
  Format.fprintf fmt "  outputs: %s@.}"
    (String.concat ", " (List.map (Printf.sprintf "%%%d") g.outputs))

(* --- Statistics used by Figure 1 style reporting ---------------------- *)

type stats = {
  total_ops : int;
  memory_intensive_ops : int;
  compute_intensive_ops : int;
  reduce_ops : int;
  broadcast_ops : int;
  heavy_elementwise_ops : int;
}

let stats g =
  fold_nodes
    (fun acc nd ->
      let mem, comp =
        match Op.classify nd.op with
        | Op.Memory_intensive -> (1, 0)
        | Op.Compute_intensive -> (0, 1)
      in
      {
        total_ops = acc.total_ops + 1;
        memory_intensive_ops = acc.memory_intensive_ops + mem;
        compute_intensive_ops = acc.compute_intensive_ops + comp;
        reduce_ops = (acc.reduce_ops + if Op.is_reduce nd.op then 1 else 0);
        broadcast_ops =
          (acc.broadcast_ops + if Op.is_broadcast nd.op then 1 else 0);
        heavy_elementwise_ops =
          (acc.heavy_elementwise_ops
          + match (nd.op, Op.weight nd.op) with
            | (Op.Unary _ | Op.Binary _), Op.Heavy -> 1
            | _ -> 0);
      })
    {
      total_ops = 0;
      memory_intensive_ops = 0;
      compute_intensive_ops = 0;
      reduce_ops = 0;
      broadcast_ops = 0;
      heavy_elementwise_ops = 0;
    }
    g
