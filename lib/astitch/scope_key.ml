(* Exact structural keys of remote-stitch groups (see the interface for
   what a key covers).  A key is the integer sequence of those facts with
   node ids replaced by positions in the group; a text key in the style
   of [Fingerprint.canonical_text] cost as much to print as the repeated
   compiles it saved.  Building a key still walks every node and edge of
   the group, so a cheap signature goes first and only groups whose
   signature repeats in the graph get a key. *)

open Astitch_ir
open Astitch_plan

let unary_code : Op.unary_kind -> int = function
  | Neg -> 0 | Abs -> 1 | Sign -> 2 | Relu -> 3 | Rcp -> 4 | Exp -> 5
  | Log -> 6 | Tanh -> 7 | Sigmoid -> 8 | Sqrt -> 9 | Rsqrt -> 10 | Erf -> 11

let binary_code : Op.binary_kind -> int = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Max -> 4 | Min -> 5
  | Pow -> 6 | Lt -> 7 | Gt -> 8 | Eq -> 9

let reduce_code : Op.reduce_kind -> int = function
  | Sum -> 0 | Max_r -> 1 | Min_r -> 2 | Mean -> 3

let dtype_code : Dtype.t -> int = function
  | F32 -> 0 | F16 -> 1 | I32 -> 2 | Pred -> 3

let edge_code : Pattern.edge_dep -> int = function
  | One_to_one -> 0 | One_to_many -> 1 | Many_to_one -> 2

let op_tag : Op.t -> int = function
  | Parameter _ -> 0 | Constant _ -> 1 | Iota _ -> 2 | Unary _ -> 3
  | Binary _ -> 4 | Broadcast _ -> 5 | Reduce _ -> 6 | Reshape _ -> 7
  | Transpose _ -> 8 | Select _ -> 9 | Concat _ -> 10 | Slice _ -> 11
  | Pad _ -> 12 | Gather _ -> 13 | Scatter_add _ -> 14 | Max_pool _ -> 15
  | Dot _ -> 16 | Conv2d _ -> 17

(* A growable int sequence, reused across the groups of one graph. *)
type buf = { mutable ints : int array; mutable len : int }

let push b x =
  if b.len = Array.length b.ints then begin
    let bigger = Array.make (2 * b.len) 0 in
    Array.blit b.ints 0 bigger 0 b.len;
    b.ints <- bigger
  end;
  b.ints.(b.len) <- x;
  b.len <- b.len + 1

let push_ints b a =
  push b (Array.length a);
  for i = 0 to Array.length a - 1 do
    push b a.(i)
  done

let push_bool b x = push b (Bool.to_int x)

(* The constructor and every attribute; operands go separately.  Leaves
   never sit in a scope, but a constant's value still goes in bit for
   bit; a parameter's name is left out, as no pass reads it. *)
let push_op b op =
  push b (op_tag op);
  match op with
  | Op.Parameter _ | Reshape _ | Select _ | Gather _ | Dot _ -> ()
  | Constant { value } ->
      let bits = Int64.bits_of_float value in
      push b (Int64.to_int (Int64.shift_right_logical bits 32));
      push b (Int64.to_int (Int64.logand bits 0xFFFF_FFFFL))
  | Iota { axis } | Concat { axis; _ } -> push b axis
  | Unary { kind; _ } -> push b (unary_code kind)
  | Binary { kind; _ } -> push b (binary_code kind)
  | Broadcast { dims; _ } -> push_ints b dims
  | Reduce { kind; axes; _ } ->
      push b (reduce_code kind);
      push_ints b axes
  | Transpose { perm; _ } -> push_ints b perm
  | Slice { starts; stops; _ } ->
      push_ints b starts;
      push_ints b stops
  | Pad { low; high; _ } ->
      push_ints b low;
      push_ints b high
  | Scatter_add { rows; _ } -> push b rows
  | Max_pool { window; stride; _ } ->
      push b window;
      push b stride
  | Conv2d { stride; _ } -> push b stride

(* [pos.(id)] is [id]'s position in the group being keyed, -1 outside
   it.  Positions are >= 0 and no field that follows an external -1 is
   negative, so -1 marks an external reference and -2 ends a list. *)
let push_node g pos b id =
  let nd = Graph.node g id in
  push_op b nd.op;
  push_ints b nd.shape;
  push b (dtype_code nd.dtype);
  push_bool b (Graph.is_output g id);
  push_bool b (Graph.is_live g id);
  List.iter
    (fun o ->
      if pos.(o) >= 0 then push b pos.(o)
      else begin
        let od = Graph.node g o in
        push b (-1);
        push_ints b od.shape;
        push b (dtype_code od.dtype);
        push_bool b (Kernel_plan.is_leaf g o)
      end)
    (Op.operands nd.op);
  push b (-2);
  List.iter
    (fun c ->
      if pos.(c) >= 0 then push b pos.(c)
      else begin
        push b (-1);
        push_bool b (Graph.is_live g c);
        push b (edge_code (Pattern.edge_dep g ~producer:id ~consumer:c));
        push b (Graph.num_elements g c)
      end)
    (Graph.consumers g id);
  push b (-2)

let key g pos b (parts : Clustering.cluster list) =
  b.len <- 0;
  push b (List.length parts);
  let next = ref 0 in
  List.iter
    (fun (c : Clustering.cluster) ->
      push b (List.length c.nodes);
      List.iter
        (fun id ->
          pos.(id) <- !next;
          incr next)
        c.nodes)
    parts;
  List.iter (fun (c : Clustering.cluster) -> List.iter (push_node g pos b) c.nodes) parts;
  List.iter (fun (c : Clustering.cluster) -> List.iter (fun id -> pos.(id) <- -1) c.nodes) parts;
  Array.sub b.ints 0 b.len

(* Per part its node count, first op and first element count, then the
   last node's op, element count, shape and consumer count, mixed into
   one int.  Equal keys have equal signatures; two signatures that
   collide only cost a key. *)
let signature g (parts : Clustering.cluster list) =
  let mix h x = (h * 65599) + x in
  let node h id = mix (mix h (op_tag (Graph.op g id))) (Graph.num_elements g id) in
  let last = ref (-1) in
  let h =
    List.fold_left
      (fun h (c : Clustering.cluster) ->
        match c.nodes with
        | [] -> h
        | first :: _ ->
            List.iter (fun id -> last := id) c.nodes;
            node (mix h (List.length c.nodes)) first)
      0 parts
  in
  if !last < 0 then h
  else
    mix
      (Array.fold_left mix (node h !last) (Graph.shape g !last))
      (List.length (Graph.consumers g !last))

module Keys = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b
  let hash (a : t) = Array.fold_left (fun h x -> (h * 31) + x) 17 a land max_int
end)

let representatives g groups =
  let reps = Array.init (Array.length groups) Fun.id in
  let signatures = Array.map (signature g) groups in
  let seen = Hashtbl.create (Array.length groups) in
  Array.iter
    (fun s ->
      Hashtbl.replace seen s (1 + Option.value ~default:0 (Hashtbl.find_opt seen s)))
    signatures;
  let scratch = lazy (Array.make (Graph.num_nodes g) (-1), { ints = Array.make 256 0; len = 0 }) in
  let firsts = Keys.create 16 in
  Array.iteri
    (fun i parts ->
      if Hashtbl.find seen signatures.(i) > 1 then begin
        let pos, b = Lazy.force scratch in
        let k = key g pos b parts in
        match Keys.find_opt firsts k with
        | Some r -> reps.(i) <- r
        | None -> Keys.add firsts k i
      end)
    groups;
  reps
