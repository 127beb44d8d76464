(* Exact structural keys of remote-stitch groups (see the interface for
   what a key covers).  A key is the bytes of those facts, written with
   [Op_format]'s op writer and node ids replaced by positions in the
   group.  Building a key still walks every node and edge of the group,
   so a cheap signature goes first and only groups whose signature
   repeats in the graph get a key. *)

open Astitch_ir
open Astitch_plan
open Op_format

let edge_code : Pattern.edge_dep -> int = function
  | One_to_one -> 0 | One_to_many -> 1 | Many_to_one -> 2

(* [pos.(id)] is [id]'s position in the group being keyed, -1 outside
   it.  Positions are >= 0, so -1 marks an external reference: an
   operand's shape, dtype and whether it is a leaf, or a consumer's
   liveness, edge and element count. *)
let key g pos b (parts : Clustering.cluster list) =
  Buffer.clear b;
  w_i b (List.length parts);
  let next = ref 0 in
  List.iter
    (fun (c : Clustering.cluster) ->
      w_i b (List.length c.nodes);
      List.iter
        (fun id ->
          pos.(id) <- !next;
          incr next)
        c.nodes)
    parts;
  let operand b o =
    if pos.(o) >= 0 then w_i b pos.(o)
    else begin
      let od = Graph.node g o in
      w_i b (-1);
      w_ints b od.shape;
      w_u8 b (dtype_tag od.dtype);
      w_bool b (Kernel_plan.is_leaf g o)
    end
  in
  let node id =
    write_node b ~operand (Graph.node g id);
    w_bool b (Graph.is_output g id);
    w_bool b (Graph.is_live g id);
    w_list b
      (fun b c ->
        if pos.(c) >= 0 then w_i b pos.(c)
        else begin
          w_i b (-1);
          w_bool b (Graph.is_live g c);
          w_u8 b (edge_code (Pattern.edge_dep g ~producer:id ~consumer:c));
          w_i b (Graph.num_elements g c)
        end)
      (Graph.consumers g id)
  in
  List.iter (fun (c : Clustering.cluster) -> List.iter node c.nodes) parts;
  List.iter (fun (c : Clustering.cluster) -> List.iter (fun id -> pos.(id) <- -1) c.nodes) parts;
  Buffer.contents b

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

let representatives g groups =
  let reps = Array.init (Array.length groups) Fun.id in
  let signatures = Array.map (signature g) groups in
  let seen = Hashtbl.create (Array.length groups) in
  Array.iter
    (fun s ->
      Hashtbl.replace seen s (1 + Option.value ~default:0 (Hashtbl.find_opt seen s)))
    signatures;
  let scratch = lazy (Array.make (Graph.num_nodes g) (-1), Buffer.create 4096) in
  let firsts = Hashtbl.create 16 in
  Array.iteri
    (fun i parts ->
      if Hashtbl.find seen signatures.(i) > 1 then begin
        let pos, b = Lazy.force scratch in
        let k = key g pos b parts in
        match Hashtbl.find_opt firsts k with
        | Some r -> reps.(i) <- r
        | None -> Hashtbl.add firsts k i
      end)
    groups;
  reps
