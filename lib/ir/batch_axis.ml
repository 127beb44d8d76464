(* Symbolic batch-axis classification.

   A builder family [build : batch:int -> Graph.t] is shape-polymorphic
   when every node either keeps the same shape at every batch size
   (Invariant) or scales exactly one axis linearly with the batch
   (Scaled).  Builders are deterministic, so node ids — dense in
   construction order — line up across batch sizes and the family can be
   classified by diffing the batch-1 and batch-2 graphs node by node.

   The classification is sound for *prefix execution*: a plan compiled
   at [max_batch] can evaluate any batch b <= max by bounding each
   scaled loop at b x unit elements, reading and writing only the
   leading prefix of every max-sized buffer.  That works only when the
   batch axis is effectively outermost (no non-trivial dimensions
   before it), because then every per-element index computation —
   stride tables, reduce odometers, concat offsets — is identical for
   prefix indices regardless of the compiled extent.  [analyze] rejects
   families where any rule below fails; the serving layer refuses to
   serve those. *)

type cls = Invariant | Scaled of { axis : int; unit : int }
type plan = { max_batch : int; cls : cls array }

(* The shape a node takes at batch [b], given its batch-1 unit shape. *)
let shape_at cls (s : Shape.t) ~batch =
  match cls with
  | Invariant -> s
  | Scaled { axis; unit } ->
      let s' = Array.copy s in
      s'.(axis) <- unit * batch;
      s'

(* Ops at the same node id must agree structurally across batch sizes:
   same constructor, same operand ids, same static payload.  The one
   payload allowed to differ is a Slice's [stops] at the node's batch
   axis — slicing a scaled tensor full-length along the batch axis
   scales with it. *)
let ops_compatible ~axis (o1 : Op.t) (o2 : Op.t) =
  match (o1, o2) with
  | ( Op.Slice { input = i1; starts = st1; stops = sp1 },
      Op.Slice { input = i2; starts = st2; stops = sp2 } ) ->
      i1 = i2 && st1 = st2
      && Array.length sp1 = Array.length sp2
      && (match axis with
         | Some ax ->
             (* starts must be batch-independent everywhere; stops may
                differ only at the batch axis *)
             Array.for_all2 ( = ) st1 st2
             && Array.length sp1 > ax
             && Array.for_all2 ( = )
                  (Array.mapi (fun i v -> if i = ax then 0 else v) sp1)
                  (Array.mapi (fun i v -> if i = ax then 0 else v) sp2)
         | None -> sp1 = sp2)
  | _ -> o1 = o2

(* Classify one node from its shapes at batch 1 and 2.  Exactly one axis
   doubling -> Scaled; identical -> Invariant; anything else is not a
   linear one-axis family. *)
let classify_shapes (s1 : Shape.t) (s2 : Shape.t) =
  if Array.length s1 <> Array.length s2 then Error "rank changes with batch"
  else if Shape.equal s1 s2 then Ok Invariant
  else begin
    let diff = ref [] in
    Array.iteri
      (fun i d1 -> if d1 <> s2.(i) then diff := (i, d1, s2.(i)) :: !diff)
      s1;
    match !diff with
    | [ (axis, d1, d2) ] when d2 = 2 * d1 ->
        Ok (Scaled { axis; unit = d1 })
    | _ -> Error "shape does not scale exactly one axis linearly"
  end

let scaled_axis = function Scaled { axis; _ } -> Some axis | Invariant -> None

let analyze ~(g1 : Graph.t) ~(g2 : Graph.t) : (cls array, string) result =
  let n = Graph.num_nodes g1 in
  if Graph.num_nodes g2 <> n then Error "node count changes with batch"
  else begin
    let cls = Array.make n Invariant in
    let err = ref None in
    let fail id fmt =
      Printf.ksprintf
        (fun m ->
          if !err = None then err := Some (Printf.sprintf "node %%%d: %s" id m))
        fmt
    in
    (let exception Stop in
     try
       for id = 0 to n - 1 do
         let s1 = Graph.shape g1 id and s2 = Graph.shape g2 id in
         (match classify_shapes s1 s2 with
         | Error m ->
             fail id "%s" m;
             raise Stop
         | Ok c -> cls.(id) <- c);
         let o1 = Graph.op g1 id and o2 = Graph.op g2 id in
         if not (ops_compatible ~axis:(scaled_axis cls.(id)) o1 o2) then begin
           fail id "op payload changes with batch";
           raise Stop
         end;
         (* Prefix soundness: the batch axis must be effectively
            outermost — only extent-1 dimensions may precede it — so
            prefix linear indices decode to the same coordinates at
            every compiled extent. *)
         (match cls.(id) with
         | Invariant -> ()
         | Scaled { axis; _ } ->
             let lead = ref 1 in
             for i = 0 to axis - 1 do
               lead := !lead * s1.(i)
             done;
             if !lead <> 1 then begin
               fail id "batch axis %d is not outermost" axis;
               raise Stop
             end);
         (* Batch-collapsing ops break prefix execution: an Invariant
            node reading a Scaled operand folds the whole batch extent
            into a fixed-size result (reduce over batch, full-tensor
            reshape, ...). *)
         let operand_cls i = cls.(i) in
         let scaled_operand =
           List.exists
             (fun i -> operand_cls i <> Invariant)
             (Graph.operands g1 id)
         in
         (match cls.(id) with
         | Invariant when scaled_operand ->
             fail id "batch-collapsing op (invariant node, scaled operand)";
             raise Stop
         | _ -> ());
         (* Per-op rules where prefix execution is unsound even with a
            scaled result. *)
         (match (o1, cls.(id)) with
         | Op.Concat { axis = cat_axis; _ }, Scaled { axis; _ }
           when cat_axis = axis ->
             (* concatenating along the batch axis interleaves inputs at
                positions that depend on the compiled extent *)
             fail id "concat along the batch axis";
             raise Stop
         | Op.Gather { params; _ }, _ when operand_cls params <> Invariant ->
             fail id "gather from a scaled table";
             raise Stop
         | Op.Scatter_add _, Scaled _ ->
             fail id "scaled scatter-add";
             raise Stop
         | Op.Scatter_add { indices; updates; _ }, Invariant
           when operand_cls indices <> Invariant
                || operand_cls updates <> Invariant ->
             fail id "scatter-add over scaled operands";
             raise Stop
         | _ -> ())
       done
     with Stop -> ());
    match !err with Some m -> Error m | None -> Ok cls
  end

(* Validate the classification against a third build (normally the max
   batch): linearity inferred from {1,2} must actually hold there.
   Catches families that are only locally linear (overlapping pooling
   windows, padding on the batch axis, ...). *)
let validate_at (cls : cls array) ~(base : Graph.t) ~(at : Graph.t) ~batch :
    (unit, string) result =
  let n = Graph.num_nodes base in
  if Graph.num_nodes at <> n then Error "node count changes with batch"
  else begin
    let err = ref None in
    (let exception Stop in
     try
       for id = 0 to n - 1 do
         let want = shape_at cls.(id) (Graph.shape base id) ~batch in
         if not (Shape.equal want (Graph.shape at id)) then begin
           err :=
             Some
               (Printf.sprintf
                  "node %%%d: shape %s at batch %d, classification predicts %s"
                  id
                  (Shape.to_string (Graph.shape at id))
                  batch (Shape.to_string want));
           raise Stop
         end;
         if
           not
             (ops_compatible
                ~axis:(scaled_axis cls.(id))
                (Graph.op base id) (Graph.op at id))
         then begin
           err := Some (Printf.sprintf "node %%%d: op payload changes" id);
           raise Stop
         end
       done
     with Stop -> ());
    match !err with Some m -> Error m | None -> Ok ()
  end
