(* Dynamic-batching analysis, packing and unpacking.

   The batcher may merge requests only when the merged execution is
   BIT-IDENTICAL to running each request alone - the whole contract of
   the serving runtime.  That property is per-builder: a builder family
   [build : batch -> graph] qualifies when one compiled plan at
   [max_batch] can serve every batch size, which is what
   [Batch_axis.analyze] decides node by node (cross-checked at
   [max_batch] by [validate_at]); anything it rejects is
   [Not_batchable].  The parameter and output split falls out of the
   node classes: a [Scaled] parameter is per-request, an [Invariant] one
   a shared weight, and each output takes its own class.  The numeric
   half of the contract - no op mixes rows across requests - cannot be
   decided from shapes alone; it is enforced by the bit-identity test
   suite over every served builder (zoo workloads and random graphs),
   and double-checked at runtime by the [verify] sampling hook in the
   worker pool.

   Packing concatenates each per-request parameter along its batch axis
   in request order, so a batch of n requests executes at exactly n
   rows.  Unpacking slices each output back along its batch axis. *)

open Astitch_ir
open Astitch_tensor
module Fault_site = Astitch_plan.Fault_site

exception Not_batchable of string

let not_batchable fmt = Printf.ksprintf (fun m -> raise (Not_batchable m)) fmt

type axis_info = { axis : int; extent : int }

type spec = {
  build : int -> Graph.t;
  base : Graph.t;
  batch : Batch_axis.plan;
  request_params : (string * axis_info) list;
  shared_params : (string * Shape.t) list;
  outputs : axis_info option list;
}

let analyze build ~max_batch =
  let base = build 1 in
  let cls =
    let ( let* ) = Result.bind in
    match
      let* cls = Batch_axis.analyze ~g1:base ~g2:(build 2) in
      let* () =
        Batch_axis.validate_at cls ~base ~at:(build max_batch)
          ~batch:max_batch
      in
      Ok cls
    with
    | Ok cls -> cls
    | Error m -> raise (Not_batchable m)
  in
  let axis_info id =
    match cls.(id) with
    | Batch_axis.Scaled { axis; unit } -> Some { axis; extent = unit }
    | Batch_axis.Invariant -> None
  in
  let request_params, shared_params =
    List.partition_map
      (fun id ->
        let name =
          match Graph.op base id with
          | Op.Parameter { name } -> name
          | _ -> assert false
        in
        match axis_info id with
        | Some info -> Left (name, info)
        | None -> Right (name, Graph.shape base id))
      (Graph.parameters base)
  in
  if request_params = [] then
    not_batchable "no per-request parameters: nothing to batch";
  {
    build;
    base;
    batch = { Batch_axis.max_batch; cls };
    request_params;
    shared_params;
    outputs = List.map axis_info (Graph.outputs base);
  }

(* --- Tensor surgery along an axis ---------------------------------------- *)

(* Row-major concat of same-shape-elsewhere tensors along [axis]. *)
let concat_axis ~axis ts =
  match ts with
  | [] -> invalid_arg "Batching.concat_axis: empty"
  | first :: _ ->
      let shape = Shape.to_list (Tensor.shape first) in
      let outer =
        List.filteri (fun i _ -> i < axis) shape |> List.fold_left ( * ) 1
      in
      let inner =
        List.filteri (fun i _ -> i > axis) shape |> List.fold_left ( * ) 1
      in
      let seg t = Shape.dim (Tensor.shape t) axis * inner in
      let total_axis =
        List.fold_left (fun a t -> a + Shape.dim (Tensor.shape t) axis) 0 ts
      in
      let out_shape =
        List.mapi (fun i d -> if i = axis then total_axis else d) shape
      in
      let dst = Array.make (outer * total_axis * inner) 0. in
      let row_bytes = total_axis * inner in
      let pos = ref 0 in
      List.iter
        (fun t ->
          let src = Tensor.data t in
          let s = seg t in
          for o = 0 to outer - 1 do
            Array.blit src (o * s) dst ((o * row_bytes) + !pos) s
          done;
          pos := !pos + s)
        ts;
      Tensor.create (Shape.of_list out_shape) dst

(* Slice [lo, hi) along [axis]. *)
let slice_axis ~axis ~lo ~hi t =
  let shape = Shape.to_list (Tensor.shape t) in
  let dim = List.nth shape axis in
  if lo < 0 || hi > dim || lo >= hi then
    invalid_arg
      (Printf.sprintf "Batching.slice_axis: [%d,%d) out of <%d>" lo hi dim);
  let outer =
    List.filteri (fun i _ -> i < axis) shape |> List.fold_left ( * ) 1
  in
  let inner =
    List.filteri (fun i _ -> i > axis) shape |> List.fold_left ( * ) 1
  in
  let out_shape =
    List.mapi (fun i d -> if i = axis then hi - lo else d) shape
  in
  let src = Tensor.data t in
  let seg = (hi - lo) * inner in
  let dst = Array.make (outer * seg) 0. in
  for o = 0 to outer - 1 do
    Array.blit src (((o * dim) + lo) * inner) dst (o * seg) seg
  done;
  Tensor.create (Shape.of_list out_shape) dst

(* --- Packing / unpacking ------------------------------------------------- *)

let base_param_shape spec name =
  match
    Option.map (Graph.shape spec.base) (Graph.find_parameter spec.base name)
  with
  | Some s -> s
  | None -> not_batchable "parameter %s not in the base graph" name

(* Validate one request's bindings: exactly the per-request parameters,
   each at its batch-1 shape. *)
let check_request spec params =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name spec.request_params) then
        not_batchable "binding %s is not a per-request parameter" name)
    params;
  List.iter
    (fun (name, _) ->
      match List.assoc_opt name params with
      | None -> not_batchable "request lacks a binding for %s" name
      | Some t ->
          let want = base_param_shape spec name in
          if not (Shape.equal (Tensor.shape t) want) then
            not_batchable "binding %s has shape %s, want %s" name
              (Shape.to_string (Tensor.shape t))
              (Shape.to_string want))
    spec.request_params

let pack spec requests =
  if requests = [] then invalid_arg "Batching.pack: no requests";
  List.iter (check_request spec) requests;
  List.map
    (fun (name, info) ->
      let parts = List.map (fun r -> List.assoc name r) requests in
      let packed = concat_axis ~axis:info.axis parts in
      (* serving-runtime fault site: raise models a failed pack,
         corrupt perturbs one cell of the freshly concatenated tensor
         (safe to mutate in place - [concat_axis] allocates it) *)
      (match Fault_site.check_runtime Fault_site.Pack ~pass:name with
      | Some seed -> Fault_site.corrupt (Tensor.data packed) seed
      | None -> ());
      (name, packed))
    spec.request_params

let unpack spec ~count outputs =
  if List.length outputs <> List.length spec.outputs then
    invalid_arg "Batching.unpack: output arity mismatch";
  List.init count (fun i ->
      List.map2
        (fun info t ->
          let sliced =
            match info with
            | None -> Tensor.copy t
            | Some { axis; extent } ->
                slice_axis ~axis ~lo:(i * extent) ~hi:((i + 1) * extent) t
          in
          (* serving-runtime fault site: corrupt perturbs the freshly
             sliced (or copied) per-request output in place *)
          (match Fault_site.check_runtime Fault_site.Unpack ~pass:"unpack" with
          | Some seed -> Fault_site.corrupt (Tensor.data sliced) seed
          | None -> ());
          sliced)
        spec.outputs outputs)

(* Deterministic per-request bindings (the serving analogue of
   [Session.random_params], restricted to per-request parameters). *)
let random_request spec ~seed =
  List.mapi
    (fun i (name, _) ->
      (name, Tensor.random ~seed:(seed + (31 * i)) (base_param_shape spec name)))
    spec.request_params

let random_shared spec ~seed =
  List.mapi
    (fun i (name, shape) ->
      (name, Tensor.random ~seed:(seed + 17 + (37 * i)) shape))
    spec.shared_params
