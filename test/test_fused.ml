(* The fused execution engine (tape lowering, register scalarization,
   per-block staging, the slot arena).

   The load-bearing claims, each tested directly:
   - fused execution is bit-identical to Executor.run and Interp.run on
     every zoo workload and tiny training graph, across backends,
     context and non-context paths, and on QCheck-random graphs;
   - every compiled node's tile writer writes exactly the bits its
     element accessor returns, on any window of at most one tile,
     including windows across rows and at a symbolic-batch prefix, with
     operands in storage or computed, on a graph holding every writer,
     and on random graphs compiled for two shared-memory sizes (row-
     constant operands included);
   - comparison-first max and min return Float.max's and Float.min's
     bits on signed zeros, infinities, subnormals, NaNs and random bit
     patterns, directly and through every max/min writer;
   - one fused run of each shared-memory-overflow shape allocates a
     bounded number of minor-heap words, far below one per element, and
     the regional models under half the words tiling alone left them;
   - the slot arena never shares a backing buffer between overlapping
     live ranges, and the fused engine allocates strictly fewer full
     buffers than it executes ops on stitched plans;
   - Regional staging stays bit-identical when the block geometry does
     not divide the staged element count (irregular tail blocks);
   - at batch 8, at a batch-3 rebind of each symbolic batch-8 plan and
     on the tiny training graphs every slab block is staged once per
     run, so tiling the fused loops leaves the staging counts as they
     were;
   - kernels the tape cannot stitch run unstitched (every op
     materialized) with a reason, and the mixed context is still
     bit-identical, on hand-made plans and on the real plans whose
     kernels the stitched lowering rejects;
   - stitched contexts write fewer full-buffer bytes than unstitched
     contexts on every zoo model at batch 8, and global stitching fewer
     than kernel-per-op on the shared-memory-overflow shapes;
   - fit_shared demotes largest-first and keeps everything under budget;
   - the exec graphs hold exactly the values the hold rule names, a
     value first read through a slab refill is held before that loop,
     and holds move Register bytes from scalarized to held and no
     staging, restage or barrier count;
   - fused runs of the exec graphs allocate no more minor words than
     when every Register value was recomputed, and a scatter-add fed by
     a Register broadcast reads its updates in tiles, bit-identical and
     with fewer words per run than update elements. *)

open Astitch_ir
open Astitch_tensor
open Astitch_simt
open Astitch_plan
open Astitch_runtime

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let backend_named = function
  | "astitch" -> Astitch_core.Astitch.full_backend
  | "xla" -> Astitch_backends.Xla_backend.backend
  | "tf" -> Astitch_backends.Tf_backend.backend
  | n -> Alcotest.failf "unknown backend %s" n

let compile_with backend g =
  (Session.compile (backend_named backend) Arch.v100 g).Session.plan

(* A V100 whose per-block shared memory is almost gone: any staged row
   overflows it, so kernels demote to global staging. *)
let tight_smem_arch =
  { Arch.v100 with name = "v100-tight-smem"; shared_mem_per_block = 128 }

let compile_tiny backend (e : Astitch_workloads.Zoo.entry) =
  compile_with backend (e.tiny ())

(* every tiny graph of the registry: inference, then training where the
   model has one *)
let tiny_graphs () =
  List.concat_map
    (fun (e : Astitch_workloads.Zoo.entry) ->
      (e.name, e.tiny ())
      :: Option.fold ~none:[]
           ~some:(fun build -> [ (e.name ^ "-train", build ()) ])
           e.tiny_training)
    Astitch_workloads.Zoo.all

let check_outputs msg expected got =
  check_int (msg ^ ": output count") (List.length expected) (List.length got);
  List.iteri
    (fun i (a, b) ->
      check_bool (Printf.sprintf "%s: output %d bitwise" msg i) true
        (Tensor.equal_bits a b))
    (List.combine expected got)

(* --- Bit-identity --------------------------------------------------------- *)

(* fused == unstitched context == fresh run == interpreter, on two
   different parameter sets through the same context (exercises buffer
   and slab reuse across calls); the training graphs' backward
   reduce->broadcast and scatter-add chains fuse without fallbacks *)
let test_zoo_bit_identical () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun backend ->
          let plan = compile_with backend g in
          let fused = Executor.create_context ~fused:true plan in
          let reference = Executor.create_context ~fused:false plan in
          if backend = "astitch" then
            check_int (name ^ ": no fallbacks") 0
              (List.length (Executor.context_fallbacks fused));
          List.iter
            (fun seed ->
              let params = Session.random_params ~seed g in
              let fo = Executor.run_context fused ~params in
              let label = Printf.sprintf "%s/%s/seed%d" name backend seed in
              check_outputs (label ^ " vs reference context")
                (Executor.run_context reference ~params)
                fo;
              check_outputs (label ^ " vs fresh run")
                (Executor.run plan ~params) fo;
              check_outputs (label ^ " vs interp") (Interp.run g ~params) fo)
            [ 7; 1902 ])
        [ "astitch"; "xla"; "tf" ])
    (tiny_graphs ())

(* AStitch plans place on-chip values, so every zoo workload must fuse
   without fallbacks and allocate strictly fewer full buffers than it
   executes ops *)
let test_zoo_fewer_buffers_than_ops () =
  List.iter
    (fun (e : Astitch_workloads.Zoo.entry) ->
      let plan = compile_tiny "astitch" e in
      let ctx = Executor.create_context ~fused:true plan in
      check_int (e.name ^ ": no fallbacks") 0
        (List.length (Executor.context_fallbacks ctx));
      let r = Executor.exec_report ctx in
      check_bool
        (Printf.sprintf "%s: %d buffers < %d ops" e.name
           r.Profile.buffers_allocated r.Profile.nodes_executed)
        true
        (r.Profile.buffers_allocated < r.Profile.nodes_executed);
      (* scalarization must actually happen for the claim to mean much *)
      let params = Session.random_params ~seed:3 plan.Kernel_plan.graph in
      ignore (Executor.run_context ctx ~params);
      let r = Executor.exec_report ctx in
      check_bool (e.name ^ ": some bytes scalarized away") true
        (List.fold_left
           (fun acc (k : Profile.exec_kernel) -> acc + k.bytes_scalarized)
           0 r.Profile.exec_kernels
        > 0))
    Astitch_workloads.Zoo.all

let test_random_graphs_bit_identical =
  QCheck.Test.make ~count:30 ~name:"fused == run == interp (random graphs)"
    QCheck.(make Gen.(int_bound 100_000))
    (fun seed ->
      let g =
        Astitch_workloads.Synthetic.random_graph ~seed ~nodes:24 ()
      in
      let plan =
        (Session.compile Astitch_core.Astitch.full_backend Arch.v100 g)
          .Session.plan
      in
      let params = Session.random_params ~seed g in
      let ctx = Executor.create_context ~fused:true plan in
      let fo = Executor.run_context ctx ~params in
      let same = List.for_all2 Tensor.equal_bits in
      same fo (Executor.run plan ~params) && same fo (Interp.run g ~params))

(* --- Tile writers --------------------------------------------------------- *)

let overflow_entries =
  [
    ("ASR-overflow", Astitch_workloads.Asr.overflow);
    ("DIEN-overflow", Astitch_workloads.Dien.overflow);
  ]

(* One graph's nodes compiled the way the engine compiles them: leaves,
   scatter-adds and every value the plan keeps off registers sit in full
   storage holding their interpreter values, cut to [prefix id]
   elements; Register values are compiled in turn.  [compiled id]
   compiles any node, whatever its placement. *)
let compiled_nodes ?(inline_all = false) plan ~values ~prefix =
  let g = plan.Kernel_plan.graph in
  let register = Hashtbl.create 64 in
  List.iter
    (fun (k : Kernel_plan.kernel) ->
      List.iter
        (fun (o : Kernel_plan.compiled_op) ->
          if o.placement = Kernel_plan.Register then
            Hashtbl.replace register o.id ())
        k.ops)
    plan.Kernel_plan.kernels;
  let memo = Hashtbl.create 64 and stored = Hashtbl.create 64 in
  let rec compiled id =
    match Hashtbl.find_opt memo id with
    | Some t -> t
    | None ->
        let t = Scalar_eval.compile g (Graph.node g id) ~operand in
        Hashtbl.replace memo id t;
        t
  and operand id =
    if
      (inline_all || Hashtbl.mem register id)
      && Op.scalarizable (Graph.node g id).op
    then compiled id
    else
      match Hashtbl.find_opt stored id with
      | Some t -> t
      | None ->
          let arr = Array.sub (Tensor.data values.(id)) 0 (prefix id) in
          let t =
            Scalar_eval.storage ~get:(fun j -> arr.(j)) (fun () -> arr)
          in
          Hashtbl.replace stored id t;
          t
  in
  compiled

let bits = Int64.bits_of_float
let same_bits a b = Int64.equal (bits a) (bits b)
let sentinel = Int64.float_of_bits 0x7ff8_dead_beef_0001L

(* Windows of at most one tile over the first [n] elements of a value
   whose rows are [row] long: the first tile, one ending at [n], a
   random one and, when there are two rows, one across a row boundary. *)
let windows rng ~n ~row =
  if n = 0 then []
  else
    let tile = Scalar_eval.tile in
    let at_end = Stdlib.min n (1 + Random.State.int rng tile) in
    let lo = Random.State.int rng n in
    let across =
      if row >= n || row = 0 then []
      else
        let b = row * (1 + Random.State.int rng ((n - 1) / row)) in
        let lo = Stdlib.max 0 (b - 1 - Random.State.int rng (tile - 1)) in
        let len =
          Stdlib.min (n - lo)
            (Stdlib.min tile (b - lo + 1 + Random.State.int rng tile))
        in
        [ (lo, len) ]
    in
    [
      (0, Stdlib.min tile n);
      (n - at_end, at_end);
      (lo, 1 + Random.State.int rng (Stdlib.min tile (n - lo)));
    ]
    @ across

(* [fill] writes exactly the bits [get] returns inside its window and
   nothing outside it, and [get] returns the interpreter's [expect] *)
let fill_matches_get rng (t : Scalar_eval.t) ~n ~row ~expect =
  List.for_all
    (fun (lo, len) ->
      let off = Random.State.int rng 4 in
      let dst = Array.make (off + len + 2) sentinel in
      t.fill dst off lo len;
      let ok = ref true in
      Array.iteri
        (fun i x ->
          let inside = i >= off && i < off + len in
          let want = if inside then t.get (lo + i - off) else sentinel in
          if bits x <> bits want then ok := false;
          if inside && bits want <> bits expect.(lo + i - off) then ok := false)
        dst;
      !ok)
    (windows rng ~n ~row)

let row_of g id =
  let s = Graph.shape g id in
  let r = Shape.rank s in
  if r = 0 then 1 else Shape.dim s (r - 1)

(* A graph prepared once: its plan, interpreter values and per-node
   element prefix. *)
type tile_case = {
  label : string;
  plan : Kernel_plan.t;
  values : Tensor.t array;
  prefix : Op.node_id -> int;
  inline_all : bool; (* every scalarizable operand computed *)
}

let tile_case ?(arch = Arch.v100) ?prefix ?(inline_all = false) label g =
  let plan =
    (Session.compile Astitch_core.Astitch.full_backend arch g).Session.plan
  in
  let values = Interp.eval_all g ~params:(Session.random_params ~seed:3 g) in
  let prefix =
    Option.value prefix ~default:(fun id -> Graph.num_elements g id)
  in
  { label; plan; values; prefix; inline_all }

(* One graph holding every tile writer's cases: transposes that keep
   and that move the last axis (the second over a span too long to
   stage), concats along the last and a middle axis, a slice, max-pools
   with overlapping windows, strided and suffix reductions of each kind
   over short and long rows, broadcasts that keep the input's axes
   leading, that replicate a middle axis, and from a scalar, an operand
   used twice, sign and erf, max and min, a select, dots eight, four and
   one columns wide, and convolutions with an odd channel count.  Run
   with every operand computed as well as with the plan's placements,
   so the writers see both storage and computed operands. *)
let writers_graph () =
  let module B = Builder in
  let b = B.create () in
  let x = B.parameter b "x" [ 2; 3; 5; 4 ] in
  let y = B.parameter b "y" [ 2; 3; 5; 4 ] in
  let t = B.add b x y in
  let sq = B.mul b t t in
  let wide = B.add b (B.parameter b "p" [ 40; 40 ]) (B.parameter b "q" [ 40; 40 ]) in
  let a = B.reshape b x [ 6; 20 ] in
  let w = B.parameter b "w" [ 20; 13 ] in
  let f = B.parameter b "f" [ 2; 2; 4; 3 ] in
  let rsum = B.reduce_sum b ~axes:[ 3 ] t in
  let outputs =
    [
      B.transpose b t ~perm:[ 0; 2; 1; 3 ];
      B.transpose b t ~perm:[ 3; 1; 2; 0 ];
      B.transpose b wide ~perm:[ 1; 0 ];
      B.concat b ~axis:3 [ t; x ];
      B.concat b ~axis:1
        [ t; B.slice b sq ~starts:[ 0; 1; 0; 0 ] ~stops:[ 2; 3; 5; 4 ] ];
      B.slice b t ~starts:[ 1; 1; 1; 1 ] ~stops:[ 2; 3; 4; 3 ];
      B.max_pool b ~window:2 ~stride:1 t;
      B.max_pool b ~window:3 ~stride:2 x;
      B.reduce_sum b ~axes:[ 1; 2 ] t;
      B.reduce_max b ~axes:[ 0; 2 ] x;
      B.reduce_min b ~axes:[ 1 ] t;
      B.reduce_mean b ~axes:[ 0 ] sq;
      B.reduce_mean b ~axes:[ 3 ] sq;
      B.reduce_max b ~axes:[ 2; 3 ] t;
      B.reduce_min b ~axes:[ 1; 2; 3 ] t;
      B.broadcast b rsum ~dims:[ 0; 1; 2 ] [ 2; 3; 5; 3 ];
      B.broadcast b (B.reduce_sum b ~axes:[ 0; 2 ] t) ~dims:[ 1; 3 ] [ 2; 3; 5; 4 ];
      B.broadcast b (B.reduce_max b ~axes:[ 0; 1; 2; 3 ] t) ~dims:[] [ 7; 3 ];
      B.sign b t;
      B.erf b t;
      B.relu b t;
      B.max b t sq;
      B.min b t sq;
      B.select b ~pred:(B.lt b t sq) ~on_true:t ~on_false:x;
      B.dot b a w;
      B.dot b a (B.parameter b "v" [ 20; 4 ]);
      B.dot b a (B.parameter b "u" [ 20; 3 ]);
      B.conv2d b ~stride:1 x f;
      B.conv2d b ~stride:2 x f;
    ]
  in
  B.finish b ~outputs

(* Symbolic-batch prefix: batch [b] of a plan built at [smax] reads
   only the first [b / smax] of every scaled value, so stored values
   are cut there and windows end inside it. *)
let prefix_case (e : Astitch_workloads.Zoo.entry) ~smax ~b =
  match
    Batch_axis.analyze ~g1:(e.batched ~batch:1) ~g2:(e.batched ~batch:2)
  with
  | Error _ -> None
  | Ok cls ->
      let g = e.batched ~batch:smax in
      Some
        (tile_case
           ~prefix:(fun id ->
             let n = Graph.num_elements g id in
             match cls.(id) with
             | Batch_axis.Invariant -> n
             | Batch_axis.Scaled _ -> n / smax * b)
           (Printf.sprintf "%s batch %d of %d" e.name b smax)
           g)

let tile_cases =
  lazy
    (List.map (fun (label, g) -> tile_case label g) (tiny_graphs ())
    @ List.concat_map
        (fun e ->
          List.filter_map Fun.id
            [ prefix_case e ~smax:3 ~b:2; prefix_case e ~smax:8 ~b:3 ])
        Astitch_workloads.Zoo.all
    @ [
        tile_case "ASR-overflow" (Astitch_workloads.Asr.overflow ());
        tile_case "DIEN-overflow" (Astitch_workloads.Dien.overflow ());
        tile_case "writers" (writers_graph ());
        tile_case ~inline_all:true "writers, all computed" (writers_graph ());
      ])

let check_case rng ~select c =
  let g = c.plan.Kernel_plan.graph in
  let compiled =
    compiled_nodes ~inline_all:c.inline_all c.plan ~values:c.values
      ~prefix:c.prefix
  in
  Graph.fold_nodes
    (fun ok (nd : Graph.node) ->
      ok
      && ((not (select nd.id && Op.scalarizable nd.op))
         ||
         let fine =
           fill_matches_get rng (compiled nd.id) ~n:(c.prefix nd.id)
             ~row:(row_of g nd.id)
             ~expect:(Tensor.data c.values.(nd.id))
         in
         if not fine then
           QCheck.Test.fail_reportf "%s: node %d (%s)" c.label nd.id
             (Op.mnemonic nd.op);
         fine))
    true g

(* Each run checks every node of a fresh random graph, compiled for the
   V100 and for the tight-shared-memory V100, and a quarter of the nodes
   of each prepared graph.  Rows of 300 put whole tiles inside one
   broadcast row, so binary ops take their row-constant path. *)
let test_fill_matches_get =
  QCheck.Test.make ~count:20
    ~name:"fill = accessor (random, zoo, overflow, batch prefix)"
    QCheck.(make Gen.(int_bound 100_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let g =
        Astitch_workloads.Synthetic.random_graph ~seed
          ~dims_pool:(if seed mod 2 = 0 then [ 2; 3; 5; 32 ] else [ 3; 7; 300 ])
          ~nodes:20 ()
      in
      List.for_all
        (fun arch ->
          check_case rng ~select:(fun _ -> true)
            (tile_case ~arch ~inline_all:(seed mod 3 = 0)
               ("random on " ^ arch.Arch.name)
               g))
        [ Arch.v100; tight_smem_arch ]
      && List.for_all
           (check_case rng ~select:(fun id -> id mod 4 = seed mod 4))
           (Lazy.force tile_cases))

(* --- Slab read order --------------------------------------------------------- *)

(* A counting slab like the fused engine's: [block] elements of node
   [id] per block, refilled through [node] on a miss, every refill
   logged as (id, block). *)
let counting_slab ~id ~block ~total ~(node : Scalar_eval.t) log =
  let data = Array.make block 0. and cur = ref (-1) in
  let load b =
    if !cur <> b then begin
      let lo = b * block in
      Scalar_eval.fill_range node data 0 lo (Stdlib.min total (lo + block));
      log := (id, b) :: !log;
      cur := b
    end
  in
  let fill dst off lo len =
    let j = ref lo and hi = lo + len in
    while !j < hi do
      let b = !j / block in
      load b;
      let stop = Stdlib.min hi ((b + 1) * block) in
      Array.blit data (!j - (b * block)) dst (off + (!j - lo)) (stop - !j);
      j := stop
    done
  in
  let get j =
    let b = j / block in
    load b;
    data.(j - (b * block))
  in
  (Scalar_eval.staged ~id ~block_elems:block ~total ~node ~get ~fill, fun () ->
    cur := -1)

(* Layer norm and softmax rows over a value whose row statistics (and,
   in some configurations, the value itself) sit in multi-block slabs,
   plus two sums of reads that reach a slab at positions not
   proportional to their own: a broadcast along a new leading axis and
   a transpose. *)
let slab_graph () =
  let module B = Builder in
  let b = B.create () in
  let x = B.parameter b "x" [ 8; 6 ] in
  let rows v = B.broadcast b v ~dims:[ 0 ] [ 8; 6 ] in
  let m = B.reduce_mean b ~axes:[ 1 ] x in
  let d = B.sub b x (rows m) in
  let var = B.reduce_mean b ~axes:[ 1 ] (B.mul b d d) in
  let nrm = B.mul b d (rows (B.rsqrt b var)) in
  let mx = B.reduce_max b ~axes:[ 1 ] nrm in
  let e = B.exp b (B.sub b nrm (rows mx)) in
  let sm = B.div b e (rows (B.reduce_sum b ~axes:[ 1 ] e)) in
  let cross =
    B.add b
      (B.broadcast b m ~dims:[ 1 ] [ 2; 8 ])
      (B.reshape b (B.broadcast b m ~dims:[ 0 ] [ 8; 2 ]) [ 2; 8 ])
  in
  let turned =
    B.add b (B.transpose b d ~perm:[ 1; 0 ]) (B.broadcast b m ~dims:[ 1 ] [ 6; 8 ])
  in
  (* whole rows pick [x]: their blocks of [d] are never read *)
  let negative = B.lt b (B.reduce_sum b ~axes:[ 1 ] x) (B.constant b ~dims:[ 8 ] 0.) in
  let picked = B.select b ~pred:(rows negative) ~on_true:d ~on_false:x in
  (B.finish b ~outputs:[ sm; cross; turned; picked ], (m, d, var, mx))

(* Every node's tile writer loads slab blocks in the sequence its
   accessor does over the same elements, whichever values are staged
   at whichever block sizes - aligned with the rows, straddling them,
   or one block - so staging counts cannot tell tiles from elements. *)
let test_slab_read_order () =
  let g, (m, d, var, mx) = slab_graph () in
  let params = Session.random_params ~seed:17 g in
  let values = Interp.eval_all g ~params in
  let staged_sets =
    [
      [ (m, 2) ];
      [ (m, 2); (d, 12); (var, 2) ];
      [ (m, 3); (d, 12); (var, 2); (mx, 4) ];
      [ (m, 2); (d, 18); (mx, 3) ];
      [ (d, 6); (mx, 8) ];
      [ (m, 8); (var, 1) ];
      [ (d, 9) ];
      [ (d, 9); (var, 2) ];
      [ (m, 2); (d, 9); (mx, 2) ];
    ]
  in
  List.iteri
    (fun k staged ->
      let log = ref [] and resets = ref [] in
      let memo = Hashtbl.create 32 in
      let rec operand id =
        match Hashtbl.find_opt memo id with
        | Some t -> t
        | None ->
            let nd = Graph.node g id in
            let t =
              match (nd.op, List.assoc_opt id staged) with
              | Op.Parameter _, _ ->
                  let arr = Tensor.data values.(id) in
                  Scalar_eval.storage ~get:(fun j -> arr.(j)) (fun () -> arr)
              | _, Some block ->
                  let node = Scalar_eval.compile g nd ~operand in
                  let t, reset =
                    counting_slab ~id ~block ~total:(Graph.num_elements g id)
                      ~node log
                  in
                  resets := reset :: !resets;
                  t
              | _, None -> Scalar_eval.compile g nd ~operand
            in
            Hashtbl.replace memo id t;
            t
      in
      let fresh () =
        List.iter (fun r -> r ()) !resets;
        log := []
      in
      Graph.iter_nodes
        (fun (nd : Graph.node) ->
          match nd.op with
          | Op.Parameter _ -> ()
          | _ ->
              let t = operand nd.id and n = Graph.num_elements g nd.id in
              fresh ();
              let by_element = Array.init n t.get in
              let per_element = List.rev !log in
              fresh ();
              let tiled = Array.make n 0. in
              Scalar_eval.fill_range t tiled 0 0 n;
              let label = Printf.sprintf "set %d: node %d (%s)" k nd.id
                  (Op.mnemonic nd.op) in
              check_bool (label ^ ": same slab loads") true
                (List.rev !log = per_element);
              check_bool (label ^ ": bitwise") true
                (Array.for_all2 same_bits tiled by_element
                && Array.for_all2 same_bits tiled (Tensor.data values.(nd.id))))
        g)
    staged_sets

(* One fused run of each overflow shape allocates no per-element boxes:
   intermediates stay in unboxed tiles. *)
let test_overflow_allocation () =
  List.iter
    (fun (name, build) ->
      let g = build () in
      let ctx = Executor.create_context (compile_with "astitch" g) in
      let params = Session.random_params ~seed:11 g in
      let before = Gc.minor_words () in
      ignore (Sys.opaque_identity (Executor.run_context ctx ~params));
      let words = Gc.minor_words () -. before in
      check_bool
        (Printf.sprintf "%s: %.0f minor words per run < 64k" name words)
        true (words < 64_000.))
    overflow_entries

(* --- Max and min ------------------------------------------------------------ *)

(* Signed zeros, infinities, the extreme subnormals, quiet NaNs of both
   signs with two payloads, and ordinary values. *)
let special_floats =
  Array.map Int64.float_of_bits
    [|
      0x0000000000000000L; 0x8000000000000000L; 0x7ff0000000000000L;
      0xfff0000000000000L; 0x0000000000000001L; 0x8000000000000001L;
      0x000fffffffffffffL; 0x800fffffffffffffL; 0x7ff8000000000000L;
      0xfff8000000000000L; 0x7ff80000000abcdeL; 0xfff80000000abcdeL;
      0x3ff0000000000000L; 0xbff8000000000000L;
    |]

(* Comparison-first max and min are Float.max and Float.min to the bit:
   every pair of special values, then random bit patterns (NaNs,
   subnormals and infinities included). *)
let test_max_min_exact () =
  let pair x y =
    if not (same_bits (Scalar_eval.fmax x y) (Float.max x y)) then
      Alcotest.failf "fmax %Lx %Lx" (bits x) (bits y);
    if not (same_bits (Scalar_eval.fmin x y) (Float.min x y)) then
      Alcotest.failf "fmin %Lx %Lx" (bits x) (bits y)
  in
  Array.iter (fun x -> Array.iter (pair x) special_floats) special_floats;
  let rng = Random.State.make [| 19 |] in
  let random () = Int64.float_of_bits (Random.State.bits64 rng) in
  for _ = 1 to 100_000 do
    let x = random () in
    pair x (random ());
    pair x x;
    pair x (-.x)
  done

(* The same values through every max/min writer: binary max and min,
   relu, and max/min folds over suffix and strided axes, over stored and
   computed operands, fused against the interpreter. *)
let test_max_min_writers () =
  let n = Array.length special_floats in
  let module B = Builder in
  let b = B.create () in
  let x = B.parameter b "x" [ n; n ] and y = B.parameter b "y" [ n; n ] in
  let m = B.max b x y in
  let outputs =
    [
      m;
      B.min b x y;
      B.relu b x;
      B.reduce_max b ~axes:[ 1 ] x;
      B.reduce_min b ~axes:[ 1 ] x;
      B.reduce_max b ~axes:[ 0 ] x;
      B.reduce_min b ~axes:[ 0 ] x;
      B.reduce_max b ~axes:[ 1 ] (B.min b x y);
      B.reduce_min b ~axes:[ 0 ] m;
    ]
  in
  let g = B.finish b ~outputs in
  let grid f = Tensor.init (Shape.of_list [ n; n ]) f in
  let params =
    [
      ("x", grid (fun i -> special_floats.(i / n)));
      ("y", grid (fun i -> special_floats.(i mod n)));
    ]
  in
  let ctx = Executor.create_context (compile_with "astitch" g) in
  check_outputs "max/min writers" (Interp.run g ~params)
    (Executor.run_context ctx ~params)

(* The regional models at batch 8 - layer norms and softmaxes over
   multi-block slabs, transposes, pools, concats - allocate under half
   the minor words per run they did when only the local kernels were
   tiled (CRNN 132,501, BERT 30,221, Transformer 15,286). *)
let test_regional_allocation () =
  List.iter
    (fun (name, parent) ->
      let e = Option.get (Astitch_workloads.Zoo.find name) in
      let g = e.batched ~batch:8 in
      let ctx = Executor.create_context (compile_with "astitch" g) in
      let params = Session.random_params ~seed:11 g in
      ignore (Executor.run_context ctx ~params);
      let before = Gc.minor_words () in
      ignore (Sys.opaque_identity (Executor.run_context ctx ~params));
      let words = Gc.minor_words () -. before in
      check_bool
        (Printf.sprintf "%s: %.0f minor words per run < %d" name words
           (parent / 2))
        true
        (words < float_of_int (parent / 2)))
    [ ("CRNN", 132_501); ("BERT", 30_221); ("Transformer", 15_286) ]

(* --- Slot arena ----------------------------------------------------------- *)

module Mem = Astitch_core.Mem_planner

let test_arena_reuse_and_exclusivity () =
  (* (node, elems, def, last): 1 dies before 3 defines -> same slot;
     2 overlaps both but is a different size anyway *)
  let assignments, slots =
    Mem.plan_slots [ (1, 16, 0, 1); (2, 8, 0, 3); (3, 16, 2, 3) ]
  in
  let slot_of n =
    (List.find (fun (a : Mem.slot_assignment) -> a.node = n) assignments)
      .slot
  in
  check_int "two buffers for three nodes" 2 (List.length slots);
  check_int "disjoint same-size lifetimes share a slot" (slot_of 1)
    (slot_of 3);
  check_bool "different sizes never share" true (slot_of 2 <> slot_of 1);
  Mem.check_slot_exclusive assignments;
  (* equal last/def positions overlap (the reader runs in the defining
     kernel's position or later): no reuse *)
  let a2, s2 = Mem.plan_slots [ (1, 16, 0, 2); (3, 16, 2, 3) ] in
  check_int "touching lifetimes do not share" 2 (List.length s2);
  Mem.check_slot_exclusive a2

let test_arena_exclusivity_raises () =
  let overlapping =
    [
      { Mem.node = 1; slot = 0; elems = 4; def_pos = 0; last_pos = 2 };
      { Mem.node = 2; slot = 0; elems = 4; def_pos = 1; last_pos = 3 };
    ]
  in
  match Mem.check_slot_exclusive overlapping with
  | () -> Alcotest.fail "expected Scratch_aliasing"
  | exception Compile_error.Error _ -> ()

let test_arena_random_exclusive =
  QCheck.Test.make ~count:200 ~name:"random intervals: slots stay exclusive"
    QCheck.(
      list_of_size Gen.(1 -- 30)
        (triple (int_bound 20) (int_bound 6) (int_bound 20)))
    (fun raw ->
      let entries =
        List.mapi
          (fun i (def, len, elems) ->
            (i, (4 * elems) + 4, def, def + len))
          raw
      in
      let assignments, slots = Mem.plan_slots entries in
      Mem.check_slot_exclusive assignments;
      List.length slots <= List.length entries)

(* --- fit_shared ----------------------------------------------------------- *)

let test_fit_shared () =
  (* under budget: untouched, original order *)
  let kept, demoted =
    Mem.fit_shared ~budget:500 [ (1, 100); (2, 50); (3, 200) ]
  in
  check_bool "under budget keeps everything in order" true
    (kept = [ (1, 100); (2, 50); (3, 200) ] && demoted = []);
  (* over budget: largest demoted first, until the remainder fits *)
  let kept, demoted =
    Mem.fit_shared ~budget:160 [ (1, 100); (2, 50); (3, 200) ]
  in
  check_bool "largest buffer demoted" true (demoted = [ (3, 200) ]);
  check_bool "survivors fit" true
    (List.fold_left (fun acc (_, b) -> acc + b) 0 kept <= 160);
  let _, demoted =
    Mem.fit_shared ~budget:50 [ (1, 80); (2, 60); (3, 40); (4, 20) ]
  in
  check_bool "multiple demotions, largest first" true
    (demoted = [ (1, 80); (2, 60); (3, 40) ])

(* --- Plan surgery helpers ------------------------------------------------- *)

(* rewrite the thread mapping of the first Shared_mem op found *)
let rewrite_first_shared plan ~mapping =
  let hit = ref None in
  let kernels =
    List.map
      (fun (k : Kernel_plan.kernel) ->
        let ops =
          List.map
            (fun (o : Kernel_plan.compiled_op) ->
              if
                !hit = None && o.placement = Kernel_plan.Shared_mem
              then begin
                hit := Some o.id;
                { o with mapping = mapping o }
              end
              else o)
            k.ops
        in
        { k with ops })
      plan.Kernel_plan.kernels
  in
  (!hit, { plan with kernels })

(* --- Regional staging at irregular block geometry -------------------------- *)

let test_irregular_staging () =
  let exercised = ref 0 in
  List.iter
    (fun (e : Astitch_workloads.Zoo.entry) ->
      let plan = compile_tiny "astitch" e in
      let g = plan.Kernel_plan.graph in
      (* force a block geometry whose per-block element count does not
         divide the staged total, so the last block is a short tail *)
      let hit, plan' =
        rewrite_first_shared plan ~mapping:(fun o ->
            let total = Graph.num_elements g o.id in
            let grid =
              (* smallest grid with an irregular tail, if one exists *)
              List.find_opt
                (fun grid ->
                  let bk = (total + grid - 1) / grid in
                  grid > 1 && bk > 0 && total mod bk <> 0)
                (List.init total (fun i -> i + 1))
              |> Option.value ~default:1
            in
            Thread_mapping.Elementwise
              { elements = total; block = 32; grid; rows = None })
      in
      match hit with
      | None -> ()
      | Some _ ->
          incr exercised;
          let ctx = Executor.create_context ~fused:true plan' in
          check_int (e.name ^ ": still fuses with irregular blocks") 0
            (List.length (Executor.context_fallbacks ctx));
          let params = Session.random_params ~seed:5 g in
          check_outputs
            (e.name ^ ": irregular staging bitwise")
            (Interp.run g ~params)
            (Executor.run_context ctx ~params);
          let r = Executor.exec_report ctx in
          check_bool (e.name ^ ": staging traffic recorded") true
            (Profile.exec_total_staged r > 0))
    Astitch_workloads.Zoo.all;
  check_bool "at least one workload staged irregularly" true (!exercised > 0)

(* Bytes one pass over every slab block stages: each staged value's
   [elems] elements once. *)
let one_pass_bytes plan ~elems =
  List.fold_left
    (fun acc (kt : Tape.kernel_tape) ->
      List.fold_left
        (fun acc (id, role) ->
          match role with Tape.Staged _ -> acc + (8 * elems id) | _ -> acc)
        acc kt.roles)
    0 (Tape.lower plan).kernels

let check_staged_once label plan ~elems run =
  let one_pass = one_pass_bytes plan ~elems in
  let ctx = Executor.create_context plan in
  run ctx;
  let staged, restages =
    List.fold_left
      (fun (b, r) (k : Profile.exec_kernel) ->
        (b + k.bytes_staged, r + k.restages))
      (0, 0) (Executor.exec_report ctx).Profile.exec_kernels
  in
  check_bool (label ^ ": stages something") true (one_pass > 0);
  check_int (label ^ ": bytes staged in one pass") one_pass staged;
  check_int (label ^ ": no restages") 0 restages

(* Every slab block is staged once per run, however the fused loops are
   tiled: tile writers read slabs in the order per-element reads would,
   so a tile that refilled a block twice would show here as extra staged
   bytes or a restage.  At the served batch size on the zoo models, at a
   batch-3 rebind of each symbolic batch-8 plan (slabs bounded at their
   prefix), and on the tiny training graphs. *)
let test_zoo_stages_each_block_once () =
  List.iter
    (fun (e : Astitch_workloads.Zoo.entry) ->
      let g = e.batched ~batch:8 in
      let plan = compile_with "astitch" g in
      check_staged_once e.name plan ~elems:(Graph.num_elements g) (fun ctx ->
          ignore
            (Executor.run_context ctx ~params:(Session.random_params ~seed:5 g)));
      match
        Batch_axis.analyze ~g1:(e.batched ~batch:1) ~g2:(e.batched ~batch:2)
      with
      | Error _ -> ()
      | Ok cls ->
          let plan =
            { plan with Kernel_plan.batch = Some { Batch_axis.max_batch = 8; cls } }
          in
          let elems id =
            match cls.(id) with
            | Batch_axis.Scaled _ -> Graph.num_elements g id / 8 * 3
            | Batch_axis.Invariant -> Graph.num_elements g id
          in
          check_staged_once (e.name ^ " batch 3 of 8") plan ~elems (fun ctx ->
              ignore
                (Executor.run_context ~batch:3 ctx
                   ~params:(Session.random_params ~seed:5 (e.batched ~batch:3)))))
    Astitch_workloads.Zoo.all;
  List.iter
    (fun (e : Astitch_workloads.Zoo.entry) ->
      Option.iter
        (fun build ->
          let g = build () in
          check_staged_once (e.name ^ "-train") (compile_with "astitch" g)
            ~elems:(Graph.num_elements g) (fun ctx ->
              ignore
                (Executor.run_context ctx
                   ~params:(Session.random_params ~seed:5 g))))
        e.tiny_training)
    Astitch_workloads.Zoo.all

(* --- Fallback vs demotion -------------------------------------------------- *)

(* A Shared_mem op mapped as a column reduce has no contiguous block
   geometry to stage per block.  At grid 1 the barrier a global staging
   needs is legal, so the tape now demotes the buffer to global scratch
   instead of falling back: zero fallbacks, bit-identical, and the exec
   report shows the demotion and the staged traffic. *)
let test_demotes_instead_of_falling_back () =
  let exercised = ref 0 in
  List.iter
    (fun (e : Astitch_workloads.Zoo.entry) ->
      let plan = compile_tiny "astitch" e in
      let g = plan.Kernel_plan.graph in
      let hit, plan' =
        rewrite_first_shared plan ~mapping:(fun o ->
            let total = Graph.num_elements g o.id in
            Thread_mapping.Column_reduce
              { rows = 1; row_length = total; block = 32; grid = 1 })
      in
      match hit with
      | None -> ()
      | Some _ ->
          incr exercised;
          let ctx = Executor.create_context ~fused:true plan' in
          check_int (e.name ^ ": demoted, not fallen back") 0
            (List.length (Executor.context_fallbacks ctx));
          let params = Session.random_params ~seed:5 g in
          check_outputs
            (e.name ^ ": demoted context bitwise")
            (Interp.run g ~params)
            (Executor.run_context ctx ~params);
          let r = Executor.exec_report ctx in
          let demotions, gstaged =
            List.fold_left
              (fun (d, s) (k : Profile.exec_kernel) ->
                (d + k.demotions, s + k.bytes_staged_global))
              (0, 0) r.Profile.exec_kernels
          in
          check_bool (e.name ^ ": demotion recorded") true (demotions > 0);
          check_bool (e.name ^ ": global staging traffic recorded") true
            (gstaged > 0))
    Astitch_workloads.Zoo.all;
  check_bool "at least one workload demoted" true (!exercised > 0)

(* The same surgery with the kernel grid widened past one co-resident
   wave: the demotion's barrier would deadlock, so the kernel genuinely
   falls back with the legality reason, and the mixed stitched/unstitched
   context must still be bit-identical (the mapping is irrelevant to an
   unstitched kernel). *)
let test_illegal_demotion_falls_back () =
  let exercised = ref 0 in
  List.iter
    (fun (e : Astitch_workloads.Zoo.entry) ->
      let plan = compile_tiny "astitch" e in
      let g = plan.Kernel_plan.graph in
      let hit, plan' =
        rewrite_first_shared plan ~mapping:(fun o ->
            let total = Graph.num_elements g o.id in
            Thread_mapping.Column_reduce
              { rows = 1; row_length = total; block = 32; grid = 1 })
      in
      match hit with
      | None -> ()
      | Some hit_id ->
          incr exercised;
          (* widen the owning kernel's launch so no wave can co-resident
             the grid: Barrier.is_legal fails and the demotion is off *)
          let kernels =
            List.map
              (fun (k : Kernel_plan.kernel) ->
                if List.exists (fun (o : Kernel_plan.compiled_op) ->
                       o.id = hit_id) k.ops
                then
                  let block = k.launch.Launch.block in
                  let wide =
                    2 * Astitch_simt.Occupancy.blocks_per_wave Arch.v100
                          k.launch
                  in
                  { k with launch = Launch.make ~grid:wide ~block () }
                else k)
              plan'.Kernel_plan.kernels
          in
          let plan' = { plan' with kernels } in
          let ctx = Executor.create_context ~fused:true plan' in
          (match Executor.context_fallbacks ctx with
          | [ (_, reason) ] ->
              check_bool
                (e.name ^ ": reason names the co-residency limit")
                true
                (String.length reason > 0)
          | fs ->
              Alcotest.failf "%s: expected exactly 1 fallback, got %d"
                e.name (List.length fs));
          let params = Session.random_params ~seed:5 g in
          check_outputs
            (e.name ^ ": mixed context bitwise")
            (Interp.run g ~params)
            (Executor.run_context ctx ~params))
    Astitch_workloads.Zoo.all;
  check_bool "at least one workload fell back" true (!exercised > 0)

(* The random graphs of the plan-digest golden ([~nodes:(10 + seed * 7
   mod 60)]) whose XLA-family and ATM plans hold a kernel the stitched
   lowering rejects, each a Register scatter-add no consumer loop can
   scalarize.  Under each of those five backends the plan reports the
   kernel, and its stitched context, its unstitched context and
   [Executor.run] all reproduce the interpreter bit for bit. *)
let test_rejected_kernels_of_real_plans () =
  List.iter
    (fun seed ->
      let g =
        Astitch_workloads.Synthetic.random_graph ~seed
          ~nodes:(10 + (seed * 7 mod 60))
          ()
      in
      let params = Session.random_params ~seed g in
      let expect = Interp.run g ~params in
      List.iter
        (fun (name, backend) ->
          let plan = (Session.compile backend Arch.v100 g).Session.plan in
          let label = Printf.sprintf "synthetic-%d/%s" seed name in
          let ctx = Executor.create_context plan in
          check_bool (label ^ ": a rejected kernel") true
            (Executor.context_fallbacks ctx <> []);
          check_outputs (label ^ ": stitched") expect
            (Executor.run_context ctx ~params);
          check_outputs (label ^ ": unstitched") expect
            (Executor.run_context
               (Executor.create_context ~fused:false plan)
               ~params);
          check_outputs (label ^ ": run") expect (Executor.run plan ~params))
        [
          ("xla", Astitch_backends.Xla_backend.backend);
          ("tvm", Astitch_backends.Tvm_backend.backend);
          ("ansor", Astitch_backends.Tvm_backend.ansor);
          ("trt", Astitch_backends.Trt_backend.backend);
          ("atm", Astitch_core.Astitch.atm_backend);
        ])
    [ 3; 8; 30; 54; 56; 85; 91; 95 ]

(* Full-buffer bytes one run of [plan]'s context writes: a deterministic
   count fixed when the context is created, where wall time is not. *)
let bytes_written ?fused plan =
  List.fold_left
    (fun acc (k : Profile.exec_kernel) -> acc + k.bytes_materialized)
    0
    (Executor.exec_report (Executor.create_context ?fused plan))
      .Profile.exec_kernels

(* At the served batch size every zoo model's fused context writes
   fewer bytes than its unstitched context: scalarization and staging
   keep intermediates out of full buffers. *)
let test_zoo_fewer_bytes_than_reference () =
  List.iter
    (fun (e : Astitch_workloads.Zoo.entry) ->
      let plan =
        (Session.compile Astitch_core.Astitch.full_backend Arch.v100
           (e.batched ~batch:8))
          .Session.plan
      in
      let fused = bytes_written plan in
      let reference = bytes_written ~fused:false plan in
      check_bool
        (Printf.sprintf "%s batch 8: fused writes %d B < reference %d B"
           e.name fused reference)
        true (fused < reference))
    Astitch_workloads.Zoo.all

(* --- Global stitching execution -------------------------------------------- *)

(* The shared-mem-overflow shapes must fuse without any fallback - the
   whole point of the global scheme - and run bit-identical to both
   reference paths while actually exercising global staging and
   in-kernel barriers. *)
let test_overflow_shapes_fuse_globally () =
  List.iter
    (fun (name, build) ->
      let g = build () in
      let plan =
        (Session.compile Astitch_core.Astitch.full_backend Arch.v100 g)
          .Session.plan
      in
      let ctx = Executor.create_context ~fused:true plan in
      check_int (name ^ ": fused without fallback") 0
        (List.length (Executor.context_fallbacks ctx));
      let params = Session.random_params ~seed:11 g in
      let fo = Executor.run_context ctx ~params in
      check_outputs (name ^ " vs fresh run") (Executor.run plan ~params) fo;
      check_outputs (name ^ " vs interp") (Interp.run g ~params) fo;
      let r = Executor.exec_report ctx in
      let staged, barriers =
        List.fold_left
          (fun (s, b) (k : Profile.exec_kernel) ->
            (s + k.bytes_staged_global, b + k.barriers_run))
          (0, 0) r.Profile.exec_kernels
      in
      check_bool (name ^ ": bytes staged globally") true (staged > 0);
      check_bool (name ^ ": barriers executed") true (barriers > 0))
    overflow_entries

(* Global stitching writes fewer bytes than the kernel-per-op baseline
   ([Fallback.per_op_plan], every memory-intensive op in its own kernel)
   on the shapes that overflow shared memory. *)
let test_overflow_fewer_bytes_than_per_op () =
  List.iter
    (fun (name, build) ->
      let g = build () in
      let global =
        bytes_written
          (Session.compile Astitch_core.Astitch.full_backend Arch.v100 g)
            .Session.plan
      in
      let per_op =
        bytes_written (Astitch_core.Fallback.per_op_plan Arch.v100 g)
      in
      check_bool
        (Printf.sprintf "%s: global writes %d B < kernel-per-op %d B" name
           global per_op)
        true (global < per_op))
    overflow_entries

(* Random graphs on an arch whose per-block shared memory is almost
   gone: any staged row overflows the budget, so nearly every kernel
   exercises demotion, global staging and the demote-vs-split gate -
   with tensors small enough for the interpreter.  Execution itself is
   arch-independent, so bit-identity still holds against the
   interpreter. *)
let test_random_overflow_bit_identical =
  QCheck.Test.make ~count:25
    ~name:"fused == run == interp (shared-mem-overflow random graphs)"
    QCheck.(make Gen.(int_bound 100_000))
    (fun seed ->
      let g =
        Astitch_workloads.Synthetic.random_graph ~seed
          ~dims_pool:[ 2; 3; 5; 32 ] ~nodes:20 ()
      in
      let plan =
        (Session.compile Astitch_core.Astitch.full_backend tight_smem_arch g)
          .Session.plan
      in
      let params = Session.random_params ~seed g in
      let ctx = Executor.create_context ~fused:true plan in
      let fo = Executor.run_context ctx ~params in
      let same = List.for_all2 Tensor.equal_bits in
      same fo (Executor.run plan ~params) && same fo (Interp.run g ~params))

(* Every kernel of a random graph lowers to the fused recipe, on the
   default arch and the tight-smem one: a scatter-add with only
   in-cluster consumers is a dominant (atomic-reduce) op staged in
   memory, never a register value the tape cannot scalarize. *)
let test_random_graphs_fuse_every_kernel () =
  List.iter
    (fun arch ->
      for seed = 0 to 299 do
        let g = Astitch_workloads.Synthetic.random_graph ~seed ~nodes:40 () in
        let plan =
          (Session.compile Astitch_core.Astitch.full_backend arch g)
            .Session.plan
        in
        match Executor.context_fallbacks (Executor.create_context plan) with
        | [] -> ()
        | (k, why) :: _ ->
            Alcotest.failf "%s seed %d: %s on the reference path: %s"
              arch.Arch.name seed k why
      done)
    [ Arch.v100; tight_smem_arch ]

(* demote-vs-split gating on both sides of the crossover *)
let test_gating_crossover () =
  let open Astitch_core.Global_gating in
  let launch = Launch.make ~grid:64 ~block:256 () in
  let v1 = gate Arch.v100 ~launch ~barriers:1 ~staged_bytes:4096 in
  check_bool "one cheap barrier: demote" true (v1.choice = Demote && v1.legal);
  check_bool "demote priced below split" true (v1.demote_us <= v1.split_us);
  let v8 = gate Arch.v100 ~launch ~barriers:8 ~staged_bytes:4096 in
  check_bool "eight barriers: split" true (v8.choice = Split && v8.legal);
  check_bool "split priced below demote" true (v8.split_us < v8.demote_us);
  (* the crossover tracks launch overhead: pricier launches demote again *)
  let cfg =
    {
      Astitch_simt.Cost_model.default_config with
      kernel_launch_overhead_us = 30.0;
    }
  in
  let v8' =
    gate ~config:cfg Arch.v100 ~launch ~barriers:8 ~staged_bytes:4096
  in
  check_bool "pricier launches: demote again" true (v8'.choice = Demote);
  (* illegality forces a split whatever the costs say *)
  let wide = Launch.make ~grid:100_000 ~block:1024 () in
  let vw = gate Arch.v100 ~launch:wide ~barriers:1 ~staged_bytes:4096 in
  check_bool "illegal barrier: forced split" true
    (vw.choice = Split && not vw.legal)

let test_disabled_engine_is_all_reference () =
  let plan = compile_tiny "astitch" (List.hd Astitch_workloads.Zoo.all) in
  let ctx = Executor.create_context ~fused:false plan in
  check_int "every kernel on the reference path"
    (List.length plan.Kernel_plan.kernels)
    (List.length (Executor.context_fallbacks ctx))

(* --- Holds, row-constant operands and scatter tiles ---------------------- *)

(* The graphs the exec benchmark runs: the zoo at batch 8 and both
   shared-memory-overflow shapes. *)
let exec_graphs () =
  List.map
    (fun (e : Astitch_workloads.Zoo.entry) -> (e.name, e.batched ~batch:8))
    Astitch_workloads.Zoo.all
  @ List.map (fun (name, build) -> (name, build ())) overflow_entries

let held_values plan =
  List.concat_map
    (fun (kt : Tape.kernel_tape) ->
      List.filter_map
        (fun (id, role) ->
          match role with
          | Tape.Held { before } -> Some (kt.kernel.name, id, before)
          | _ -> None)
        kt.roles)
    (Tape.lower plan).kernels

(* The values the hold rule names on the exec graphs: DIEN-overflow's
   softmax [exp] %6, which its row sum %7 and its normalizing divide
   (through the row sum %10) read in two loops on either side of a
   barrier.  ASR-overflow holds nothing: its [sub] %119 is light and
   only the row sum %121 reads its [exp] %120.  The zoo's batch-8
   softmaxes read their [exp] through a slab refill and the consumer
   in one loop, so they hold nothing either. *)
let test_holds_named_values () =
  let total = ref 0 in
  List.iter
    (fun (name, g) ->
      let plan = compile_with "astitch" g in
      let want =
        if name = "DIEN-overflow" then [ ("stitch_op_0", 6, 7) ] else []
      in
      check_bool (name ^ ": held values") true (held_values plan = want);
      List.iter
        (fun (_, id, _) ->
          check_bool (name ^ ": a held exp") true
            (Op.mnemonic (Graph.node g id).op = "exp"))
        want;
      List.iter
        (fun (k : Profile.exec_kernel) ->
          let bytes =
            List.fold_left
              (fun acc (kn, id, _) ->
                if kn = k.kname then acc + (8 * Graph.num_elements g id)
                else acc)
              0 want
          in
          total := !total + k.bytes_held;
          check_int (name ^ " " ^ k.kname ^ ": bytes held") bytes k.bytes_held)
        (Executor.exec_report (Executor.create_context plan))
          .Profile.exec_kernels)
    (exec_graphs ());
  check_int "one 512 KiB hold buffer" 524_288 !total

(* A hold moves Register bytes from [bytes_scalarized] to [bytes_held]
   and nothing else: per kernel the two sum to every Register value's
   bytes, each slab block is staged once per run with no restage, the
   tape's barriers run once per run, and outputs stay bit-identical.
   Summed over the exec graphs the Register bytes are the 6,932,128 the
   engine scalarized when it recomputed every Register value. *)
let test_holds_move_nothing_else () =
  let register = ref 0 in
  List.iter
    (fun (name, g) ->
      let plan = compile_with "astitch" g in
      let ctx = Executor.create_context plan in
      let params = Session.random_params ~seed:9 g in
      check_outputs (name ^ " vs interp") (Interp.run g ~params)
        (Executor.run_context ctx ~params);
      List.iter2
        (fun (kt : Tape.kernel_tape) (k : Profile.exec_kernel) ->
          if kt.fallback <> None then
            Alcotest.failf "%s: %s fell back" name k.kname;
          let bytes pick =
            List.fold_left
              (fun acc (id, role) ->
                if pick role then acc + (8 * Graph.num_elements g id)
                else acc)
              0 kt.roles
          in
          let reg =
            bytes (function Tape.Inline | Tape.Held _ -> true | _ -> false)
          in
          register := !register + reg;
          let label = name ^ " " ^ k.kname in
          check_int (label ^ ": scalarized + held") reg
            (k.bytes_scalarized + k.bytes_held);
          check_int (label ^ ": staged once")
            (bytes (function Tape.Staged _ -> true | _ -> false))
            k.bytes_staged;
          check_int (label ^ ": no restages") 0 k.restages;
          check_int (label ^ ": barriers") kt.barriers k.barriers_run)
        (Tape.lower plan).kernels
        (Executor.exec_report ctx).Profile.exec_kernels)
    (exec_graphs ());
  check_int "Register bytes of the exec graphs" 6_932_128 !register

(* Random graph 1012 reads its [exp] %2 first through reduce %5's slab,
   which the loop of %21 refills, then directly in the loops of %22 and
   %23.  Its hold buffer is written before %21: one looking only
   through Register chains would place it before %22, and %21 would
   read it unwritten (zeros on the first run, the previous run's values
   after). *)
let test_hold_before_slab_refill () =
  let g = Astitch_workloads.Synthetic.random_graph ~seed:1012 ~nodes:24 () in
  let plan = compile_with "astitch" g in
  check_bool "exp %2 held before %21" true
    (List.map (fun (_, id, before) -> (id, before)) (held_values plan)
    = [ (2, 21) ]);
  let ctx = Executor.create_context plan in
  List.iter
    (fun seed ->
      let params = Session.random_params ~seed g in
      check_outputs
        (Printf.sprintf "seed 1012, params %d" seed)
        (Interp.run g ~params)
        (Executor.run_context ctx ~params))
    [ 1012; 7 ]

(* Minor words one fused run of each exec graph allocated when every
   Register value was recomputed and row-constant operands were filled
   as tiles of copies.  A hold or a row-constant read that boxed a float
   per tile would exceed them. *)
let recompute_words =
  [
    ("CRNN", 3539); ("ASR", 986); ("BERT", 1599); ("Transformer", 740);
    ("DIEN", 1247); ("ASR-overflow", 857); ("DIEN-overflow", 2328);
  ]

let test_exec_words_do_not_rise () =
  List.iter
    (fun (name, g) ->
      let ctx = Executor.create_context (compile_with "astitch" g) in
      let params = Session.random_params ~seed:5 g in
      ignore (Executor.run_context ctx ~params);
      let before = Gc.minor_words () in
      ignore (Sys.opaque_identity (Executor.run_context ctx ~params));
      let words = Gc.minor_words () -. before in
      let bound = List.assoc name recompute_words in
      check_bool
        (Printf.sprintf "%s: %.0f minor words per run <= %d" name words bound)
        true
        (words <= float_of_int bound))
    (exec_graphs ())

(* A scatter-add whose 64 x 32 updates are a Register broadcast runs
   fused, bit-identical to the interpreter, and reads its updates a
   tile at a time: a run allocates fewer minor words than the scatter
   has update elements, where one boxed float per element took three
   each. *)
let test_scatter_tiles () =
  let module B = Builder in
  let b = B.create () in
  let ids = B.parameter b "ids" [ 64 ] in
  let v = B.parameter b "v" [ 64 ] in
  let upd = B.broadcast b (B.exp b v) ~dims:[ 0 ] [ 64; 32 ] in
  let g = B.finish b ~outputs:[ B.relu b (B.scatter_add b ~rows:16 ids upd) ] in
  let plan = compile_with "astitch" g in
  check_bool "the updates are a Register value" true
    (List.exists
       (fun (kt : Tape.kernel_tape) ->
         kt.fallback = None && List.assoc_opt 3 kt.roles = Some Tape.Inline)
       (Tape.lower plan).kernels
    && Op.mnemonic (Graph.node g 3).op = "broadcast");
  let ctx = Executor.create_context plan in
  check_int "no fallbacks" 0 (List.length (Executor.context_fallbacks ctx));
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let params =
        [
          ( "ids",
            Tensor.create (Shape.of_list [ 64 ])
              (Array.init 64 (fun _ ->
                   float_of_int (Random.State.int rng 20 - 2))) );
          ( "v",
            Tensor.create (Shape.of_list [ 64 ])
              (Array.init 64 (fun _ -> Random.State.float rng 2. -. 1.)) );
        ]
      in
      check_outputs
        (Printf.sprintf "scatter, seed %d" seed)
        (Interp.run g ~params)
        (Executor.run_context ctx ~params);
      let before = Gc.minor_words () in
      ignore (Sys.opaque_identity (Executor.run_context ctx ~params));
      let words = Gc.minor_words () -. before in
      check_bool
        (Printf.sprintf "%.0f minor words per run < 2048 update elements" words)
        true (words < 2048.))
    [ 1; 2 ]

let () =
  Alcotest.run "fused"
    [
      ( "bit-identity",
        [
          Alcotest.test_case "zoo x backends x seeds" `Quick
            test_zoo_bit_identical;
          QCheck_alcotest.to_alcotest test_random_graphs_bit_identical;
        ] );
      ( "tiles",
        [
          QCheck_alcotest.to_alcotest test_fill_matches_get;
          Alcotest.test_case "overflow runs allocate under 64k words" `Quick
            test_overflow_allocation;
          Alcotest.test_case "regional runs allocate under half the words"
            `Quick test_regional_allocation;
          Alcotest.test_case "max/min equal Float.max/min bitwise" `Quick
            test_max_min_exact;
          Alcotest.test_case "max/min writers bitwise" `Quick
            test_max_min_writers;
        ] );
      ( "arena",
        [
          Alcotest.test_case "reuse and exclusivity" `Quick
            test_arena_reuse_and_exclusivity;
          Alcotest.test_case "overlap raises" `Quick
            test_arena_exclusivity_raises;
          QCheck_alcotest.to_alcotest test_arena_random_exclusive;
          Alcotest.test_case "fewer buffers than ops" `Quick
            test_zoo_fewer_buffers_than_ops;
          Alcotest.test_case "fewer bytes than reference" `Quick
            test_zoo_fewer_bytes_than_reference;
        ] );
      ( "shared-memory",
        [
          Alcotest.test_case "fit_shared demotion order" `Quick
            test_fit_shared;
          Alcotest.test_case "irregular block staging" `Quick
            test_irregular_staging;
          Alcotest.test_case "each block staged once per run" `Quick
            test_zoo_stages_each_block_once;
          Alcotest.test_case "tiles load slabs as elements do" `Quick
            test_slab_read_order;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "legal demotion instead of fallback" `Quick
            test_demotes_instead_of_falling_back;
          Alcotest.test_case "illegal demotion falls back with reason" `Quick
            test_illegal_demotion_falls_back;
          Alcotest.test_case "random graphs fuse every kernel" `Quick
            test_random_graphs_fuse_every_kernel;
          Alcotest.test_case "disabled engine" `Quick
            test_disabled_engine_is_all_reference;
          Alcotest.test_case "real plans' rejected kernels" `Quick
            test_rejected_kernels_of_real_plans;
        ] );
      ( "global",
        [
          Alcotest.test_case "overflow shapes fuse globally" `Quick
            test_overflow_shapes_fuse_globally;
          Alcotest.test_case "fewer bytes than kernel-per-op" `Quick
            test_overflow_fewer_bytes_than_per_op;
          QCheck_alcotest.to_alcotest test_random_overflow_bit_identical;
          Alcotest.test_case "demote-vs-split crossover" `Quick
            test_gating_crossover;
        ] );
      ( "holds",
        [
          Alcotest.test_case "exactly the named values held" `Quick
            test_holds_named_values;
          Alcotest.test_case "holds move no other counter" `Quick
            test_holds_move_nothing_else;
          Alcotest.test_case "hold written before a slab refill" `Quick
            test_hold_before_slab_refill;
          Alcotest.test_case "exec runs allocate no more words" `Quick
            test_exec_words_do_not_rise;
          Alcotest.test_case "scatter reads updates in tiles" `Quick
            test_scatter_tiles;
        ] );
    ]
