(* The serving fast path: canonical fingerprints, compile counting,
   reusable execution contexts, and parallel cluster compilation.

   The load-bearing claims, each tested directly:
   - fingerprints are invariant under node renumbering/dead code and
     sensitive to semantic changes (plan-store key soundness);
   - [session.compiles] counts every compile;
   - run_context is bit-identical to a fresh Executor.run;
   - parallel cluster compilation is byte-identical to sequential on
     every zoo workload and on random graphs. *)

open Astitch_ir
open Astitch_tensor
open Astitch_simt
open Astitch_plan
open Astitch_runtime

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- Graph fixtures ----------------------------------------------------- *)

(* softmax(x) + y, built straightforwardly *)
let serving_graph () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 4; 8 ] in
  let y = Builder.parameter b "y" [ 4; 8 ] in
  Builder.finish b ~outputs:[ Builder.add b (Builder.softmax b x) y ]

(* the same computation with dead nodes interleaved: ids shift, live
   structure is identical *)
let serving_graph_with_dead () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 4; 8 ] in
  let _dead1 = Builder.exp b x in
  let y = Builder.parameter b "y" [ 4; 8 ] in
  let _dead2 = Builder.mul b x x in
  Builder.finish b ~outputs:[ Builder.add b (Builder.softmax b x) y ]

(* one changed op kind: must fingerprint differently *)
let serving_graph_sub () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 4; 8 ] in
  let y = Builder.parameter b "y" [ 4; 8 ] in
  Builder.finish b ~outputs:[ Builder.sub b (Builder.softmax b x) y ]

(* --- Fingerprint -------------------------------------------------------- *)

let test_fingerprint_stable () =
  let g = serving_graph () in
  check_string "same graph, same fingerprint" (Fingerprint.of_graph g)
    (Fingerprint.of_graph (serving_graph ()))

let test_fingerprint_dead_code_invariant () =
  check_string "dead nodes do not change the fingerprint"
    (Fingerprint.of_graph (serving_graph ()))
    (Fingerprint.of_graph (serving_graph_with_dead ()))

let test_fingerprint_sensitive () =
  check_bool "changing one op kind changes the fingerprint" false
    (String.equal
       (Fingerprint.of_graph (serving_graph ()))
       (Fingerprint.of_graph (serving_graph_sub ())));
  (* shape changes too *)
  let shaped dims =
    let b = Builder.create () in
    let x = Builder.parameter b "x" dims in
    Builder.finish b ~outputs:[ Builder.relu b x ]
  in
  check_bool "changing a shape changes the fingerprint" false
    (String.equal
       (Fingerprint.of_graph (shaped [ 4; 8 ]))
       (Fingerprint.of_graph (shaped [ 8; 4 ])));
  (* parameter names are semantic (they key the bindings) *)
  let named n =
    let b = Builder.create () in
    let x = Builder.parameter b n [ 4 ] in
    Builder.finish b ~outputs:[ Builder.relu b x ]
  in
  check_bool "renaming a parameter changes the fingerprint" false
    (String.equal
       (Fingerprint.of_graph (named "x"))
       (Fingerprint.of_graph (named "weights")))

let test_fingerprint_output_order () =
  let two_outputs flip =
    let b = Builder.create () in
    let x = Builder.parameter b "x" [ 4 ] in
    let a = Builder.relu b x and c = Builder.exp b x in
    Builder.finish b ~outputs:(if flip then [ c; a ] else [ a; c ])
  in
  check_bool "output order is semantic" false
    (String.equal
       (Fingerprint.of_graph (two_outputs false))
       (Fingerprint.of_graph (two_outputs true)))

(* Bits the text form would round away still key the graph. *)
let test_fingerprint_bits () =
  let third = 1. /. 3. in
  let scaled c =
    let b = Builder.create () in
    let x = Builder.parameter b "x" [ 4 ] in
    Builder.finish b ~outputs:[ Builder.mul b x (Builder.constant b ~dims:[ 4 ] c) ]
  in
  check_bool "a constant's last mantissa bit changes the fingerprint" false
    (String.equal
       (Fingerprint.of_graph (scaled third))
       (Fingerprint.of_graph
          (scaled (Int64.float_of_bits (Int64.logxor (Int64.bits_of_float third) 1L)))));
  let typed dtype =
    let b = Builder.create () in
    let x = Builder.parameter b ~dtype "x" [ 4 ] in
    Builder.finish b ~outputs:[ Builder.relu b x ]
  in
  check_bool "changing a dtype changes the fingerprint" false
    (String.equal
       (Fingerprint.of_graph (typed Dtype.F32))
       (Fingerprint.of_graph (typed Dtype.F16)))

(* The fingerprint is the digest of the live graph in the plan codec's
   own graph format: dead code and a trip through a stored plan leave
   it as it was. *)
let prop_fingerprint_survives_dce_and_codec =
  QCheck2.Test.make ~name:"fingerprint = dce's = decoded plan graph's" ~count:40
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 10 70))
    (fun (seed, nodes) ->
      let g = Astitch_workloads.Synthetic.random_graph ~seed ~nodes () in
      let fp = Fingerprint.of_graph g in
      let decoded =
        Plan_codec.decode_exn
          (Plan_codec.encode (Astitch_core.Astitch.full_backend.compile Arch.v100 g))
      in
      String.equal fp (Fingerprint.of_graph (Simplify.dce g))
      && String.equal fp (Fingerprint.of_graph decoded.Kernel_plan.graph))

(* --- Compile counting ------------------------------------------------ *)

(* [session.compiles] counts each compile where it happens - what
   [serve --expect-warm] reads before and after traffic. *)
let test_session_compiles_counted () =
  let compiles () =
    Astitch_obs.Metrics.(value (counter default "session.compiles"))
  in
  let b = Astitch_core.Astitch.full_backend and g = serving_graph () in
  let c0 = compiles () in
  ignore (Session.compile b Arch.v100 g);
  check_int "Session.compile counts one" (c0 + 1) (compiles ());
  ignore (Session.compile_resilient Arch.v100 g);
  check_int "Session.compile_resilient counts one" (c0 + 2) (compiles ())

(* --- Execution contexts ------------------------------------------------- *)

let context_workloads () =
  [ ("serving", serving_graph ()) ]
  @ List.map
      (fun (e : Astitch_workloads.Zoo.entry) -> (e.name, e.tiny ()))
      Astitch_workloads.Zoo.all

let test_context_bit_identical () =
  List.iter
    (fun (name, g) ->
      let plan = Astitch_core.Astitch.compile Arch.v100 g in
      let ctx = Executor.create_context plan in
      (* several rounds with different params: buffer reuse must never
         leak one run's values into the next *)
      List.iter
        (fun seed ->
          let params = Session.random_params ~seed g in
          let fresh = Executor.run plan ~params in
          let reused = Executor.run_context ctx ~params in
          List.iteri
            (fun i (a, b) ->
              if not (Tensor.equal_bits a b) then
                Alcotest.failf
                  "%s (seed %d) output %d: context diverges from run by %g"
                  name seed i (Tensor.max_abs_diff a b))
            (List.combine fresh reused))
        [ 1; 7; 1902 ])
    (context_workloads ())

let test_context_across_backends () =
  let g = serving_graph () in
  let params = Session.random_params g in
  List.iter
    (fun (b : Backend_intf.t) ->
      let plan = b.compile Arch.v100 g in
      let ctx = Executor.create_context plan in
      let fresh = Executor.run plan ~params in
      let reused = Executor.run_context ctx ~params in
      List.iter2
        (fun a b' ->
          check_bool
            (Printf.sprintf "%s context bit-identical" b.name)
            true
            (Tensor.equal_bits a b'))
        fresh reused)
    [
      Astitch_backends.Tf_backend.backend;
      Astitch_backends.Xla_backend.backend;
      Astitch_core.Astitch.full_backend;
    ]

let test_context_missing_param () =
  let g = serving_graph () in
  let plan = Astitch_core.Astitch.compile Arch.v100 g in
  let ctx = Executor.create_context plan in
  let params = Session.random_params g in
  (* dropping a binding raises the interpreter's error, as run does *)
  match Executor.run_context ctx ~params:(List.tl params) with
  | _ -> Alcotest.fail "expected Missing_parameter"
  | exception Interp.Missing_parameter _ -> ()

(* --- Parallel compilation ----------------------------------------------- *)

let marshal_plan (p : Kernel_plan.t) = Marshal.to_string p []

let parallel_config domains =
  { Astitch_core.Config.full with compile_domains = domains }

let test_parallel_equals_sequential_zoo () =
  List.iter
    (fun (e : Astitch_workloads.Zoo.entry) ->
      let g = e.tiny () in
      let seq =
        Astitch_core.Astitch.compile ~config:(parallel_config 1) Arch.v100 g
      in
      let par =
        Astitch_core.Astitch.compile ~config:(parallel_config 4) Arch.v100 g
      in
      check_bool (e.name ^ ": parallel plan byte-identical") true
        (String.equal (marshal_plan seq) (marshal_plan par)))
    Astitch_workloads.Zoo.all

let test_parallel_equals_sequential_resilient () =
  List.iter
    (fun (e : Astitch_workloads.Zoo.entry) ->
      let g = e.tiny () in
      let compile domains =
        match
          Session.compile_resilient ~config:(parallel_config domains)
            Arch.v100 g
        with
        | Ok r -> (marshal_plan r.Session.result.plan, r.Session.report)
        | Error e -> Alcotest.failf "resilient compile failed: %s"
                       (Compile_error.to_string e)
      in
      let plan_seq, report_seq = compile 1 in
      let plan_par, report_par = compile 4 in
      check_bool (e.name ^ ": resilient parallel byte-identical") true
        (String.equal plan_seq plan_par);
      check_int (e.name ^ ": same degradation events")
        (List.length report_seq) (List.length report_par))
    Astitch_workloads.Zoo.all

let test_parallel_equals_sequential_random =
  QCheck.Test.make ~count:30 ~name:"parallel compile == sequential (random)"
    QCheck.(make Gen.(int_bound 100_000))
    (fun seed ->
      let g = Astitch_workloads.Synthetic.random_graph ~seed ~nodes:24 () in
      let compile domains =
        match
          Astitch_core.Astitch.compile ~config:(parallel_config domains)
            Arch.v100 g
        with
        | p -> Ok (marshal_plan p)
        | exception Compile_error.Error e -> Error (Compile_error.to_string e)
      in
      compile 1 = compile 3)

let test_parallel_map_exception_order () =
  (* lowest failing index wins, as in a sequential left-to-right map *)
  match
    Astitch_core.Parallel.mapi ~domains:4
      (fun i () -> if i >= 2 then failwith (string_of_int i) else i)
      [ (); (); (); (); () ]
  with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure m -> check_string "first failure surfaced" "2" m

let () =
  Alcotest.run "serving"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "stable across constructions" `Quick
            test_fingerprint_stable;
          Alcotest.test_case "dead-code invariant" `Quick
            test_fingerprint_dead_code_invariant;
          Alcotest.test_case "semantically sensitive" `Quick
            test_fingerprint_sensitive;
          Alcotest.test_case "output order sensitive" `Quick
            test_fingerprint_output_order;
          Alcotest.test_case "constant bits and dtypes" `Quick
            test_fingerprint_bits;
          QCheck_alcotest.to_alcotest prop_fingerprint_survives_dce_and_codec;
        ] );
      ( "cache",
        [
          Alcotest.test_case "session.compiles counts compiles" `Quick
            test_session_compiles_counted;
        ] );
      ( "context",
        [
          Alcotest.test_case "bit-identical to run (zoo)" `Quick
            test_context_bit_identical;
          Alcotest.test_case "bit-identical across backends" `Quick
            test_context_across_backends;
          Alcotest.test_case "missing parameter raises" `Quick
            test_context_missing_param;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "zoo plans byte-identical" `Quick
            test_parallel_equals_sequential_zoo;
          Alcotest.test_case "resilient plans byte-identical" `Quick
            test_parallel_equals_sequential_resilient;
          QCheck_alcotest.to_alcotest test_parallel_equals_sequential_random;
          Alcotest.test_case "exception order deterministic" `Quick
            test_parallel_map_exception_order;
        ] );
    ]
