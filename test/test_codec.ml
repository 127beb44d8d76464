(* Plan codec + plan store:
   - round-trip: decode (encode p) is structurally equal (canonical
     byte equality) and executes bit-identically, for the zoo
     workloads and for random stitched plans - including plans
     compiled on a shared-mem-starved arch, where kernels carry
     Global-scheme ops and demoted tapes;
   - every corruption mode of the on-disk format (truncation, wrong
     magic, version skew, bit flips, trailing garbage, malformed
     payload behind a valid checksum) surfaces as the right structured
     [Codec_error] and never as an escaping exception;
   - the store round-trips plans by fingerprint x arch, rejects
     damaged files, and ignores other-version/other-arch entries. *)

open Astitch_ir
open Astitch_simt
open Astitch_plan
open Astitch_runtime
open Astitch_tensor

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let backend = Astitch_core.Astitch.full_backend

let compile ?(arch = Arch.v100) g = backend.Backend_intf.compile arch g

let same_outputs a b =
  List.length a = List.length b
  && List.for_all2 Tensor.equal_bits a b

(* Round-trip one plan: canonical equality plus bit-identical
   execution of the decoded plan. *)
let roundtrip ~name ?(seed = 3) g plan =
  let bytes = Plan_codec.encode plan in
  match Plan_codec.decode bytes with
  | Error e -> Alcotest.failf "%s: decode failed: %s" name (Plan_codec.error_to_string e)
  | Ok plan' ->
      check (name ^ ": canonical equality") true (Plan_codec.equal plan plan');
      check (name ^ ": re-encode is byte-identical") true
        (String.equal bytes (Plan_codec.encode plan'));
      let params = Session.random_params ~seed g in
      check
        (name ^ ": decoded plan executes bit-identically")
        true
        (same_outputs (Executor.run plan ~params) (Executor.run plan' ~params))

let test_roundtrip_workloads () =
  List.iter
    (fun (e : Astitch_workloads.Zoo.entry) ->
      let g = e.tiny () in
      roundtrip ~name:e.name g (compile g))
    Astitch_workloads.Zoo.all

let test_roundtrip_batched () =
  List.iter
    (fun (e : Astitch_workloads.Zoo.entry) ->
      let g = e.batched ~batch:3 in
      roundtrip ~name:(e.name ^ "-batched") g (compile g))
    Astitch_workloads.Zoo.all

(* Random stitched plans. *)
let prop_roundtrip_random =
  QCheck2.Test.make ~name:"codec round-trips random stitched plans" ~count:40
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g =
        Astitch_workloads.Synthetic.random_graph ~seed ~nodes:30 ()
      in
      let plan = compile g in
      roundtrip ~name:(Printf.sprintf "random-%d" seed) ~seed g plan;
      true)

(* Shared-mem-starved arch: staged rows overflow the budget, so plans
   carry Global-scheme ops, demoted tapes and in-kernel barriers - the
   widest part of the scheme/placement encoding. *)
let tight_smem_arch =
  { Arch.v100 with name = "v100-tight-smem"; shared_mem_per_block = 128 }

let prop_roundtrip_global =
  QCheck2.Test.make
    ~name:"codec round-trips Global-scheme / demoted plans" ~count:25
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g =
        Astitch_workloads.Synthetic.random_graph ~seed
          ~dims_pool:[ 2; 3; 5; 32 ] ~nodes:20 ()
      in
      let plan = compile ~arch:tight_smem_arch g in
      roundtrip ~name:(Printf.sprintf "tight-%d" seed) ~seed g plan;
      true)

let test_global_scheme_covered () =
  (* the tight-smem generator must actually produce what its name
     promises on at least one seed: a kernel with a barrier *)
  let found = ref false in
  let seed = ref 0 in
  while (not !found) && !seed < 40 do
    let g =
      Astitch_workloads.Synthetic.random_graph ~seed:!seed
        ~dims_pool:[ 2; 3; 5; 32 ] ~nodes:20 ()
    in
    let plan = compile ~arch:tight_smem_arch g in
    if
      List.exists
        (fun (k : Kernel_plan.kernel) -> k.barriers > 0)
        plan.Kernel_plan.kernels
    then found := true;
    incr seed
  done;
  check "some tight-smem plan ran a barrier" true !found

(* --- Corruption ----------------------------------------------------------- *)

let sample_plan () =
  let e = List.hd Astitch_workloads.Zoo.all in
  compile (e.tiny ())

let expect name bytes want =
  match Plan_codec.decode bytes with
  | Ok _ -> Alcotest.failf "%s: decoded successfully" name
  | Error e ->
      Alcotest.check
        (Alcotest.testable
           (fun ppf e ->
             Format.pp_print_string ppf (Plan_codec.error_to_string e))
           ( = ))
        name want e

let fnv1a64 s =
  let prime = 0x100000001b3L and offset = 0xcbf29ce484222325L in
  let h = ref offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  !h

let test_corruption_modes () =
  let bytes = Plan_codec.encode (sample_plan ()) in
  let n = String.length bytes in
  expect "empty" "" (Plan_codec.Truncated { want = 4; have = 0 });
  expect "short prefix" (String.sub bytes 0 3)
    (Plan_codec.Truncated { want = 4; have = 3 });
  expect "bad magic"
    ("XXXX" ^ String.sub bytes 4 (n - 4))
    Plan_codec.Bad_magic;
  expect "header only" (String.sub bytes 0 12)
    (Plan_codec.Truncated { want = 20; have = 12 });
  (let b = Bytes.of_string bytes in
   Bytes.set_int64_le b 4 99L;
   expect "version skew" (Bytes.to_string b)
     (Plan_codec.Unsupported_version 99));
  expect "truncated payload"
    (String.sub bytes 0 (n - 9))
    (Plan_codec.Truncated { want = n; have = n - 9 });
  (let b = Bytes.of_string bytes in
   Bytes.set b 24 (Char.chr (Char.code (Bytes.get b 24) lxor 0x40));
   expect "flipped payload bit" (Bytes.to_string b)
     Plan_codec.Checksum_mismatch);
  (match Plan_codec.decode (bytes ^ "garbage") with
  | Error (Plan_codec.Malformed _) -> ()
  | Error e ->
      Alcotest.failf "trailing garbage: wrong error %s"
        (Plan_codec.error_to_string e)
  | Ok _ -> Alcotest.fail "trailing garbage decoded");
  (* a well-checksummed but structurally bogus payload must be
     Malformed, proving the parser itself is bounded *)
  let bogus =
    let payload = "\xff" in
    let b = Buffer.create 32 in
    Buffer.add_string b "ASPK";
    Buffer.add_int64_le b (Int64.of_int Plan_codec.version);
    Buffer.add_int64_le b (Int64.of_int (String.length payload));
    Buffer.add_string b payload;
    Buffer.add_int64_le b (fnv1a64 payload);
    Buffer.contents b
  in
  (match Plan_codec.decode bogus with
  | Error (Plan_codec.Malformed _) -> ()
  | Error e ->
      Alcotest.failf "bogus payload: wrong error %s"
        (Plan_codec.error_to_string e)
  | Ok _ -> Alcotest.fail "bogus payload decoded")

let test_decode_exn_raises_codec_error () =
  (match Plan_codec.decode_exn "not a plan" with
  | _ -> Alcotest.fail "decode_exn succeeded on garbage"
  | exception Plan_codec.Codec_error Plan_codec.Bad_magic -> ()
  | exception e ->
      Alcotest.failf "decode_exn escaped with %s" (Printexc.to_string e));
  match Plan_codec.decode_exn "" with
  | _ -> Alcotest.fail "decode_exn succeeded on empty"
  | exception Plan_codec.Codec_error (Plan_codec.Truncated _) -> ()
  | exception e ->
      Alcotest.failf "decode_exn escaped with %s" (Printexc.to_string e)

(* decode never raises, whatever the bytes *)
let prop_decode_total =
  QCheck2.Test.make ~name:"decode is total on arbitrary bytes" ~count:200
    QCheck2.Gen.(string_size ~gen:char (int_range 0 200))
    (fun s ->
      match Plan_codec.decode s with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck2.Test.fail_reportf "decode raised %s on %S"
            (Printexc.to_string e) s)

(* prefixes/mutations of a real encoding: the adversarial half of
   totality, where length fields and checksums almost line up *)
let prop_decode_total_near_valid =
  QCheck2.Test.make ~name:"decode is total near valid encodings" ~count:200
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 0 1_000))
    (fun (cut, flip) ->
      let bytes = Plan_codec.encode (sample_plan ()) in
      let n = String.length bytes in
      let b = Bytes.of_string (String.sub bytes 0 (min (cut mod (n + 1)) n)) in
      if Bytes.length b > 0 then begin
        let i = flip mod Bytes.length b in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff))
      end;
      match Plan_codec.decode (Bytes.to_string b) with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck2.Test.fail_reportf "decode raised %s" (Printexc.to_string e))

(* --- The shared op format ------------------------------------------------- *)

(* Every constructor with its attributes, every kind and every dtype. *)
let every_op : Op.t list =
  let open Op in
  [
    Parameter { name = "x y\000" };
    Constant { value = 1. /. 3. };
    Constant { value = -0. };
    Constant { value = Float.nan };
    Iota { axis = 2 };
    Broadcast { input = 3; dims = [| 0; 2 |] };
    Reshape { input = 4 };
    Transpose { input = 5; perm = [| 2; 0; 1 |] };
    Select { pred = 6; on_true = 7; on_false = 8 };
    Concat { inputs = [ 9; 10; 11 ]; axis = 1 };
    Slice { input = 12; starts = [| 0; 1 |]; stops = [| 2; 3 |] };
    Pad { input = 13; low = [| 1; 0 |]; high = [| 0; 2 |] };
    Gather { params = 14; indices = 15 };
    Scatter_add { indices = 16; updates = 17; rows = 9 };
    Max_pool { input = 18; window = 3; stride = 2 };
    Dot { lhs = 19; rhs = 20 };
    Conv2d { input = 21; filter = 22; stride = 2 };
  ]
  @ List.map (fun kind -> Unary { kind; input = 1 }) (Array.to_list Op_format.unary_kinds)
  @ List.map (fun kind -> Binary { kind; lhs = 1; rhs = 2 }) (Array.to_list Op_format.binary_kinds)
  @ List.map
      (fun kind -> Reduce { input = 1; kind; axes = [| 1; 2 |] })
      (Array.to_list Op_format.reduce_kinds)

let test_every_op_roundtrips () =
  List.iter
    (fun op ->
      let b = Buffer.create 64 in
      Op_format.write_op b ~operand:Op_format.w_i op;
      let bytes = Buffer.contents b in
      let r = Op_format.reader bytes ~pos:0 ~limit:(String.length bytes) in
      let op' = Op_format.read_op r in
      check (Op.mnemonic op ^ " round-trips") true (compare op op' = 0);
      check_int (Op.mnemonic op ^ " reads every byte") (String.length bytes) (Op_format.pos r))
    every_op

let test_every_dtype_roundtrips () =
  Array.iter
    (fun dtype ->
      let bld = Builder.create () in
      let x = Builder.parameter bld ~dtype "x" [ 2; 3 ] in
      let g = Builder.finish bld ~outputs:[ Builder.neg bld x ] in
      let b = Buffer.create 64 in
      Op_format.write_graph b g;
      let bytes = Buffer.contents b in
      let g' = Op_format.read_graph (Op_format.reader bytes ~pos:0 ~limit:(String.length bytes)) in
      check (Dtype.to_string dtype ^ " round-trips") true (Graph.dtype g' x = dtype))
    Op_format.dtypes

(* Overwrite bytes of the graph section of a real encoding and fix the
   checksum, so only the rewritten field is wrong. *)
let with_graph_bytes plan ~offset patch =
  let bytes = Plan_codec.encode plan in
  let graph =
    let b = Buffer.create 256 in
    Op_format.write_graph b plan.Kernel_plan.graph;
    Buffer.contents b
  in
  let rec find i =
    if String.sub bytes i (String.length graph) = graph then i else find (i + 1)
  in
  let b = Bytes.of_string bytes in
  Bytes.blit_string patch 0 b (find 20 + offset) (String.length patch);
  let plen = Bytes.length b - 28 in
  Bytes.set_int64_le b (20 + plen) (fnv1a64 (Bytes.sub_string b 20 plen));
  Bytes.to_string b

let tag_plan () =
  let bld = Builder.create () in
  let x = Builder.parameter bld "x" [ 4 ] in
  compile (Builder.finish bld ~outputs:[ Builder.exp bld x ])

(* [decode]'s message, once [decode_exn] raised the same error *)
let expect_malformed what bytes =
  (match Plan_codec.decode_exn bytes with
  | _ -> Alcotest.failf "%s: decode_exn succeeded" what
  | exception Plan_codec.Codec_error (Plan_codec.Malformed _) -> ());
  match Plan_codec.decode bytes with
  | Error (Plan_codec.Malformed m) -> m
  | Error e -> Alcotest.failf "%s: wrong error %s" what (Plan_codec.error_to_string e)
  | Ok _ -> Alcotest.failf "%s: decoded" what

let test_unknown_tags_malformed () =
  let plan = tag_plan () in
  (* node 0: count word, op tag, name, rank word, one dim, dtype tag *)
  let dtype_offset = 8 + 1 + 8 + 1 + 8 + 8 in
  List.iter
    (fun (what, offset, byte) ->
      let m = expect_malformed what (with_graph_bytes plan ~offset (String.make 1 (Char.chr byte))) in
      Alcotest.(check string) what (Printf.sprintf "%s %d" what byte) m)
    [ ("op tag", 8, 0xff); ("dtype tag", dtype_offset, 9); ("unary kind tag", dtype_offset + 2, 12) ]

(* A length word near [max_int] must not wrap the reader's bounds
   check: the parameter's name claims max_int - 100 bytes. *)
let test_lying_length_malformed () =
  let word = Bytes.create 8 in
  Bytes.set_int64_le word 0 (Int64.of_int (max_int - 100));
  ignore
    (expect_malformed "name length"
       (with_graph_bytes (tag_plan ()) ~offset:9 (Bytes.to_string word)))

(* --- Plan store ------------------------------------------------------------ *)

let with_store f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "astitch-test-store-%d-%d" (Unix.getpid ())
         (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun f ->
             try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
           (Sys.readdir dir);
         Unix.rmdir dir
       with Sys_error _ | Unix.Unix_error _ -> ()))
    (fun () -> f (Plan_store.open_ ~dir))

let test_store_roundtrip () =
  with_store (fun store ->
      let e = List.hd Astitch_workloads.Zoo.all in
      let g = e.tiny () in
      let plan = compile g in
      let fingerprint = Fingerprint.of_graph g in
      (match Plan_store.save store ~fingerprint ~arch:"v100" plan with
      | Ok () -> ()
      | Error m -> Alcotest.failf "save failed: %s" m);
      check_int "one file listed" 1 (List.length (Plan_store.list store));
      (match Plan_store.load store ~fingerprint ~arch:"v100" with
      | Plan_store.Loaded plan' ->
          check "loaded equals saved" true (Plan_codec.equal plan plan')
      | Plan_store.Absent -> Alcotest.fail "saved plan absent"
      | Plan_store.Rejected m -> Alcotest.failf "saved plan rejected: %s" m);
      (match Plan_store.load store ~fingerprint ~arch:"a100" with
      | Plan_store.Absent -> ()
      | _ -> Alcotest.fail "other-arch key hit");
      match Plan_store.load store ~fingerprint:"nope" ~arch:"v100" with
      | Plan_store.Absent -> ()
      | _ -> Alcotest.fail "other-fingerprint key hit")

let test_store_rejects_damage () =
  with_store (fun store ->
      let e = List.hd Astitch_workloads.Zoo.all in
      let g = e.tiny () in
      let plan = compile g in
      let fingerprint = Fingerprint.of_graph g in
      (match Plan_store.save store ~fingerprint ~arch:"v100" plan with
      | Ok () -> ()
      | Error m -> Alcotest.failf "save failed: %s" m);
      let path =
        Filename.concat (Plan_store.dir store)
          (Plan_store.filename ~fingerprint ~arch:"v100")
      in
      (* truncate the file mid-payload *)
      let bytes =
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      let oc = open_out_bin path in
      output_string oc (String.sub bytes 0 (String.length bytes / 2));
      close_out oc;
      (match Plan_store.load store ~fingerprint ~arch:"v100" with
      | Plan_store.Rejected _ -> ()
      | Plan_store.Loaded _ -> Alcotest.fail "loaded a truncated file"
      | Plan_store.Absent -> Alcotest.fail "truncated file reported absent");
      (* overwrite with garbage that is not a plan at all *)
      let oc = open_out_bin path in
      output_string oc "this is not a kernel plan";
      close_out oc;
      match Plan_store.load store ~fingerprint ~arch:"v100" with
      | Plan_store.Rejected _ -> ()
      | Plan_store.Loaded _ -> Alcotest.fail "loaded garbage"
      | Plan_store.Absent -> Alcotest.fail "garbage reported absent")

let test_store_save_is_atomic_per_plan () =
  with_store (fun store ->
      (* saving over an existing file replaces it wholesale *)
      let e = List.hd Astitch_workloads.Zoo.all in
      let g = e.tiny () in
      let plan = compile g in
      let fingerprint = Fingerprint.of_graph g in
      (match Plan_store.save store ~fingerprint ~arch:"v100" plan with
      | Ok () -> ()
      | Error m -> Alcotest.failf "first save failed: %s" m);
      (match Plan_store.save store ~fingerprint ~arch:"v100" plan with
      | Ok () -> ()
      | Error m -> Alcotest.failf "second save failed: %s" m);
      check_int "still one file" 1 (List.length (Plan_store.list store));
      (* no temp files left behind *)
      check "no stray temp files" true
        (List.for_all
           (fun f -> Filename.check_suffix f ".plan")
           (Array.to_list (Sys.readdir (Plan_store.dir store)))))

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "codec"
    [
      ( "round-trip",
        [
          Alcotest.test_case "zoo workload plans" `Quick
            test_roundtrip_workloads;
          Alcotest.test_case "batched zoo plans" `Quick test_roundtrip_batched;
          Alcotest.test_case "tight-smem plans exercise barriers" `Quick
            test_global_scheme_covered;
        ]
        @ qsuite [ prop_roundtrip_random; prop_roundtrip_global ] );
      ( "corruption",
        [
          Alcotest.test_case "every mode is a structured error" `Quick
            test_corruption_modes;
          Alcotest.test_case "decode_exn raises Codec_error only" `Quick
            test_decode_exn_raises_codec_error;
        ]
        @ qsuite [ prop_decode_total; prop_decode_total_near_valid ] );
      ( "op format",
        [
          Alcotest.test_case "every op round-trips" `Quick test_every_op_roundtrips;
          Alcotest.test_case "every dtype round-trips" `Quick test_every_dtype_roundtrips;
          Alcotest.test_case "unknown tags are Malformed" `Quick test_unknown_tags_malformed;
          Alcotest.test_case "a lying length is Malformed" `Quick test_lying_length_malformed;
        ] );
      ( "store",
        [
          Alcotest.test_case "save/load round-trip by key" `Quick
            test_store_roundtrip;
          Alcotest.test_case "damaged files rejected, never raised" `Quick
            test_store_rejects_damage;
          Alcotest.test_case "atomic overwrite, no temp litter" `Quick
            test_store_save_is_atomic_per_plan;
        ] );
    ]
