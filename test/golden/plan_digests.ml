(* Plan-digest golden: one row per (config, graph), the MD5 of the plan's
   canonical encoding and of its degradation report, or of the compile
   error.  Any change to what the compiler emits moves a row, so
   [dune runtest] diffs this output against plan_digests.expected;
   [dune promote] accepts an intended change.

   Graphs: every zoo model's inference, training, tiny, tiny-training,
   batch-1 and batch-8 graphs, both shared-memory-overflow shapes, and
   [synthetic] seeded random graphs.  Configs: full, HDM and ATM on a
   V100, and full on a V100 whose blocks get 128 B of shared memory (the
   Global-scheme path).  Fault rows arm each compile site in raise and
   corrupt mode around a full/V100 compile of the zoo graphs and the
   first [faulted_synthetic] random graphs. *)

open Astitch_simt
open Astitch_plan
module Config = Astitch_core.Config
module Degradation = Astitch_core.Degradation
module Fallback = Astitch_core.Fallback
module Zoo = Astitch_workloads.Zoo
module Synthetic = Astitch_workloads.Synthetic

let synthetic = 200
let faulted_synthetic = 20
let md5 s = Digest.to_hex (Digest.string s)

let zoo_graphs =
  List.concat_map
    (fun (e : Zoo.entry) ->
      let opt suffix = function
        | Some f -> [ (e.name ^ suffix, f) ]
        | None -> []
      in
      [ (e.name, e.inference) ]
      @ opt "-train" e.training
      @ [ (e.name ^ "-tiny", e.tiny) ]
      @ opt "-tiny-train" e.tiny_training
      @ [
          (e.name ^ "-b1", fun () -> e.batched ~batch:1);
          (e.name ^ "-b8", fun () -> e.batched ~batch:8);
        ])
    Zoo.all
  @ [
      ("ASR-overflow", Astitch_workloads.Asr.overflow);
      ("DIEN-overflow", Astitch_workloads.Dien.overflow);
    ]

let synthetic_graph seed () =
  Synthetic.random_graph ~seed ~nodes:(10 + (seed * 7 mod 60)) ()

let synthetic_graphs n =
  List.init n (fun seed -> (Printf.sprintf "synthetic-%d" seed, synthetic_graph seed))

let configs =
  let tight = { Arch.v100 with Arch.shared_mem_per_block = 128 } in
  [
    ("full", Config.full, Arch.v100);
    ("hdm", Config.no_dominant_merging, Arch.v100);
    ("atm", Config.atm_only, Arch.v100);
    ("full-smem128", Config.full, tight);
  ]

let row label name config arch g =
  match Fallback.compile config arch g with
  | Ok (plan, report) ->
      Printf.printf "%s %s plan=%s report=%s\n" label name
        (md5 (Plan_codec.encode plan))
        (md5 (Degradation.to_string report))
  | Error e -> Printf.printf "%s %s error=%s\n" label name (md5 (Compile_error.to_string e))

let () =
  let graphs =
    List.map (fun (name, build) -> (name, build ())) (zoo_graphs @ synthetic_graphs synthetic)
  in
  List.iter
    (fun (label, config, arch) -> List.iter (fun (name, g) -> row label name config arch g) graphs)
    configs;
  let faulted = List.filteri (fun i _ -> i < List.length zoo_graphs + faulted_synthetic) graphs in
  List.iter
    (fun site ->
      List.iter
        (fun mode ->
          List.iteri
            (fun seed (name, g) ->
              let fault = Fault_site.plan ~mode ~seed ~fuel:(1 + (seed mod 3)) site in
              Fault_site.with_faults [ fault ] (fun () ->
                  row ("fault:" ^ Fault_site.plan_to_string fault) name Config.full Arch.v100 g))
            faulted)
        [ Fault_site.Raise; Fault_site.Corrupt ])
    Fault_site.all_sites
