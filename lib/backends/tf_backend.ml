(* The TensorFlow baseline: no fusion at all.

   Every memory-intensive op runs as its own kernel dispatched by the
   framework executor, which also pays a per-op scheduling cost (the
   OVERHEAD component of Figure 13 that dominates TF runs). *)

open Astitch_ir
open Astitch_simt
open Astitch_plan

let cost_config =
  {
    Cost_model.default_config with
    Cost_model.framework_op_overhead_us = 10.0;
  }

let compile (arch : Arch.t) g =
  let mem_kernels =
    Graph.memory_intensive_ids g
    |> List.filter (fun id ->
           Graph.is_live g id && not (Kernel_plan.is_leaf g id))
    |> List.map (fun id ->
           if Fusion_common.is_layout_only g id then
             Fusion_common.copy_kernel g id
           else begin
             let mapping = Fusion_common.naive_mapping arch g id in
             let launch =
               Launch.make ~regs_per_thread:24
                 ~grid:(Thread_mapping.grid mapping)
                 ~block:(Thread_mapping.block mapping)
                 ()
             in
             {
               Kernel_plan.name =
                 Printf.sprintf "%s_%d" (Op.mnemonic (Graph.op g id)) id;
               kind = Kernel_plan.Codegen;
               ops =
                 [
                   Lowering.compiled_op ~scheme:Scheme.Independent
                     ~placement:Kernel_plan.Device_mem ~mapping id;
                 ];
               launch;
               barriers = 0;
               scratch_bytes = 0;
             }
           end)
  in
  let plan = Lowering.assemble arch g mem_kernels in
  Kernel_plan.check plan;
  plan

let backend =
  { Backend_intf.name = "TensorFlow"; cost_config; compile }
