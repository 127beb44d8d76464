(* Public entry points of the AStitch compiler. *)

open Astitch_simt
open Astitch_plan

let cost_config =
  {
    Cost_model.default_config with
    Cost_model.framework_op_overhead_us = 1.5;
  }

(* The compile driver refusing to degrade: a full-strength plan, or the
   structured error that made the first scope step down. *)
let compile ?(config = Config.full) arch g =
  match Fallback.compile config arch g with
  | Ok (plan, []) -> plan
  | Ok (_, first :: _) -> raise (Compile_error.Error first.Degradation.error)
  | Error e -> raise (Compile_error.Error e)

(* Backends are named by the config's cache key, so configs that compile
   the same plans share a name and configs that differ never do; the
   three Table 4 configs keep their names. *)
let backend ?(config = Config.full) () =
  let key = Config.cache_key config in
  let is c = String.equal key (Config.cache_key c) in
  {
    Backend_intf.name =
      (if is Config.full then "AStitch"
       else if is Config.atm_only then "ATM"
       else if is Config.no_dominant_merging then "HDM"
       else "AStitch{" ^ key ^ "}");
    cost_config;
    compile = (fun arch g -> compile ~config arch g);
  }

(* The Table 4 ablation ladder. *)
let full_backend = backend ()
let atm_backend = backend ~config:Config.atm_only ()
let hdm_backend = backend ~config:Config.no_dominant_merging ()
