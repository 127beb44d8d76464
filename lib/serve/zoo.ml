(* Multi-tenant model-zoo serving: a Serve plus a plan store.

   Serve and its scheduler already batch, dispatch by SLO class,
   supervise and count outcomes per class; the zoo adds the registration
   of each model with its class, and the persistent plan store that
   prewarm loads from and saves to.  Prewarm is the store's only writer:
   it saves each plan it compiles, so shutdown has nothing to persist.
   Traffic compiles nothing either: each model keeps the plan prewarm
   handed it through any fault, and the fallback rung interprets.

   Prewarm ordering matters: each plan is loaded-or-compiled and handed
   to its model ([Serve.set_plan]) BEFORE Serve.warm builds executor
   contexts from it, and all of it happens before the first submit is
   legal, so no request ever races a cold compile.  On a warm store
   that leaves [session.compiles] where prewarm left it for the whole
   of traffic - the property the CI smoke test pins. *)

open Astitch_ir
open Astitch_runtime

let backend = Astitch_core.Astitch.full_backend

type config = {
  serve : Serve.config;
  plan_dir : string option;
  verify_plans : bool;
}

let default_config =
  { serve = Serve.default_config; plan_dir = None; verify_plans = false }

type prewarm = {
  loaded : int;
  compiled : int;
  verified : int;
  rejected : int;
  saved : int;
}

type t = {
  config : config;
  serve : Serve.t;
  names : string list;  (** registration order *)
  store : Plan_store.t option;
  mutable prewarmed : prewarm option;
}

let create ?(config = default_config) registrations =
  (* The store opens first: a bad [plan_dir] must fail before the
     server spawns its domains. *)
  let store = Option.map (fun dir -> Plan_store.open_ ~dir) config.plan_dir in
  let slos =
    List.map (fun ((m : Serve.model), slo) -> (m.name, slo)) registrations
  in
  let serve =
    Serve.create ~config:{ config.serve with slos } (List.map fst registrations)
  in
  { config; serve; names = List.map fst slos; store; prewarmed = None }

let server t = t.serve

(* --- Prewarm ------------------------------------------------------------- *)

(* A store file names its (fingerprint, arch), but the bytes inside are
   what we trust least: before serving a loaded plan, its graph must
   re-fingerprint to the requested key, its arch must match, and the
   plan must satisfy every structural invariant.  The optional
   bit-identity gate on top compares canonical encodings against a
   fresh compile - the strongest check, at the price of the compile the
   store was meant to save. *)
let structurally_ok ~fingerprint ~arch plan =
  Fingerprint.of_graph plan.Astitch_plan.Kernel_plan.graph = fingerprint
  && plan.Astitch_plan.Kernel_plan.arch.Astitch_simt.Arch.name = arch
  && Astitch_plan.Kernel_plan.check_all plan = []

let prewarm t =
  match t.prewarmed with
  | Some p -> p
  | None ->
      let arch = t.config.serve.Serve.arch in
      let loaded = ref 0
      and compiled = ref 0
      and verified = ref 0
      and rejected = ref 0
      and saved = ref 0 in
      let compile g =
        incr compiled;
        (Session.compile backend arch g).Session.plan
      in
      let compile_and_save store g ~fingerprint =
        let plan = compile g in
        (match Plan_store.save store ~fingerprint ~arch:arch.name plan with
        | Ok () -> incr saved
        | Error _ -> ());
        plan
      in
      (* the plan every context of the model will be built from *)
      let plan_for (spec : Batching.spec) =
        let g = spec.build spec.batch.Batch_axis.max_batch in
        match t.store with
        | None -> compile g
        | Some store -> (
            let fingerprint = Fingerprint.of_graph g in
            match Plan_store.load store ~fingerprint ~arch:arch.name with
            | Plan_store.Absent -> compile_and_save store g ~fingerprint
            | Plan_store.Rejected _ ->
                incr rejected;
                compile_and_save store g ~fingerprint
            | Plan_store.Loaded plan ->
                if not (structurally_ok ~fingerprint ~arch:arch.name plan)
                then begin
                  incr rejected;
                  compile_and_save store g ~fingerprint
                end
                else if t.config.verify_plans then begin
                  (* Bit-identity gate: the freshly compiled plan is
                     the reference and the one served; a loaded plan
                     that doesn't encode identically is discarded and
                     the fresh one re-saved. *)
                  let fresh = compile g in
                  if Astitch_plan.Plan_codec.equal plan fresh then
                    incr verified
                  else begin
                    incr rejected;
                    ignore
                      (Plan_store.save store ~fingerprint ~arch:arch.name
                         fresh)
                  end;
                  fresh
                end
                else begin
                  incr loaded;
                  plan
                end)
      in
      List.iter
        (fun model ->
          Serve.set_plan t.serve ~model (plan_for (Serve.spec t.serve ~model)))
        t.names;
      Serve.warm t.serve;
      let p =
        {
          loaded = !loaded;
          compiled = !compiled;
          verified = !verified;
          rejected = !rejected;
          saved = !saved;
        }
      in
      t.prewarmed <- Some p;
      p

(* --- Traffic: Serve's, once prewarm has run ------------------------------- *)

let ensure_open t =
  if t.prewarmed = None then
    invalid_arg "Zoo: prewarm before submitting traffic"

type ticket = Serve.ticket

let submit_async ?deadline_us t ~model ~params =
  ensure_open t;
  Serve.submit_async ?deadline_us t.serve ~model ~params

let submit ?deadline_us t ~model ~params =
  ensure_open t;
  Serve.submit ?deadline_us t.serve ~model ~params

let await t = Serve.await t.serve
let poll t = Serve.poll t.serve
let class_stats t = Serve.class_stats t.serve
let drain t = Serve.drain t.serve

let shutdown t = Serve.shutdown t.serve
