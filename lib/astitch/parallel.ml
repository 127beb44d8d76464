(* Deterministic fork-join map over OCaml 5 domains.

   Cluster-group compilation is embarrassingly parallel: each group's
   schedule/codegen depends only on the graph, the config and the arch.
   The pool hands items to workers through an atomic cursor (dynamic load
   balancing - scheduling order is NOT deterministic) but every item's
   result lands in its input slot, so the merged output is always in
   input order: byte-identical to the sequential map for pure functions.

   Exceptions are captured per item and re-raised for the lowest failing
   index after all workers drain, matching what a left-to-right
   sequential map would have raised first.  Callers must gate off
   impure work (fault injection arms global state) before coming
   here. *)

let sequential_mapi f items = List.mapi f items

let mapi ~domains f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let d = Stdlib.max 1 (Stdlib.min domains n) in
  if d = 1 || n <= 1 then sequential_mapi f items
  else begin
    let sid =
      if Astitch_obs.Trace.enabled () then
        Astitch_obs.Trace.span_begin ~phase:"compile" "parallel-map"
          ~attrs:
            [
              ("items", Astitch_obs.Trace.Int n);
              ("domains", Astitch_obs.Trace.Int d);
            ]
      else 0
    in
    let results :
        ('b, exn * Printexc.raw_backtrace) result option array =
      Array.make n None
    in
    let cursor = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < n then begin
        (results.(i) <-
          (try Some (Ok (f i arr.(i)))
           with e -> Some (Error (e, Printexc.get_raw_backtrace ()))));
        worker ()
      end
    in
    let spawned = List.init (d - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned;
    Astitch_obs.Trace.span_end sid;
    (* deterministic merge: input order, first failure wins *)
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
           | None -> assert false)
         results)
  end

let map ~domains f items = mapi ~domains (fun _ x -> f x) items

(* The machine's recommended domain count, uncapped.  Callers that want
   fewer domains say so through [Config.compile_domains] (CLI [-j], the
   serving worker pool's [workers]); hardcoding a ceiling here silently
   wasted cores on wide machines. *)
let recommended_domains () =
  Stdlib.max 1 (Domain.recommended_domain_count ())
