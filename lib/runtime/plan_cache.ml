(* Cache for compiled artifacts.

   Serving compiles the same graphs over and over; the cache keys an
   arbitrary compiled artifact ('a is a plan, a session result, or a
   resilient result) by the canonical graph fingerprint x architecture x
   config serialization.  Keying on Fingerprint.of_graph makes the key
   sound by construction: two graphs share a key only when their live
   structure is identical, so a hit can serve the cached plan verbatim.

   The cache is a plain table: an entry leaves only through [remove].
   A server keys one plan per served model and every plan a model uses
   is also held by its pooled executor contexts, so dropping one would
   free nothing.  The
   cache never stores degraded or fault-injected results - callers route
   those through [note_bypass] - so a hit is always a full-strength
   artifact.

   The cache is safe for concurrent domains: every operation that reads
   or mutates the table or the stats record holds [mu].  The serving
   worker pool shares one cache across all workers, so lookups,
   insertions and removals race freely; the mutex keeps the stats
   consistent with the table ([length = insertions - removals]).
   [find_or_compute] runs [compute] OUTSIDE the lock - compilation is
   slow and must overlap across domains - so two domains may compile the
   same key concurrently; the second [add] replaces the first, which is
   sound because equal keys imply interchangeable artifacts. *)

module Trace = Astitch_obs.Trace
module Metrics = Astitch_obs.Metrics

(* Global cache observability: per-cache [stats] stay the source of truth
   for callers holding the cache; the process-wide metrics registry gets
   the same increments (summed over caches) so `--metrics` and the text
   exporter see cache behaviour without plumbing a handle through. *)
let note what =
  Metrics.(inc (counter default ("plan_cache." ^ what)));
  if Trace.enabled () then Trace.instant ~phase:"cache" ("cache-" ^ what)

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  bypasses : int;
  removals : int;
}

type 'a t = {
  mu : Mutex.t;
  table : (string, 'a) Hashtbl.t;
  mutable stats : stats;
}

let create () =
  {
    mu = Mutex.create ();
    table = Hashtbl.create 16;
    stats =
      { hits = 0; misses = 0; insertions = 0; bypasses = 0; removals = 0 };
  }

let key ~fingerprint ~arch ~config =
  Printf.sprintf "%s|%s|%s" fingerprint arch config

(* Run [f] holding the cache lock; metrics/trace emission stays outside
   the critical section (the metrics registry has its own synchronization
   and the trace sink is per-domain). *)
let locked t f = Mutex.protect t.mu f

let length t = locked t (fun () -> Hashtbl.length t.table)
let stats t = locked t (fun () -> t.stats)

let pp_stats ppf s =
  Format.fprintf ppf
    "%d hits, %d misses, %d insertions, %d bypasses, %d removals" s.hits
    s.misses s.insertions s.bypasses s.removals

let find t k =
  let r =
    locked t (fun () ->
        match Hashtbl.find_opt t.table k with
        | Some _ as r ->
            t.stats <- { t.stats with hits = t.stats.hits + 1 };
            r
        | None ->
            t.stats <- { t.stats with misses = t.stats.misses + 1 };
            None)
  in
  note (match r with Some _ -> "hit" | None -> "miss");
  r

(* Re-adding an existing key (concurrent domains racing on the same
   compile) is an in-place update: it counts as no insertion, so
   [length = insertions - removals] holds at all times. *)
let add t k v =
  let replaced =
    locked t (fun () ->
        let replaced = Hashtbl.mem t.table k in
        Hashtbl.replace t.table k v;
        if not replaced then
          t.stats <- { t.stats with insertions = t.stats.insertions + 1 };
        replaced)
  in
  note (if replaced then "replacement" else "insertion")

(* Explicit invalidation: serving quarantine drops the plan behind a
   batch that produced corrupt output, so the next checkout recompiles
   instead of resurrecting the suspect artifact from cache. *)
let remove t k =
  let removed =
    locked t (fun () ->
        if Hashtbl.mem t.table k then begin
          Hashtbl.remove t.table k;
          t.stats <- { t.stats with removals = t.stats.removals + 1 };
          true
        end
        else false)
  in
  if removed then note "removal";
  removed

let note_bypass t =
  locked t (fun () ->
      t.stats <- { t.stats with bypasses = t.stats.bypasses + 1 });
  note "bypass"

type outcome = Hit | Miss | Bypassed

let outcome_to_string = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Bypassed -> "bypassed"

(* The caching protocol in one place: look up, or compile and - only when
   the compiler says the artifact is cacheable - insert.  Degraded and
   fault-injected compiles return [cacheable = false] and are counted as
   bypasses, never stored.  [compute] runs outside the cache lock, so
   concurrent domains can miss on the same key and compile in parallel;
   both insertions are sound (equal keys, interchangeable values). *)
let find_or_compute t k ~compute =
  match find t k with
  | Some v -> (v, Hit)
  | None ->
      let v, cacheable = compute () in
      if cacheable then begin
        add t k v;
        (v, Miss)
      end
      else begin
        note_bypass t;
        (v, Bypassed)
      end
