(* Compiler configuration, including the ablation switches of Table 4:
   XLA -> +ATM (adaptive thread mapping on XLA's fusion scopes)
       -> +HDM (exhaustive stitching with hierarchical data management,
                no dominant merging)
       -> AStitch (everything). *)

type t = {
  adaptive_thread_mapping : bool;
  hierarchical_data_reuse : bool;
      (* stitch across one-to-many boundaries with shared/global buffers;
         off = fall back to XLA's fusion cuts *)
  dominant_merging : bool;
  remote_stitching : bool;
      (* merge mutually unreachable clusters, at most 4 per kernel
         (Clustering.remote_stitch_groups' default width) *)
  compile_domains : int;
      (* worker domains for per-cluster compilation; 1 = sequential.
         Plans are byte-identical at any setting (deterministic merge) *)
}

let full =
  {
    adaptive_thread_mapping = true;
    hierarchical_data_reuse = true;
    dominant_merging = true;
    remote_stitching = true;
    compile_domains = 1;
  }

(* Resolve a requested domain count: [0] (or negative) means "auto", the
   machine's recommended count.  This is where the old hard [min 8] cap
   in Parallel.recommended_domains moved: the clamp is a configuration
   decision, and the only remaining floor is 1. *)
let resolve_domains requested =
  if requested <= 0 then Parallel.recommended_domains () else requested

let auto_domains () = { full with compile_domains = resolve_domains 0 }

(* The "ATM" ablation: adaptive thread mapping on XLA's fusion plan. *)
let atm_only = { full with hierarchical_data_reuse = false;
                 dominant_merging = false; remote_stitching = false }

(* The "HDM" ablation: exhaustive stitching + hierarchical data
   management, without dominant merging. *)
let no_dominant_merging = { full with dominant_merging = false }

(* Canonical serialization of every field that can change the compiled
   plan - what names a backend.  [compile_domains] is deliberately
   excluded: parallel compilation is byte-identical to sequential, so
   two configs differing only there name the same backend. *)
let cache_key c =
  Printf.sprintf "atm=%b;hdr=%b;merge=%b;remote=%b" c.adaptive_thread_mapping
    c.hierarchical_data_reuse c.dominant_merging c.remote_stitching
