(** Compiler configuration, including the Table 4 ablation switches. *)

type t = {
  adaptive_thread_mapping : bool;
  hierarchical_data_reuse : bool;
      (** off = fall back to XLA's fusion cuts (the ATM ablation) *)
  dominant_merging : bool;
  remote_stitching : bool;
      (** merge mutually unreachable clusters, at most 4 per kernel
          ([Clustering.remote_stitch_groups]'s default width) *)
  compile_domains : int;
      (** worker domains for per-cluster compilation; [1] = sequential.
          Any setting produces byte-identical plans. *)
}

val full : t

val resolve_domains : int -> int
(** [resolve_domains n] is [n] for positive [n] and the machine's
    recommended domain count for [n <= 0] ("auto").  The old hard cap of
    8 domains lives nowhere anymore: [compile_domains] is honored as
    given. *)

val auto_domains : unit -> t
(** [full] with [compile_domains] resolved to the machine's recommended
    domain count. *)

val atm_only : t
(** Adaptive thread mapping on XLA's fusion plan (Table 4 "ATM"). *)

val no_dominant_merging : t
(** Exhaustive stitching without dominant merging (Table 4 "HDM"). *)

val cache_key : t -> string
(** Canonical serialization of every plan-affecting field (the four
    switches), for [Astitch.backend]'s names.  [compile_domains] is
    excluded (parallel compilation is byte-identical to sequential, so
    it may not tell two backends apart). *)
