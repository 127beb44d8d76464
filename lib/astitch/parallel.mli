(** Deterministic fork-join map over OCaml 5 domains.

    Work is distributed dynamically, but each item's result lands in its
    input slot, so for pure functions the output is identical to the
    sequential map at any [domains] setting.  If items raise, the
    exception of the lowest failing index is re-raised (with its
    backtrace) after all workers finish — the same exception a
    left-to-right sequential map would have surfaced first.

    Callers are responsible for gating off impure work: fault injection
    mutates a global registry, which is not domain-safe. *)

val map : domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f items]; [domains <= 1] or a short list runs
    sequentially in the calling domain. *)

val mapi : domains:int -> (int -> 'a -> 'b) -> 'a list -> 'b list

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count], at least 1 — the default for
    [Config.compile_domains] when the caller asks for "auto" (CLI
    [-j 0], {!Config.auto_domains}).  No hidden ceiling: capping is the
    configuration's job, not this module's. *)
