(** Order statistics over raw samples.

    Every quantile here is read off the samples themselves - never off
    histogram buckets - so two percentiles are equal only when the
    samples make them so. *)

val quantile : float array -> float -> float
(** [quantile sorted q] is the nearest-rank quantile of an ascending
    array: the [ceil (q * n)]-th smallest sample (1-based), the minimum
    for [q <= 0].
    @raise Invalid_argument on an empty array or [q] outside [0, 1]. *)

val percentile_ladder : float list
(** The percentiles a report may quote, ascending: p50, p75, p90, p95,
    p99, p99.9. *)

val tail_percentile : int -> float option
(** The highest percentile of {!percentile_ladder} that has at least
    ten of [n] samples beyond its nearest rank; [None] below 20
    samples. *)

val sorted : float array -> float array
(** An ascending copy.  @raise Invalid_argument on an empty array. *)

val median : float array -> float
(** Median of unsorted values, averaging the two middle ones for an
    even count.  @raise Invalid_argument on an empty array. *)

val quartiles : float array -> float * float * float
(** First quartile, median and third quartile of unsorted values, by
    the exclusive method (Python's [statistics.quantiles(xs, n=4)]).
    A single value is its own quartiles.
    @raise Invalid_argument on an empty array. *)

val rel_iqr : float array -> float
(** Distance between the first and third quartile as a share of the
    median; 0 when the median is 0. *)

val geomean : float list -> float
(** Geometric mean.  @raise Invalid_argument on an empty list or a
    non-positive value. *)

(** Growable buffer of raw samples; adding never allocates except when
    the buffer doubles. *)
module Samples : sig
  type t

  val create : ?capacity:int -> unit -> t
  val add : t -> float -> unit
  val length : t -> int

  val sorted : t -> float array
  (** A sorted copy. *)

  val sum : t -> float
end
