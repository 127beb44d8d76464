let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  if not (q >= 0. && q <= 1.) then invalid_arg "Stats.quantile: q outside [0, 1]";
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  sorted.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

let percentile_ladder = [ 0.5; 0.75; 0.9; 0.95; 0.99; 0.999 ]

let tail_percentile n =
  let beyond q = n - int_of_float (Float.ceil (q *. float_of_int n)) in
  List.fold_left
    (fun best q -> if beyond q >= 10 then Some q else best)
    None percentile_ladder

let sorted xs =
  if Array.length xs = 0 then invalid_arg "Stats: no values";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let median xs =
  let s = sorted xs in
  let n = Array.length s in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Python's statistics.quantiles(method='exclusive', n=4): positions
   i * (n + 1) / 4, clamped to the inner samples, interpolated in exact
   integer steps of quarters. *)
let quartiles xs =
  let s = sorted xs in
  let ld = Array.length s in
  if ld = 1 then (s.(0), s.(0), s.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = Stdlib.max 1 (Stdlib.min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let rel_iqr xs =
  let q1, med, q3 = quartiles xs in
  if med = 0. then 0. else (q3 -. q1) /. Float.abs med

let geomean = function
  | [] -> invalid_arg "Stats.geomean: no values"
  | xs ->
      let logs =
        List.map
          (fun x ->
            if not (x > 0.) then invalid_arg "Stats.geomean: non-positive value";
            Float.log x)
          xs
      in
      Float.exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length xs))

module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create ?(capacity = 1024) () =
    { data = Array.make (Stdlib.max 1 capacity) 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len

  let sorted t =
    let s = Array.sub t.data 0 t.len in
    Array.sort Float.compare s;
    s

  let sum t =
    let acc = ref 0. in
    for i = 0 to t.len - 1 do
      acc := !acc +. t.data.(i)
    done;
    !acc
end
