(* Metrics registry: counters, gauges and log-bucketed histograms.

   Unlike the trace layer (off unless a sink is installed), metrics are
   always on: every update is a single atomic read-modify-write with no
   allocation, cheap enough for compile- and cache-path instrumentation
   to bump unconditionally.  Registration (name -> metric) goes through
   a mutex and is get-or-create, so instrumented modules can look their
   metrics up lazily and share them across call sites.

   Histograms use geometric buckets with ratio 2^(1/4) (~19% wide, so a
   quantile estimate is within ~9.5% of the true sample), covering
   ~1e-9 .. ~1.5e12; observations outside clamp to the edge buckets.
   Every bucket is an atomic counter, so concurrent domains can observe
   into one histogram; quantiles are computed from the bucket counts at
   read time (p50/p95/p99 in the serve summaries and text summaries). *)

type counter = { cname : string; c : int Atomic.t }
type gauge = { gname : string; g : float Atomic.t }

let nbuckets = 283
let offset = 120
let log_gamma = 0.25 *. Float.log 2.

type histogram = {
  hname : string;
  buckets : int Atomic.t array;
  hcount : int Atomic.t;
  sum_milli : int Atomic.t; (* fixed-point sum, 1/1000 units *)
  min_milli : int Atomic.t; (* exact extrema (CAS), not bucket-rounded; *)
  max_milli : int Atomic.t; (* max_int / min_int = "no finite sample yet" *)
}

type metric = C of counter | G of gauge | H of histogram

type t = { mu : Mutex.t; tbl : (string, metric) Hashtbl.t }

let create () = { mu = Mutex.create (); tbl = Hashtbl.create 64 }
let default = create ()

let register t name make classify =
  Mutex.lock t.mu;
  let m =
    match Hashtbl.find_opt t.tbl name with
    | Some m -> m
    | None ->
        let m = make () in
        Hashtbl.replace t.tbl name m;
        m
  in
  Mutex.unlock t.mu;
  match classify m with
  | Some x -> x
  | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %S is already registered as another kind"
           name)

let counter t name =
  register t name
    (fun () -> C { cname = name; c = Atomic.make 0 })
    (function C c -> Some c | _ -> None)

let inc c = ignore (Atomic.fetch_and_add c.c 1)
let add c n = ignore (Atomic.fetch_and_add c.c n)
let value c = Atomic.get c.c

let gauge t name =
  register t name
    (fun () -> G { gname = name; g = Atomic.make 0. })
    (function G g -> Some g | _ -> None)

let set g v = Atomic.set g.g v

let set_max g v =
  let rec go () =
    let cur = Atomic.get g.g in
    if v > cur && not (Atomic.compare_and_set g.g cur v) then go ()
  in
  go ()

let gauge_value g = Atomic.get g.g

(* The initial value of a fresh bucket array, overwritten slot by slot.
   An array this long lives in the major heap, and seeding one with a
   young block ([Array.init]'s first element) forces a minor collection,
   a pause of every domain, per histogram created. *)
let unset_bucket = Atomic.make 0

let new_buckets () =
  let b = Array.make nbuckets unset_bucket in
  for i = 0 to nbuckets - 1 do
    b.(i) <- Atomic.make 0
  done;
  b

let histogram t name =
  register t name
    (fun () ->
      H
        {
          hname = name;
          buckets = new_buckets ();
          hcount = Atomic.make 0;
          sum_milli = Atomic.make 0;
          min_milli = Atomic.make max_int;
          max_milli = Atomic.make min_int;
        })
    (function H h -> Some h | _ -> None)

let bucket_index v =
  if not (Float.is_finite v) || v <= 0. then 0
  else
    let i = offset + int_of_float (Float.floor (Float.log v /. log_gamma)) in
    if i < 0 then 0 else if i >= nbuckets then nbuckets - 1 else i

(* Geometric midpoint of bucket [i] - the representative a quantile
   query returns.  Bucket 0 is the underflow bucket (zero, negative and
   non-finite observations); its representative is exactly 0., so a
   histogram of all-zero latencies reports p50 = 0 rather than a
   nonsensical 1e-9. *)
let bucket_value i =
  if i = 0 then 0.
  else Float.exp (log_gamma *. (float_of_int (i - offset) +. 0.5))

let rec cas_min a v =
  let cur = Atomic.get a in
  if v < cur && not (Atomic.compare_and_set a cur v) then cas_min a v

let rec cas_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then cas_max a v

let observe h v =
  ignore (Atomic.fetch_and_add h.buckets.(bucket_index v) 1);
  ignore (Atomic.fetch_and_add h.hcount 1);
  (* NaN/infinite observations land in an edge bucket above; keep them
     out of the fixed-point sum and extrema too (int_of_float nan is
     unspecified). *)
  if Float.is_finite v then begin
    let milli = int_of_float (Float.round (v *. 1000.)) in
    ignore (Atomic.fetch_and_add h.sum_milli milli);
    cas_min h.min_milli milli;
    cas_max h.max_milli milli
  end

let hist_min h =
  let m = Atomic.get h.min_milli in
  if m = max_int then 0. else float_of_int m /. 1000.

let hist_max h =
  let m = Atomic.get h.max_milli in
  if m = min_int then 0. else float_of_int m /. 1000.

let hist_count h = Atomic.get h.hcount
let hist_sum h = float_of_int (Atomic.get h.sum_milli) /. 1000.

let hist_mean h =
  let n = hist_count h in
  if n = 0 then 0. else hist_sum h /. float_of_int n

(* Quantiles must be total: an empty histogram (a serving run that shed
   every request, a bench leg that never sampled) answers 0 for every q,
   and a NaN q clamps like an out-of-range one instead of poisoning the
   rank arithmetic. *)
let quantile h q =
  let total = hist_count h in
  if total = 0 then 0.
  else begin
    let q = if Float.is_nan q then 1. else q in
    let q = Float.max 0. (Float.min 1. q) in
    let rank =
      Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int total)))
    in
    let rec go i cum =
      if i >= nbuckets then bucket_value (nbuckets - 1)
      else
        let cum = cum + Atomic.get h.buckets.(i) in
        if cum >= rank then bucket_value i else go (i + 1) cum
    in
    go 0 0
  end

(* --- Snapshots and reporting --------------------------------------------- *)

type sample =
  | Counter_s of { name : string; count : int }
  | Gauge_s of { name : string; level : float }
  | Hist_s of {
      name : string;
      n : int;
      total : float;
      mean : float;
      min : float;
      max : float;
      p50 : float;
      p95 : float;
      p99 : float;
    }

let sample_name = function
  | Counter_s { name; _ } | Gauge_s { name; _ } | Hist_s { name; _ } -> name

let snapshot t =
  Mutex.lock t.mu;
  let items = Hashtbl.fold (fun name m acc -> (name, m) :: acc) t.tbl [] in
  Mutex.unlock t.mu;
  items
  |> List.map (fun (name, m) ->
         match m with
         | C c -> Counter_s { name; count = value c }
         | G g -> Gauge_s { name; level = gauge_value g }
         | H h ->
             Hist_s
               {
                 name;
                 n = hist_count h;
                 total = hist_sum h;
                 mean = hist_mean h;
                 min = hist_min h;
                 max = hist_max h;
                 p50 = quantile h 0.5;
                 p95 = quantile h 0.95;
                 p99 = quantile h 0.99;
               })
  |> List.sort (fun a b -> compare (sample_name a) (sample_name b))

let reset t =
  Mutex.lock t.mu;
  Hashtbl.iter
    (fun _ m ->
      match m with
      | C c -> Atomic.set c.c 0
      | G g -> Atomic.set g.g 0.
      | H h ->
          Array.iter (fun b -> Atomic.set b 0) h.buckets;
          Atomic.set h.hcount 0;
          Atomic.set h.sum_milli 0;
          Atomic.set h.min_milli max_int;
          Atomic.set h.max_milli min_int)
    t.tbl;
  Mutex.unlock t.mu

let pp fmt t =
  let samples = snapshot t in
  Format.fprintf fmt "@[<v>metrics (%d registered):" (List.length samples);
  List.iter
    (fun s ->
      match s with
      | Counter_s { name; count } ->
          Format.fprintf fmt "@,  %-36s %12d" name count
      | Gauge_s { name; level } ->
          Format.fprintf fmt "@,  %-36s %12.6g" name level
      | Hist_s { name; n; total; mean; min; max; p50; p95; p99 } ->
          Format.fprintf fmt
            "@,  %-36s n=%-8d sum=%-12.1f mean=%-10.2f min=%-10.2f \
             max=%-10.2f p50=%-10.2f p95=%-10.2f p99=%.2f"
            name n total mean min max p50 p95 p99)
    samples;
  Format.fprintf fmt "@]"
