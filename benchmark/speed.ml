(* The machine's speed, against a fixed reference loop.

   On a shared virtual machine other tenants slow a CPU by up to twice,
   for a fraction of a second to minutes at a time, and often slow one
   CPU and not the other: a run that falls into such a spell reads slow
   from its first call to its last, so no estimator within the run can
   tell it from a slower program.  The benchmark therefore times this
   loop next to what it measures - before the calls of a closed loop, at
   most every 20 ms, before every set-up and around every serving slice -
   and scales the gated figures to the loop's reference time: each reads
   as it would on a machine where the loop takes [reference_s].

   The loop inserts a thousand pseudo-random keys into an integer map:
   short-lived allocation and pointer chasing in a small working set, the
   kind of work the compiler passes, the executor's tape and the serving
   layers do.  Of the loops tried against compile sweeps on a shared
   2-core machine - map inserts of 1 000 and 16 000 keys, hash-table
   inserts, a list sort and a 2 MiB array scan - it tracked the sweeps'
   slowdowns most closely.  It is the benchmark's own code, so no change
   to the library moves it. *)

module Int_map = Map.Make (Int)

let loop () =
  let m = ref Int_map.empty and x = ref 7 in
  for _ = 1 to 1000 do
    x := ((!x * 1103515245) + 12345) land 0xFFFFFF;
    m := Int_map.add !x !x !m
  done;
  Int_map.cardinal !m

(* The loop's time on the quiet 2-core machine the benchmark was written
   on, so that scaled figures read as that machine's seconds. *)
let reference_s = 1.8e-4

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* The calling thread's speed: the reference time over the fastest of
   five timings of the loop; about 1 on the reference machine when
   quiet, below 1 when slower. *)
let here () =
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = now_s () in
    ignore (Sys.opaque_identity (loop ()));
    best := Float.min !best (now_s () -. t0)
  done;
  reference_s /. !best

(* The calling thread's speed, measured again when [every_s] has passed
   since the last measurement: a closed loop reads it before each call
   and scales the call's time by it, so a spell of slowness is measured
   within a few calls of where it starts. *)
type gauge = { every_s : float; mutable at : float; mutable speed : float }

let gauge ?(every_s = 0.02) () = { every_s; at = neg_infinity; speed = 1. }

let read g =
  if now_s () -. g.at >= g.every_s then begin
    g.speed <- here ();
    g.at <- now_s ()
  end;
  g.speed

(* The geometric mean of the speeds of [cpus] (indices into the CPUs the
   process may use), each measured on that CPU; the calling thread's
   placement is restored afterwards. *)
let measure ~cpus =
  let saved = Affinity.get () in
  let speeds =
    List.map
      (fun i ->
        Affinity.pin_to i;
        here ())
      cpus
  in
  if saved <> [] then ignore (Affinity.set saved);
  Bench_stats.Stats.geomean speeds
