(* Thread placement for steadier timings.  A measured single-thread loop
   runs on the first CPU, and a server's worker domains are spawned onto
   the second, so the kernel never migrates a measured thread and loses
   its caches.  Threads inherit the mask of the thread that spawns them.
   With fewer than two CPUs available nothing is pinned. *)

external get : unit -> int list = "bench_affinity_get"
external set : int list -> bool = "bench_affinity_set"

let all = get ()

let pin_to i =
  match List.nth_opt all i with
  | Some cpu when List.length all >= 2 -> ignore (set [ cpu ])
  | _ -> ()

let release () = if List.length all >= 2 then ignore (set all)

(* Run [f] on the first CPU. *)
let on_main f =
  pin_to 0;
  Fun.protect ~finally:release f

(* Run [f] on the second CPU; domains it spawns stay there. *)
let spawning_workers f =
  pin_to 1;
  Fun.protect ~finally:release f
