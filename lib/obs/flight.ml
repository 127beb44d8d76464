(* Black-box flight-recorder dumps.

   The recorder ring is [Trace]'s one sink: [arm] installs a small one
   (4096 records per domain) only when no sink is installed, and keeps
   a trace sink that is already there, so a run with both a trace and
   the recorder collects each record once.  This module owns the *dump*
   policy: where incident files go, how many may be written before
   further incidents are suppressed (a chaos run can fire hundreds), and
   the incident marker event itself.  [incident] first emits a
   phase-["incident"] instant - so the triggering event is always inside
   the dump it produces - then snapshots the sink into a self-contained
   Chrome-trace file.

   Everything is global state, mirroring the trace sink: the serving
   runtime's incident sites (batch failure, quarantine, breaker-open,
   worker death, wedge-steal) sit deep inside the scheduler and worker
   pool, and threading a dump handle through them would couple every
   layer to observability plumbing. *)

let dump_dir : string option Atomic.t = Atomic.make None
let dump_limit : int Atomic.t = Atomic.make 32
let dump_seq : int Atomic.t = Atomic.make 0
let suppressed_n : int Atomic.t = Atomic.make 0
let mu = Mutex.create ()
let paths : string list ref = ref []

(* Did [arm] install the live sink?  Only then does [disarm] remove it. *)
let owns_sink : bool Atomic.t = Atomic.make false

let arm ?(limit = 32) ~dir () =
  if not (Trace.enabled ()) then begin
    Trace.install ~capacity:4096 ();
    Atomic.set owns_sink true
  end;
  Atomic.set dump_limit limit;
  Atomic.set dump_seq 0;
  Atomic.set suppressed_n 0;
  Mutex.lock mu;
  paths := [];
  Mutex.unlock mu;
  Atomic.set dump_dir (Some dir)

let disarm () =
  Atomic.set dump_dir None;
  if Atomic.exchange owns_sink false then ignore (Trace.uninstall ())

let dump_paths () =
  Mutex.lock mu;
  let ps = List.rev !paths in
  Mutex.unlock mu;
  ps

let suppressed () = Atomic.get suppressed_n

let sanitize reason =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' -> c | _ -> '-')
    reason

(* Snapshot the sink into [dir] and remember the path.  Concurrent
   incidents on different domains each get a unique sequence number and
   write distinct files. *)
let dump ~reason =
  match Atomic.get dump_dir with
  | Some dir when Trace.enabled () ->
      let n = Atomic.fetch_and_add dump_seq 1 in
      if n >= Atomic.get dump_limit then begin
        Atomic.incr suppressed_n;
        None
      end
      else begin
        let path =
          Filename.concat dir
            (Printf.sprintf "incident-%03d-%s.json" n (sanitize reason))
        in
        Chrome_trace.to_file ~path ~process_name:"astitch-flight"
          (Trace.records ());
        Mutex.lock mu;
        paths := path :: !paths;
        Mutex.unlock mu;
        Some path
      end
  | _ -> None

let incident ?attrs ~reason () =
  (* The marker goes through the normal emission path, so it lands in
     the sink before the snapshot below - every dump contains its own
     trigger. *)
  Trace.instant ?attrs ~phase:"incident" reason;
  dump ~reason
