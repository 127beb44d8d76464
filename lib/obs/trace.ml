(* Structured trace spans, events and cross-domain flows.

   One global sink (installed by the CLI's --trace, the flight recorder,
   or a test) collects records into *per-domain ring buffers*: each
   emitting domain lazily registers its own fixed-capacity buffer, writes
   to it without any synchronization, and the buffers only meet at
   collection time.  Concurrent emitters therefore can never interleave
   or corrupt each other's records - the QCheck property in
   test_obs.ml leans on exactly this structure.

   The flight recorder ([Flight]) is not a second sink: when no sink is
   installed it installs a small one, and an incident dump snapshots
   whatever sink is live, so a dump holds everything a trace holds.

   Zero cost when disabled: every entry point first reads the sink
   atomic; with no sink installed, [span_begin] returns 0, [span_end 0],
   [instant] and the flow emitters return immediately, [new_context]
   returns the preallocated [null_context], and none of them allocates
   (the timestamps are plain ints, the optional [?attrs] defaults to an
   immediate [None]).  Hot paths (the executor's per-kernel loop) guard
   on [enabled ()] / a zero span id and so pay one atomic load per
   kernel when tracing is off - verified by the allocation test.

   Span identity: ids come from one atomic counter per sink (0 is
   reserved for "no span"); parentage is tracked with a per-domain
   stack, so spans nest per domain and a span opened on a worker domain
   starts a fresh root there (its records still carry the domain id,
   which becomes the Chrome-trace tid).

   Cross-domain rule: a span MUST be closed on the domain that opened
   it.  [span_end] for an id that is not open on the calling domain does
   not touch any foreign stack (that would race); instead of silently
   dropping the close it emits a ["cross-domain-span-end"] diagnostic
   instant carrying the id, and the opening domain's copy is eventually
   auto-closed when its own enclosing span ends.  Work that migrates
   between domains (the worker pool's wedge-steal path) links its spans
   with flow events via a [context] instead of sharing a span stack. *)

type value = Int of int | Float of float | Str of string | Bool of bool
type attrs = (string * value) list

type span = {
  id : int;
  parent : int; (* 0 = root *)
  name : string;
  phase : string;
  domain : int;
  start_ns : int;
  end_ns : int;
  attrs : attrs;
}

type event = {
  ename : string;
  ephase : string;
  edomain : int;
  ts_ns : int;
  eattrs : attrs;
}

type flow_dir = Flow_start | Flow_step | Flow_end

type flow = {
  fdir : flow_dir;
  fid : int; (* flow (trace) id; joins the arrow chain *)
  fname : string;
  fphase : string;
  fdomain : int;
  fts_ns : int;
  fattrs : attrs;
}

type record = Span of span | Event of event | Flow of flow

(* A request-scoped trace context: the flow id that joins the request's
   spans across domains, plus the span that was innermost when the
   context was minted (the client-side submit span). *)
type context = { trace_id : int; parent_span : int }

let null_context = { trace_id = 0; parent_span = 0 }

(* --- Sink and per-domain buffers ---------------------------------------- *)

type buffer = {
  dom : int;
  ring : record option array;
  mutable next : int; (* total records ever emitted on this domain *)
}

type sink = {
  clock : Clock.t;
  capacity : int;
  mutable buffers : buffer list; (* registration under [mu]; emission is
                                    single-domain and lock-free *)
  mu : Mutex.t;
  ids : int Atomic.t;
}

let current : sink option Atomic.t = Atomic.make None

(* Flow ids are global (never reset): a context minted under one sink
   stays unique if traces from two sinks are merged. *)
let flow_ids : int Atomic.t = Atomic.make 0

let install ?(clock = Clock.monotonic_ns) ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Trace.install: capacity must be > 0";
  Atomic.set current
    (Some
       {
         clock;
         capacity;
         buffers = [];
         mu = Mutex.create ();
         ids = Atomic.make 0;
       })

let enabled () =
  match Atomic.get current with None -> false | Some _ -> true

(* --- Domain-local emission state ---------------------------------------- *)

type open_span = {
  oid : int;
  oparent : int;
  oname : string;
  ophase : string;
  ostart : int;
  oattrs : attrs;
}

type dstate = {
  owner : sink;  (* the sink this state registered with *)
  buf : buffer;
  mutable stack : open_span list;
}

let dls : dstate option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let register_buffer (s : sink) : buffer =
  let buf =
    { dom = (Domain.self () :> int); ring = Array.make s.capacity None; next = 0 }
  in
  Mutex.lock s.mu;
  s.buffers <- buf :: s.buffers;
  Mutex.unlock s.mu;
  buf

(* The domain's state under the installed sink; its buffer is
   registered on first use.  A reinstalled sink is detected by physical
   identity, so stale state from a previous sink is abandoned rather
   than mixed in. *)
let dstate_for (s : sink) : dstate =
  let cell = Domain.DLS.get dls in
  match !cell with
  | Some d when d.owner == s -> d
  | _ ->
      let d = { owner = s; buf = register_buffer s; stack = [] } in
      cell := Some d;
      d

let emit (d : dstate) (r : record) =
  let b = d.buf in
  b.ring.(b.next mod Array.length b.ring) <- Some r;
  b.next <- b.next + 1

(* --- Emission ------------------------------------------------------------ *)

let span_begin ?attrs ~phase name =
  match Atomic.get current with
  | None -> 0
  | Some s ->
      let d = dstate_for s in
      let id = Atomic.fetch_and_add s.ids 1 + 1 in
      let parent = match d.stack with [] -> 0 | o :: _ -> o.oid in
      d.stack <-
        {
          oid = id;
          oparent = parent;
          oname = name;
          ophase = phase;
          ostart = s.clock ();
          oattrs = (match attrs with None -> [] | Some a -> a);
        }
        :: d.stack;
      id

let span_end ?attrs id =
  if id <> 0 then
    match Atomic.get current with
    | None -> ()
    | Some s ->
        let d = dstate_for s in
        (* Only unwind if the span is actually open on this domain (a
           sink swapped mid-span leaves orphan ids; a span opened on
           another domain lives on *that* domain's stack).  Children
           left open above [id] are auto-closed at the same timestamp so
           the record stream stays well-nested even under exceptions. *)
        if List.exists (fun o -> o.oid = id) d.stack then begin
          let end_ns = s.clock () in
          let extra = match attrs with None -> [] | Some a -> a in
          let rec close () =
            match d.stack with
            | [] -> ()
            | o :: rest ->
                d.stack <- rest;
                emit d
                  (Span
                     {
                       id = o.oid;
                       parent = o.oparent;
                       name = o.oname;
                       phase = o.ophase;
                       domain = (Domain.self () :> int);
                       start_ns = o.ostart;
                       end_ns;
                       attrs =
                         (if o.oid = id then o.oattrs @ extra else o.oattrs);
                     });
                if o.oid <> id then close ()
          in
          close ()
        end
        else
          (* Cross-domain (or stale) close: record the attempt instead
             of silently dropping it - see the module comment's rule. *)
          emit d
            (Event
               {
                 ename = "cross-domain-span-end";
                 ephase = "trace";
                 edomain = (Domain.self () :> int);
                 ts_ns = s.clock ();
                 eattrs =
                   (("span", Int id)
                   :: (match attrs with None -> [] | Some a -> a));
               })

let instant ?attrs ~phase name =
  match Atomic.get current with
  | None -> ()
  | Some s ->
      emit (dstate_for s)
        (Event
           {
             ename = name;
             ephase = phase;
             edomain = (Domain.self () :> int);
             ts_ns = s.clock ();
             eattrs = (match attrs with None -> [] | Some a -> a);
           })

let with_span ?attrs ~phase name f =
  if not (enabled ()) then f ()
  else begin
    let id = span_begin ?attrs ~phase name in
    match f () with
    | v ->
        span_end id;
        v
    | exception e ->
        span_end ~attrs:[ ("error", Str (Printexc.to_string e)) ] id;
        raise e
  end

(* --- Cross-domain contexts and flow events ------------------------------- *)

let new_context () =
  match Atomic.get current with
  | None -> null_context
  | Some s ->
      let d = dstate_for s in
      let parent = match d.stack with [] -> 0 | o :: _ -> o.oid in
      { trace_id = Atomic.fetch_and_add flow_ids 1 + 1; parent_span = parent }

let flow ?attrs dir ~phase (ctx : context) name =
  if ctx.trace_id <> 0 then
    match Atomic.get current with
    | None -> ()
    | Some s ->
        emit (dstate_for s)
          (Flow
             {
               fdir = dir;
               fid = ctx.trace_id;
               fname = name;
               fphase = phase;
               fdomain = (Domain.self () :> int);
               fts_ns = s.clock ();
               fattrs = (match attrs with None -> [] | Some a -> a);
             })

let flow_start ?attrs ~phase ctx name = flow ?attrs Flow_start ~phase ctx name
let flow_step ?attrs ~phase ctx name = flow ?attrs Flow_step ~phase ctx name
let flow_end ?attrs ~phase ctx name = flow ?attrs Flow_end ~phase ctx name

(* --- Collection ----------------------------------------------------------- *)

let ts_of = function
  | Span sp -> sp.start_ns
  | Event e -> e.ts_ns
  | Flow f -> f.fts_ns

let seq_of = function
  | Span sp -> sp.id
  | Event e -> e.ts_ns
  | Flow f -> f.fid

let buffer_records (b : buffer) =
  let cap = Array.length b.ring in
  let n = Stdlib.min b.next cap in
  let start = b.next - n in
  List.init n (fun i ->
      match b.ring.((start + i) mod cap) with
      | Some r -> r
      | None -> assert false)

(* The installed sink's buffers, or none. *)
let buffers () =
  match Atomic.get current with
  | None -> []
  | Some s ->
      Mutex.lock s.mu;
      let bufs = s.buffers in
      Mutex.unlock s.mu;
      bufs

let records () =
  List.concat_map buffer_records (buffers ())
  |> List.stable_sort (fun a b ->
         let c = compare (ts_of a) (ts_of b) in
         if c <> 0 then c else compare (seq_of a) (seq_of b))

let dropped () =
  List.fold_left
    (fun acc b -> acc + Stdlib.max 0 (b.next - Array.length b.ring))
    0 (buffers ())

let open_spans () =
  match Atomic.get current with
  | None -> 0
  | Some s -> List.length (dstate_for s).stack

let uninstall () =
  let rs = records () in
  Atomic.set current None;
  rs
