(** Structured trace spans, events and cross-domain flows, collected
    into per-domain ring buffers behind one globally installed sink.
    The flight recorder ([Flight]) shares that sink: it installs a
    small one only when none is installed, and its incident dumps
    snapshot {!records}.

    Zero-cost when disabled: with no sink installed every entry point
    returns immediately without allocating ([span_begin] returns the
    reserved id 0, [new_context] the shared {!null_context}).  Emission
    is lock-free within a domain - each domain owns its buffer - so
    concurrent emitters never corrupt each other's records.

    {b Cross-domain rule.}  Spans are domain-local: the parent of a new
    span is the innermost span still open on the {e calling} domain, and
    a span must be closed on the domain that opened it.  Calling
    {!span_end} on a different domain never touches the opening domain's
    stack (that would race); it emits a ["cross-domain-span-end"]
    diagnostic instant (phase ["trace"], the id in attrs) instead of
    silently dropping the close, and the opening domain's copy is
    auto-closed when its own enclosing span ends.  {!with_span} opens
    and closes on one domain by construction, so it is safe to wrap work
    that may be {e stolen} by another domain (the worker pool's
    wedge-steal path): the stealing domain starts fresh root spans and
    the two sides are linked by flow events through a {!context} that
    travels with the request, not by a shared span stack. *)

type value = Int of int | Float of float | Str of string | Bool of bool
type attrs = (string * value) list

type span = {
  id : int;
  parent : int;  (** 0 = root (no enclosing span on this domain) *)
  name : string;
  phase : string;  (** coarse category: compile / exec / cache / fault... *)
  domain : int;  (** emitting domain, the Chrome-trace tid *)
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
(** Chrome-trace flow phases ["s"] / ["t"] / ["f"]: the arrows that link
    spans across domains (tids) in Perfetto. *)

type flow = {
  fdir : flow_dir;
  fid : int;  (** flow id: all arrows of one request share it *)
  fname : string;
  fphase : string;
  fdomain : int;
  fts_ns : int;
  fattrs : attrs;
}

type record = Span of span | Event of event | Flow of flow

type context = { trace_id : int; parent_span : int }
(** A request-scoped trace context that rides across domain boundaries
    (on [Request.t]): [trace_id] is the flow id joining the request's
    arrow chain, [parent_span] the span that was innermost when the
    context was minted (the client-side submit span).  [trace_id = 0]
    means "not traced" - every flow emitter is then a no-op. *)

val null_context : context
(** The disabled context ([trace_id = 0]); preallocated, so propagating
    it allocates nothing. *)

val install : ?clock:Clock.t -> ?capacity:int -> unit -> unit
(** Install a fresh trace sink (replacing any previous one).  [clock]
    defaults to {!Clock.monotonic_ns}; [capacity] (default 65536)
    bounds each domain's ring buffer - overflow overwrites the oldest
    records and is counted by {!dropped}.
    @raise Invalid_argument if [capacity <= 0]. *)

val uninstall : unit -> record list
(** Remove the trace sink, returning everything collected. *)

val enabled : unit -> bool
(** True while a sink is installed: the one guard instrumentation sites
    use before building attribute lists. *)

val span_begin : ?attrs:attrs -> phase:string -> string -> int
(** Open a span on the calling domain; returns its id (0 when disabled).
    The parent is the innermost span still open on this domain. *)

val span_end : ?attrs:attrs -> int -> unit
(** Close the span (extra [attrs] are appended).  Children left open are
    auto-closed at the same timestamp; id 0 is a no-op.  An id not open
    on the calling domain (closed cross-domain, or orphaned by a sink
    swap) emits a ["cross-domain-span-end"] diagnostic instant - see the
    cross-domain rule above. *)

val instant : ?attrs:attrs -> phase:string -> string -> unit
(** Emit a point event. *)

val with_span : ?attrs:attrs -> phase:string -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span.  An escaping exception closes the span
    with an ["error"] attribute and re-raises.  Opens and closes on the
    calling domain, so it is safe around work whose {e requests} migrate
    to other domains (steal paths) - see the cross-domain rule. *)

val new_context : unit -> context
(** Mint a context for a request: a fresh flow id (never reused, even
    across sink reinstalls) and the calling domain's innermost open span
    as [parent_span].  Returns {!null_context} when disabled. *)

val flow_start : ?attrs:attrs -> phase:string -> context -> string -> unit
(** Emit the flow-start arrow ([ph:"s"]).  Call inside the span the
    arrow should leave from (the submit span).  No-op on
    {!null_context}. *)

val flow_step : ?attrs:attrs -> phase:string -> context -> string -> unit
(** A flow step ([ph:"t"]): the arrow passes through the enclosing span
    on this domain (dispatch, retry, steal hops). *)

val flow_end : ?attrs:attrs -> phase:string -> context -> string -> unit
(** Terminate the flow ([ph:"f"]) inside the span where the request
    completed.  Every started flow should be ended exactly once - the
    span-chain QCheck property asserts this. *)

val records : unit -> record list
(** Everything collected so far, merged across domains and sorted by
    timestamp (span start).  Spans still open are not included.  Call
    after the traced work has quiesced; emission concurrent with
    collection may miss the newest records. *)

val dropped : unit -> int
(** Records lost to ring-buffer overflow, summed over domains. *)

val open_spans : unit -> int
(** Spans currently open on the calling domain (tests use this to assert
    balanced begin/end). *)
