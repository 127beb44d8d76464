(* The observability layer: trace spans/events, the metrics registry,
   the Chrome-trace exporter and the instrumentation hooks.

   The load-bearing claims, each tested directly:
   - spans nest well-formedly per domain and the exporter's output is
     valid JSON a real consumer can load;
   - under an injectable manual clock the whole export is deterministic;
   - with no sink installed the hot-path entry points allocate nothing;
   - concurrent domain emitters never interleave or corrupt records
     (per-domain ring buffers), checked as a QCheck property;
   - compiling instruments every pipeline phase, executing instruments
     every kernel, and fallback/fault activity lands in the metrics
     registry. *)

open Astitch_simt
open Astitch_plan
open Astitch_runtime
module Trace = Astitch_obs.Trace
module Metrics = Astitch_obs.Metrics
module Clock = Astitch_obs.Clock
module Chrome = Astitch_obs.Chrome_trace
module J = Astitch_obs.Json_check

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let with_manual_sink f =
  Trace.install ~clock:(Clock.read (Clock.manual ())) ();
  Fun.protect
    ~finally:(fun () -> if Trace.enabled () then ignore (Trace.uninstall ()))
    f

let spans records =
  List.filter_map (function Trace.Span s -> Some s | _ -> None) records

let events records =
  List.filter_map (function Trace.Event e -> Some e | _ -> None) records

let span_names records =
  List.map (fun (s : Trace.span) -> s.Trace.name) (spans records)

(* --- Spans ---------------------------------------------------------------- *)

let test_span_nesting () =
  let records =
    with_manual_sink (fun () ->
        Trace.with_span ~phase:"t" "outer" (fun () ->
            Trace.with_span ~phase:"t" "inner" (fun () ->
                Trace.instant ~phase:"t" "tick"));
        Trace.records ())
  in
  let find name =
    List.find (fun (s : Trace.span) -> s.Trace.name = name) (spans records)
  in
  let outer = find "outer" and inner = find "inner" in
  check_int "inner's parent is outer" outer.Trace.id inner.Trace.parent;
  check_int "outer is a root" 0 outer.Trace.parent;
  check_bool "parent interval contains child" true
    (outer.Trace.start_ns <= inner.Trace.start_ns
    && inner.Trace.end_ns <= outer.Trace.end_ns);
  check_int "event between the span ends" 1 (List.length (events records));
  check_bool "ids are distinct and nonzero" true
    (outer.Trace.id > 0 && inner.Trace.id > 0
    && outer.Trace.id <> inner.Trace.id)

let test_span_auto_close () =
  let records =
    with_manual_sink (fun () ->
        let a = Trace.span_begin ~phase:"t" "a" in
        let _b = Trace.span_begin ~phase:"t" "b" in
        (* ending the parent auto-closes the still-open child *)
        Trace.span_end a;
        check_int "stack is balanced" 0 (Trace.open_spans ());
        Trace.records ())
  in
  let find name =
    List.find (fun (s : Trace.span) -> s.Trace.name = name) (spans records)
  in
  check_int "both spans closed" 2 (List.length (spans records));
  check_int "child closed at the parent's end" (find "a").Trace.end_ns
    (find "b").Trace.end_ns

let test_with_span_exception () =
  let records =
    with_manual_sink (fun () ->
        (try
           Trace.with_span ~phase:"t" "boom" (fun () -> failwith "injected")
         with Failure _ -> ());
        Trace.records ())
  in
  match spans records with
  | [ s ] ->
      check_string "span survived the exception" "boom" s.Trace.name;
      check_bool "error attribute recorded" true
        (List.mem_assoc "error" s.Trace.attrs)
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

let test_ring_overflow () =
  Trace.install ~clock:(Clock.read (Clock.manual ())) ~capacity:8 ();
  for i = 1 to 20 do
    Trace.instant ~phase:"t" (Printf.sprintf "e%d" i)
  done;
  check_int "dropped counts the overflow" 12 (Trace.dropped ());
  let records = Trace.uninstall () in
  check_int "ring keeps the newest 8" 8 (List.length records);
  check_string "oldest survivor is e13" "e13"
    (match List.hd records with Trace.Event e -> e.Trace.ename | _ -> "?")

(* --- Chrome exporter ------------------------------------------------------ *)

let sample_records () =
  with_manual_sink (fun () ->
      Trace.with_span ~phase:"compile" "clustering"
        ~attrs:[ ("n", Trace.Int 3); ("note", Trace.Str "a\"b\\c\n") ]
        (fun () -> Trace.instant ~phase:"fault" "fault-fired");
      Trace.records ())

let test_chrome_json_valid () =
  let text = Chrome.to_string (sample_records ()) in
  match J.parse text with
  | Error e -> Alcotest.failf "exporter output does not parse: %s" e
  | Ok root -> (
      check_string "displayTimeUnit" "ms"
        (Option.value ~default:"?"
           (Option.bind (J.member "displayTimeUnit" root) J.as_str));
      match Option.bind (J.member "traceEvents" root) J.as_arr with
      | None -> Alcotest.fail "no traceEvents array"
      | Some evs ->
          check_int "metadata + span + instant" 3 (List.length evs);
          List.iter
            (fun ev ->
              check_bool "every event has name and ph" true
                (J.member "name" ev <> None && J.member "ph" ev <> None))
            evs;
          let span =
            List.find
              (fun ev ->
                Option.bind (J.member "ph" ev) J.as_str = Some "X")
              evs
          in
          check_bool "span has ts/dur/cat/tid/args" true
            (J.member "ts" span <> None
            && J.member "dur" span <> None
            && J.member "cat" span <> None
            && J.member "tid" span <> None
            && J.member "args" span <> None);
          let args = Option.get (J.member "args" span) in
          check_bool "attrs travel in args" true
            (Option.bind (J.member "n" args) J.as_num = Some 3.);
          check_string "escaped string round-trips" "a\"b\\c\n"
            (Option.value ~default:"?"
               (Option.bind (J.member "note" args) J.as_str)))

let test_deterministic_export () =
  let once () = Chrome.to_string (sample_records ()) in
  check_string "two manual-clock runs export identical JSON" (once ())
    (once ())

(* --- Zero cost when disabled --------------------------------------------- *)

let test_disabled_no_alloc () =
  if Trace.enabled () then ignore (Trace.uninstall ());
  (* warm up so any one-time setup is out of the measured window *)
  let id = Trace.span_begin ~phase:"exec" "warm" in
  Trace.span_end id;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    let id = Trace.span_begin ~phase:"exec" "kernel" in
    Trace.span_end id;
    Trace.instant ~phase:"exec" "tick";
    (* the request-tracing entry points share the contract: with the
       sink off, minting a context hands back the shared null context
       and every flow emitter returns before touching it *)
    let ctx = Trace.new_context () in
    Trace.flow_start ~phase:"serve" ctx "request";
    Trace.flow_step ~phase:"serve" ctx "request";
    Trace.flow_end ~phase:"serve" ctx "request";
    ignore (Trace.enabled ())
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check (float 0.))
    "no sink => no allocation on the span/flow hot path" 0. allocated

(* The monotonic clock behind per-kernel exec timing: readings never go
   backwards and reading it never allocates. *)
let test_monotonic_clock () =
  let read = Astitch_obs.Clock.monotonic_ns in
  let prev = ref (read ()) and backwards = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    let now = read () in
    if now < !prev then incr backwards;
    prev := now
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check int) "never backwards" 0 !backwards;
  Alcotest.(check (float 0.)) "no allocation per reading" 0. allocated

(* --- Concurrent emitters (qcheck) ----------------------------------------- *)

let prop_concurrent_domains =
  QCheck2.Test.make ~name:"concurrent domain emitters never corrupt records"
    ~count:25
    QCheck2.Gen.(pair (int_range 2 4) (int_range 1 20))
    (fun (ndomains, per_domain) ->
      Trace.install ~clock:(Clock.read (Clock.manual ())) ();
      let emit idx () =
        for j = 1 to per_domain do
          let id =
            Trace.span_begin ~phase:(Printf.sprintf "p%d" idx)
              (Printf.sprintf "d%d-%d" idx j)
          in
          Trace.instant ~phase:(Printf.sprintf "p%d" idx)
            (Printf.sprintf "e%d-%d" idx j);
          Trace.span_end id
        done
      in
      let doms =
        List.init (ndomains - 1) (fun i -> Domain.spawn (emit (i + 1)))
      in
      emit 0 ();
      List.iter Domain.join doms;
      let records = Trace.uninstall () in
      let ok = ref true in
      for idx = 0 to ndomains - 1 do
        let prefix = Printf.sprintf "d%d-" idx in
        let mine =
          List.filter
            (fun (s : Trace.span) ->
              String.length s.Trace.name >= String.length prefix
              && String.sub s.Trace.name 0 (String.length prefix) = prefix)
            (spans records)
        in
        if List.length mine <> per_domain then ok := false;
        (* every record of one emitter is intact: phase matches the name,
           timestamps are ordered, and all share one domain id *)
        List.iter
          (fun (s : Trace.span) ->
            if s.Trace.phase <> Printf.sprintf "p%d" idx then ok := false;
            if s.Trace.end_ns < s.Trace.start_ns then ok := false)
          mine;
        match mine with
        | [] -> ok := false
        | s0 :: rest ->
            List.iter
              (fun (s : Trace.span) ->
                if s.Trace.domain <> s0.Trace.domain then ok := false)
              rest
      done;
      let total_spans = List.length (spans records) in
      if total_spans <> ndomains * per_domain then ok := false;
      !ok)

(* --- Flows, cross-domain rule, recorder + flight dumps -------------------- *)

module Flight = Astitch_obs.Flight

let flows records =
  List.filter_map (function Trace.Flow f -> Some f | _ -> None) records

let test_flow_chain () =
  let ctx_ref = ref Trace.null_context in
  let records =
    with_manual_sink (fun () ->
        let sid = Trace.span_begin ~phase:"serve" "submit" in
        let ctx = Trace.new_context () in
        ctx_ref := ctx;
        Trace.flow_start ~phase:"serve" ctx "request";
        Trace.span_end sid;
        Trace.with_span ~phase:"serve" "batch" (fun () ->
            Trace.flow_step ~phase:"serve" ctx "request";
            Trace.flow_end ~phase:"serve" ctx "request");
        Trace.records ())
  in
  let fl = flows records in
  check_int "three flow records" 3 (List.length fl);
  let ctx = !ctx_ref in
  check_bool "fresh context has a nonzero id" true (ctx.Trace.trace_id > 0);
  let submit =
    List.find (fun (s : Trace.span) -> s.Trace.name = "submit") (spans records)
  in
  check_int "context parents under the minting span" submit.Trace.id
    ctx.Trace.parent_span;
  List.iter
    (fun (f : Trace.flow) ->
      check_int "every arrow carries the trace id" ctx.Trace.trace_id
        f.Trace.fid)
    fl;
  (match List.map (fun (f : Trace.flow) -> f.Trace.fdir) fl with
  | [ Trace.Flow_start; Trace.Flow_step; Trace.Flow_end ] -> ()
  | _ -> Alcotest.fail "flow arrows out of order");
  (* two contexts never share an id, even across sink reinstalls *)
  let other = with_manual_sink (fun () -> Trace.new_context ()) in
  check_bool "flow ids are never reused" true
    (other.Trace.trace_id <> ctx.Trace.trace_id);
  (* the null context is inert *)
  let quiet =
    with_manual_sink (fun () ->
        Trace.flow_start ~phase:"serve" Trace.null_context "request";
        Trace.flow_end ~phase:"serve" Trace.null_context "request";
        Trace.records ())
  in
  check_int "null context emits nothing" 0 (List.length quiet)

let test_flow_chrome_export () =
  let records =
    with_manual_sink (fun () ->
        Trace.with_span ~phase:"serve" "submit" (fun () ->
            let ctx = Trace.new_context () in
            Trace.flow_start ~phase:"serve" ctx "request";
            Trace.flow_step ~phase:"serve" ctx "request"
              ~attrs:[ ("hop", Trace.Str "retry") ];
            Trace.flow_end ~phase:"serve" ctx "request");
        Trace.records ())
  in
  let text = Chrome.to_string records in
  match J.parse text with
  | Error e -> Alcotest.failf "flow export does not parse: %s" e
  | Ok root ->
      let evs =
        Option.value ~default:[]
          (Option.bind (J.member "traceEvents" root) J.as_arr)
      in
      let by_ph ph =
        List.filter
          (fun ev -> Option.bind (J.member "ph" ev) J.as_str = Some ph)
          evs
      in
      check_int "one s arrow" 1 (List.length (by_ph "s"));
      check_int "one t arrow" 1 (List.length (by_ph "t"));
      check_int "one f arrow" 1 (List.length (by_ph "f"));
      let ids =
        List.map
          (fun ev -> Option.bind (J.member "id" ev) J.as_num)
          (by_ph "s" @ by_ph "t" @ by_ph "f")
      in
      (match ids with
      | [ Some a; Some b; Some c ] when a = b && b = c -> ()
      | _ -> Alcotest.fail "flow events do not share one id");
      check_string "the f arrow binds to its enclosing slice" "e"
        (Option.value ~default:"?"
           (Option.bind
              (Option.bind (J.member "bp" (List.hd (by_ph "f"))) J.as_str)
              Option.some));
      check_string "the t arrow keeps its attrs" "retry"
        (Option.value ~default:"?"
           (Option.bind (J.member "args" (List.hd (by_ph "t"))) (fun args ->
                Option.bind (J.member "hop" args) J.as_str)))

(* The cross-domain rule: a span closed on a domain that did not open it
   must never touch the owner's stack - it surfaces as a diagnostic
   instant, and the owner can still close its span normally. *)
let test_cross_domain_span_end () =
  let records =
    with_manual_sink (fun () ->
        let sid = Trace.span_begin ~phase:"serve" "owned" in
        let d = Domain.spawn (fun () -> Trace.span_end sid) in
        Domain.join d;
        check_int "owner's stack is untouched by the foreign close" 1
          (Trace.open_spans ());
        Trace.span_end sid;
        Trace.records ())
  in
  (match spans records with
  | [ s ] -> check_string "the owner's close wins" "owned" s.Trace.name
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l));
  match events records with
  | [ e ] ->
      check_string "foreign close becomes a diagnostic instant"
        "cross-domain-span-end" e.Trace.ename;
      check_string "diagnostic is in the trace phase" "trace" e.Trace.ephase
  | l -> Alcotest.failf "expected 1 diagnostic event, got %d" (List.length l)

(* The flight recorder shares the one trace sink: [arm] installs a
   small sink only when none is installed and [disarm] removes only
   that one; a trace sink installed before [arm] survives both, records
   and all, and holds the incident marker too. *)
let test_flight_shares_sink () =
  if Trace.enabled () then ignore (Trace.uninstall ());
  let dir = Filename.get_temp_dir_name () in
  Flight.arm ~dir ~limit:0 ();
  check_bool "arm installs a sink when none is installed" true
    (Trace.enabled ());
  Flight.disarm ();
  check_bool "disarm removes the sink arm installed" false (Trace.enabled ());
  with_manual_sink (fun () ->
      Trace.instant ~phase:"serve" "before-arm";
      Flight.arm ~dir ~limit:0 ();
      ignore (Flight.incident ~reason:"shared" ());
      Flight.disarm ();
      check_bool "arm/disarm keep an installed trace sink" true
        (Trace.enabled ());
      let names = List.map (fun (e : Trace.event) -> e.Trace.ename) in
      check_bool "the trace sink keeps its records and the marker" true
        (names (events (Trace.records ())) = [ "before-arm"; "shared" ]))

let test_recorder_overflow_export () =
  if Trace.enabled () then ignore (Trace.uninstall ());
  Trace.install ~clock:(Clock.read (Clock.manual ())) ~capacity:8 ();
  Fun.protect
    ~finally:(fun () -> if Trace.enabled () then ignore (Trace.uninstall ()))
    (fun () ->
      (* four records per round - two flow arrows, an instant and the
         span that closes around them - then one more instant, so the
         overflow cuts through every record kind and leaves a flow end
         whose start was overwritten *)
      for i = 1 to 20 do
        let ctx = Trace.new_context () in
        Trace.with_span ~phase:"serve" (Printf.sprintf "s%d" i) (fun () ->
            Trace.flow_start ~phase:"serve" ctx "request";
            Trace.instant ~phase:"serve" (Printf.sprintf "e%d" i);
            Trace.flow_end ~phase:"serve" ctx "request")
      done;
      Trace.instant ~phase:"serve" "last";
      check_int "overflow is counted" 73 (Trace.dropped ());
      let records = Trace.records () in
      let flows =
        List.filter_map (function Trace.Flow f -> Some f | _ -> None) records
      in
      let started (f : Trace.flow) =
        List.exists
          (fun (g : Trace.flow) ->
            g.Trace.fdir = Trace.Flow_start && g.Trace.fid = f.Trace.fid)
          flows
      in
      check_bool "spans, instants and a cut flow chain survive" true
        (spans records <> [] && events records <> []
        && List.exists
             (fun (f : Trace.flow) ->
               f.Trace.fdir = Trace.Flow_end && not (started f))
             flows);
      let text = Chrome.to_string records in
      match J.parse text with
      | Error e -> Alcotest.failf "overflowed sink export invalid: %s" e
      | Ok root ->
          let evs =
            Option.value ~default:[]
              (Option.bind (J.member "traceEvents" root) J.as_arr)
          in
          (* 8 survivors + the process metadata record *)
          check_int "ring keeps the newest 8" 9 (List.length evs))

let test_flight_dump () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "astitch-flight-test-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Flight.arm ~dir ~limit:2 ();
  Fun.protect
    ~finally:(fun () -> Flight.disarm ())
    (fun () ->
      Trace.instant ~phase:"serve" "pre-incident-context";
      (match Flight.incident ~reason:"test-incident" () with
      | None -> Alcotest.fail "armed incident produced no dump"
      | Some path -> (
          check_bool "dump file exists" true (Sys.file_exists path);
          let ic = open_in path in
          let text = really_input_string ic (in_channel_length ic) in
          close_in ic;
          match J.parse text with
          | Error e -> Alcotest.failf "dump is not valid JSON: %s" e
          | Ok root ->
              let evs =
                Option.value ~default:[]
                  (Option.bind (J.member "traceEvents" root) J.as_arr)
              in
              let has name =
                List.exists
                  (fun ev ->
                    Option.bind (J.member "name" ev) J.as_str = Some name)
                  evs
              in
              check_bool "the trigger instant is inside its own dump" true
                (has "test-incident");
              check_bool "events preceding the incident are captured" true
                (has "pre-incident-context")));
      ignore (Flight.incident ~reason:"test-incident" ());
      check_int "two dumps written" 2 (List.length (Flight.dump_paths ()));
      ignore (Flight.incident ~reason:"test-incident" ());
      check_int "still two dumps at the limit" 2
        (List.length (Flight.dump_paths ()));
      check_int "the third incident is counted as suppressed" 1
        (Flight.suppressed ()))

(* --- Metrics -------------------------------------------------------------- *)

let test_counters_gauges () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "c" in
  Metrics.inc c;
  Metrics.add c 4;
  check_int "counter accumulates" 5 (Metrics.value c);
  check_bool "get-or-create returns the same counter" true
    (Metrics.value (Metrics.counter reg "c") = 5);
  let g = Metrics.gauge reg "g" in
  Metrics.set g 2.5;
  Metrics.set_max g 1.0;
  Alcotest.(check (float 1e-9)) "set_max keeps the high water" 2.5
    (Metrics.gauge_value g);
  Metrics.set_max g 7.0;
  Alcotest.(check (float 1e-9)) "set_max raises" 7.0 (Metrics.gauge_value g);
  check_bool "re-registering as a different kind rejects" true
    (match Metrics.histogram reg "c" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_histogram_quantiles () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "lat" in
  for i = 1 to 1000 do
    Metrics.observe h (float_of_int i)
  done;
  check_int "count" 1000 (Metrics.hist_count h);
  let within q expect =
    let v = Metrics.quantile h q in
    let rel = Float.abs (v -. expect) /. expect in
    if rel > 0.15 then
      Alcotest.failf "q%.0f: %.1f not within 15%% of %.1f" (100. *. q) v
        expect
  in
  within 0.50 500.;
  within 0.95 950.;
  within 0.99 990.;
  let mean = Metrics.hist_mean h in
  check_bool "mean close to 500.5" true (Float.abs (mean -. 500.5) < 1.)

(* The serving runtime reads p50/p95/p99 off histograms that may not
   have seen a single sample yet (a server queried before its first
   request); the quantile path must degrade to 0, never crash or go
   NaN, whatever the inputs. *)
let test_quantile_edge_cases () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "empty" in
  List.iter
    (fun q ->
      let v = Metrics.quantile h q in
      check_bool
        (Printf.sprintf "empty histogram q=%f answers 0" q)
        true (v = 0.))
    [ 0.; 0.5; 0.95; 0.99; 1.; -1.; 2.; Float.nan ];
  check_bool "empty mean is finite" true
    (Float.is_finite (Metrics.hist_mean h));
  (* pathological observations land in the underflow bucket and report 0 *)
  let p = Metrics.histogram reg "pathological" in
  List.iter (Metrics.observe p)
    [ 0.; -5.; Float.nan; Float.infinity; Float.neg_infinity ];
  check_int "all pathological observations counted" 5 (Metrics.hist_count p);
  List.iter
    (fun q ->
      let v = Metrics.quantile p q in
      check_bool
        (Printf.sprintf "underflow bucket q=%f answers exactly 0" q)
        true (v = 0.))
    [ 0.5; 0.95; 0.99 ];
  (* one real sample among garbage: high quantiles find it, and no
     query returns NaN *)
  Metrics.observe p 100.;
  let v = Metrics.quantile p 1.0 in
  check_bool "q1 lands near the real sample" true (v > 50. && v < 200.);
  List.iter
    (fun q ->
      check_bool "no quantile query returns NaN" false
        (Float.is_nan (Metrics.quantile p q)))
    [ 0.; 0.25; 0.5; 0.75; 0.95; 0.99; 1.; Float.nan ]

let test_snapshot_reset () =
  let reg = Metrics.create () in
  Metrics.inc (Metrics.counter reg "b");
  Metrics.set (Metrics.gauge reg "a") 3.;
  Metrics.observe (Metrics.histogram reg "c") 10.;
  Metrics.observe (Metrics.histogram reg "c") 30.;
  (match Metrics.snapshot reg with
  | [ Metrics.Gauge_s { name = "a"; _ }; Metrics.Counter_s { name = "b"; _ };
      Metrics.Hist_s { name = "c"; n = 2; mean; min; max; _ } ] ->
      (* the extrema are exact (not bucket-rounded), the mean is total/n *)
      check_bool "snapshot mean" true (Float.abs (mean -. 20.) < 1e-9);
      check_bool "snapshot min is exact" true (min = 10.);
      check_bool "snapshot max is exact" true (max = 30.)
  | _ -> Alcotest.fail "snapshot shape/order");
  Metrics.reset reg;
  check_int "reset zeroes counters" 0 (Metrics.value (Metrics.counter reg "b"));
  check_int "reset zeroes histograms" 0
    (Metrics.hist_count (Metrics.histogram reg "c"));
  check_bool "reset clears the extrema" true
    (Metrics.hist_min (Metrics.histogram reg "c") = 0.
    && Metrics.hist_max (Metrics.histogram reg "c") = 0.)

(* --- Pipeline instrumentation -------------------------------------------- *)

let crnn_tiny () =
  match Astitch_workloads.Zoo.find "CRNN" with
  | Some e -> e.tiny ()
  | None -> Alcotest.fail "no CRNN in the zoo"

let compile_phases =
  [
    "clustering"; "remote-stitching"; "dominant-grouping";
    "schedule-propagation"; "locality-placement"; "mem-planning";
    "launch-config"; "codegen"; "kernel-schedule";
  ]

let test_compile_spans () =
  let records =
    with_manual_sink (fun () ->
        ignore
          (Session.compile Astitch_core.Astitch.full_backend Arch.v100
             (crnn_tiny ()));
        Trace.records ())
  in
  let names = span_names records in
  List.iter
    (fun phase ->
      check_bool (phase ^ " span present") true (List.mem phase names))
    compile_phases;
  check_bool "session compile span present" true (List.mem "compile" names);
  check_bool "per-cluster spans present" true (List.mem "cluster" names);
  (* nesting well-formedness across the whole compile: every non-root
     span's parent exists and its interval contains the child *)
  let by_id = Hashtbl.create 128 in
  List.iter
    (fun (s : Trace.span) -> Hashtbl.replace by_id s.Trace.id s)
    (spans records);
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.parent <> 0 then
        match Hashtbl.find_opt by_id s.Trace.parent with
        | None -> Alcotest.failf "span %s has a dangling parent" s.Trace.name
        | Some p ->
            check_bool
              (Printf.sprintf "%s nested in %s" s.Trace.name p.Trace.name)
              true
              (p.Trace.start_ns <= s.Trace.start_ns
              && s.Trace.end_ns <= p.Trace.end_ns))
    (spans records)

let test_exec_spans_and_timing () =
  let g = crnn_tiny () in
  let r = Session.compile Astitch_core.Astitch.full_backend Arch.v100 g in
  let params = Session.random_params g in
  let ctx, records =
    with_manual_sink (fun () ->
        let ctx = Executor.create_context ~fused:true ~timed:true r.plan in
        ignore (Executor.run_context ctx ~params);
        (ctx, Trace.records ()))
  in
  let names = span_names records in
  check_bool "run-context span present" true (List.mem "run-context" names);
  check_bool "create-context span present" true
    (List.mem "create-context" names);
  List.iter
    (fun (k : Kernel_plan.kernel) ->
      check_bool (k.name ^ " has an execution span") true
        (List.mem k.name names))
    r.plan.Kernel_plan.kernels;
  (* a timed context never reports wall_ns silently zero across the run *)
  let report = Executor.exec_report ctx in
  List.iter
    (fun (k : Profile.exec_kernel) ->
      check_int (k.kname ^ " counted its run") 1 k.runs)
    report.Profile.exec_kernels;
  check_bool "total measured wall time is positive" true
    (List.fold_left
       (fun acc (k : Profile.exec_kernel) -> acc +. k.wall_ns)
       0. report.Profile.exec_kernels
    > 0.)

let test_fault_and_degrade_events () =
  let g = crnn_tiny () in
  let faults =
    [ Fault_site.plan ~mode:Fault_site.Raise Fault_site.Mem_planning ]
  in
  let fired0 = Metrics.value (Metrics.counter Metrics.default "fault.fired") in
  let deg0 =
    Metrics.value (Metrics.counter Metrics.default "fallback.degradations")
  in
  let report, records =
    with_manual_sink (fun () ->
        match
          Fault_site.with_faults faults (fun () ->
              Session.compile_resilient Arch.v100 g)
        with
        | Error e -> Alcotest.failf "resilient compile failed: %s"
                       (Compile_error.to_string e)
        | Ok { report; _ } -> (report, Trace.records ()))
  in
  check_bool "the ladder stepped down" true
    (not (Astitch_core.Degradation.is_empty report));
  let enames = List.map (fun (e : Trace.event) -> e.Trace.ename) (events records) in
  check_bool "fault-fired event emitted" true (List.mem "fault-fired" enames);
  check_bool "degrade event emitted" true (List.mem "degrade" enames);
  check_bool "fault.fired counter bumped" true
    (Metrics.value (Metrics.counter Metrics.default "fault.fired") > fired0);
  check_bool "fallback.degradations counter bumped" true
    (Metrics.value (Metrics.counter Metrics.default "fallback.degradations")
    > deg0)

let test_publish_exec () =
  let g = crnn_tiny () in
  let r = Session.compile Astitch_core.Astitch.full_backend Arch.v100 g in
  let ctx = Executor.create_context ~fused:true ~timed:true r.plan in
  let params = Session.random_params g in
  for _ = 1 to 3 do
    ignore (Executor.run_context ctx ~params)
  done;
  let reg = Metrics.create () in
  Profile.publish_exec ~metrics:reg (Executor.exec_report ctx);
  let v name = Metrics.value (Metrics.counter reg name) in
  check_int "one report" 1 (v "exec.reports");
  check_bool "kernels counted" true (v "exec.kernels" > 0);
  check_int "fused + reference = kernels" (v "exec.kernels")
    (v "exec.kernels_fused" + v "exec.kernels_reference");
  check_bool "arena gauge set" true
    (Metrics.gauge_value (Metrics.gauge reg "exec.arena_bytes") > 0.);
  check_bool "wall-time histogram fed" true
    (Metrics.hist_count (Metrics.histogram reg "exec.kernel_wall_us") > 0)

(* --- Suite ---------------------------------------------------------------- *)

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "auto-close" `Quick test_span_auto_close;
          Alcotest.test_case "exception" `Quick test_with_span_exception;
          Alcotest.test_case "ring overflow" `Quick test_ring_overflow;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "valid JSON" `Quick test_chrome_json_valid;
          Alcotest.test_case "deterministic" `Quick test_deterministic_export;
        ] );
      ( "cost",
        [
          Alcotest.test_case "disabled = no alloc" `Quick test_disabled_no_alloc;
          Alcotest.test_case "monotonic clock" `Quick test_monotonic_clock;
        ] );
      ( "concurrency",
        [ QCheck_alcotest.to_alcotest ~long:false prop_concurrent_domains ] );
      ( "flows",
        [
          Alcotest.test_case "flow chain" `Quick test_flow_chain;
          Alcotest.test_case "chrome flow export" `Quick
            test_flow_chrome_export;
          Alcotest.test_case "cross-domain span end" `Quick
            test_cross_domain_span_end;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "flight shares the sink" `Quick
            test_flight_shares_sink;
          Alcotest.test_case "overflow export valid" `Quick
            test_recorder_overflow_export;
          Alcotest.test_case "flight dump" `Quick test_flight_dump;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters + gauges" `Quick test_counters_gauges;
          Alcotest.test_case "histogram quantiles" `Quick
            test_histogram_quantiles;
          Alcotest.test_case "quantile edge cases" `Quick
            test_quantile_edge_cases;
          Alcotest.test_case "snapshot + reset" `Quick test_snapshot_reset;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "compile spans" `Quick test_compile_spans;
          Alcotest.test_case "exec spans + timing" `Quick
            test_exec_spans_and_timing;
          Alcotest.test_case "fault + degrade events" `Quick
            test_fault_and_degrade_events;
          Alcotest.test_case "publish_exec" `Quick test_publish_exec;
        ] );
    ]
