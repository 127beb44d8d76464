(* Chrome trace-event JSON exporter.

   Emits the "JSON object format" of the Trace Event spec, loadable in
   Perfetto (ui.perfetto.dev) and chrome://tracing:

     { "displayTimeUnit": "ms",
       "traceEvents": [
         {"name":"process_name","ph":"M","pid":1,"args":{"name":"astitch"}},
         {"name":"clustering","cat":"compile","ph":"X","pid":1,"tid":0,
          "ts":12.345,"dur":3.210,"args":{"span":4,"parent":1,...}},
         {"name":"degrade","cat":"fallback","ph":"i","s":"t","pid":1,
          "tid":0,"ts":15.000,"args":{...}} ] }

   Spans map to complete events ("ph":"X", microsecond ts/dur with
   nanosecond precision in the fraction), instants to "ph":"i"; the
   emitting domain becomes the tid, so parallel compiles render as one
   track per domain.  Span id and parent id travel in args - Perfetto
   nests "X" events by interval containment, which our per-domain span
   stack guarantees. *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_str b s =
  Buffer.add_char b '"';
  escape b s;
  Buffer.add_char b '"'

let add_value b = function
  | Trace.Int i -> Buffer.add_string b (string_of_int i)
  | Trace.Float f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.6g" f)
      else add_str b (Float.to_string f)
  | Trace.Str s -> add_str b s
  | Trace.Bool v -> Buffer.add_string b (if v then "true" else "false")

(* args = span/parent bookkeeping + user attrs; later keys win is not a
   JSON guarantee, so bookkeeping keys are prefixed to avoid collision. *)
let add_args b extra attrs =
  Buffer.add_char b '{';
  let first = ref true in
  let field k v =
    if not !first then Buffer.add_char b ',';
    first := false;
    add_str b k;
    Buffer.add_char b ':';
    v ()
  in
  List.iter (fun (k, i) -> field k (fun () -> Buffer.add_string b (string_of_int i))) extra;
  List.iter (fun (k, v) -> field k (fun () -> add_value b v)) attrs;
  Buffer.add_char b '}'

let us ns = float_of_int ns /. 1e3

let add_record b = function
  | Trace.Span sp ->
      Buffer.add_string b "{\"name\":";
      add_str b sp.Trace.name;
      Buffer.add_string b ",\"cat\":";
      add_str b sp.Trace.phase;
      Buffer.add_string b ",\"ph\":\"X\",\"pid\":1,\"tid\":";
      Buffer.add_string b (string_of_int sp.Trace.domain);
      Buffer.add_string b (Printf.sprintf ",\"ts\":%.3f" (us sp.Trace.start_ns));
      Buffer.add_string b
        (Printf.sprintf ",\"dur\":%.3f"
           (us (Stdlib.max 0 (sp.Trace.end_ns - sp.Trace.start_ns))));
      Buffer.add_string b ",\"args\":";
      add_args b
        [ ("span", sp.Trace.id); ("parent", sp.Trace.parent) ]
        sp.Trace.attrs;
      Buffer.add_char b '}'
  | Trace.Event e ->
      Buffer.add_string b "{\"name\":";
      add_str b e.Trace.ename;
      Buffer.add_string b ",\"cat\":";
      add_str b e.Trace.ephase;
      Buffer.add_string b ",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":";
      Buffer.add_string b (string_of_int e.Trace.edomain);
      Buffer.add_string b (Printf.sprintf ",\"ts\":%.3f" (us e.Trace.ts_ns));
      Buffer.add_string b ",\"args\":";
      add_args b [] e.Trace.eattrs;
      Buffer.add_char b '}'
  | Trace.Flow f ->
      (* Flow arrows: same name/cat/id joins a chain; "f" binds to the
         enclosing slice ("bp":"e") so the arrow lands inside the span
         where the request completed. *)
      Buffer.add_string b "{\"name\":";
      add_str b f.Trace.fname;
      Buffer.add_string b ",\"cat\":";
      add_str b f.Trace.fphase;
      Buffer.add_string b ",\"ph\":";
      Buffer.add_string b
        (match f.Trace.fdir with
        | Trace.Flow_start -> "\"s\""
        | Trace.Flow_step -> "\"t\""
        | Trace.Flow_end -> "\"f\",\"bp\":\"e\"");
      Buffer.add_string b ",\"id\":";
      Buffer.add_string b (string_of_int f.Trace.fid);
      Buffer.add_string b ",\"pid\":1,\"tid\":";
      Buffer.add_string b (string_of_int f.Trace.fdomain);
      Buffer.add_string b (Printf.sprintf ",\"ts\":%.3f" (us f.Trace.fts_ns));
      Buffer.add_string b ",\"args\":";
      add_args b [] f.Trace.fattrs;
      Buffer.add_char b '}'

let to_string ?(process_name = "astitch") (records : Trace.record list) =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  Buffer.add_string b "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":";
  add_str b process_name;
  Buffer.add_string b "}}";
  List.iter
    (fun r ->
      Buffer.add_string b ",\n";
      add_record b r)
    records;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let to_file ~path ?process_name records =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?process_name records))
