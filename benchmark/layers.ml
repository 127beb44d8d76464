(* Traced-run analysis: collect spans in bounded chunks, fold them into
   self times per layer, and write the Chrome trace and the layer table.

   The ring buffer of every domain is sized once per sink, and the
   parallel compiler spawns fresh domains per graph, so one sink over a
   whole traced window would either drop records or allocate a large
   ring per spawned domain.  Tracing instead runs in chunks - a compile
   sweep, a slice of exec rounds, one serving slice drained at its end -
   each under a fresh sink that is checked for drops and then folded
   into the running totals.

   A span's self time is its duration minus the durations of its direct
   children (children nest inside their parent on the same domain, so
   they never overlap).  Every span is also attributed to its root - the
   outermost span of its tree on its domain - which is how per-graph
   bench spans and per-batch serve spans split into their layers. *)

module Trace = Astitch_obs.Trace

type cell = { mutable count : int; mutable total_ns : float; mutable self_ns : float }

type t = {
  capacity : int;
  keep : int;  (** records kept for the Chrome trace *)
  mutable kept : Trace.record list;
  mutable kept_n : int;
  mutable records : int;
  mutable chunks : int;
  mutable dropped : int;
  cells : (string * string, cell) Hashtbl.t;  (** (root, layer) *)
}

let create ?(capacity = 1 lsl 18) ?(keep = 50_000) () =
  {
    capacity;
    keep;
    kept = [];
    kept_n = 0;
    records = 0;
    chunks = 0;
    dropped = 0;
    cells = Hashtbl.create 64;
  }

(* Layer key of a span: its phase and name, with the per-kernel exec
   spans and per-model batch spans folded into one row each. *)
let layer (sp : Trace.span) =
  let name =
    match sp.phase with
    | "exec" -> (
        match sp.name with
        | "run" | "run-context" | "create-context" | "rebind" -> sp.name
        | _ -> "kernel")
    | "serve" when String.starts_with ~prefix:"batch:" sp.name -> "batch"
    | _ -> sp.name
  in
  sp.phase ^ "/" ^ name

let fold t records =
  let spans = Hashtbl.create 4096 in
  List.iter
    (function Trace.Span sp -> Hashtbl.replace spans sp.Trace.id sp | _ -> ())
    records;
  let dur (sp : Trace.span) = float_of_int (sp.end_ns - sp.start_ns) in
  let child_ns = Hashtbl.create 4096 in
  Hashtbl.iter
    (fun _ (sp : Trace.span) ->
      if Hashtbl.mem spans sp.parent then
        Hashtbl.replace child_ns sp.parent
          (dur sp +. Option.value ~default:0. (Hashtbl.find_opt child_ns sp.parent)))
    spans;
  let roots = Hashtbl.create 4096 in
  let rec root_of (sp : Trace.span) =
    match Hashtbl.find_opt roots sp.id with
    | Some r -> r
    | None ->
        let r =
          match Hashtbl.find_opt spans sp.parent with
          | Some p -> root_of p
          | None -> layer sp
        in
        Hashtbl.replace roots sp.id r;
        r
  in
  Hashtbl.iter
    (fun id (sp : Trace.span) ->
      let key = (root_of sp, layer sp) in
      let c =
        match Hashtbl.find_opt t.cells key with
        | Some c -> c
        | None ->
            let c = { count = 0; total_ns = 0.; self_ns = 0. } in
            Hashtbl.replace t.cells key c;
            c
      in
      let d = dur sp in
      c.count <- c.count + 1;
      c.total_ns <- c.total_ns +. d;
      c.self_ns <-
        c.self_ns +. d -. Option.value ~default:0. (Hashtbl.find_opt child_ns id))
    spans

(* Run [f] under a fresh sink; fold what it recorded. *)
let chunk t f =
  Trace.install ~capacity:t.capacity ();
  let x =
    match f () with
    | x -> x
    | exception e ->
        ignore (Trace.uninstall ());
        raise e
  in
  t.dropped <- t.dropped + Trace.dropped ();
  let records = Trace.uninstall () in
  let n = List.length records in
  t.records <- t.records + n;
  t.chunks <- t.chunks + 1;
  if t.kept_n < t.keep then begin
    t.kept <- List.filteri (fun i _ -> i < t.keep - t.kept_n) records @ t.kept;
    t.kept_n <- Stdlib.min t.keep (t.kept_n + n)
  end;
  fold t records;
  x

let dropped t = t.dropped

(* Self time (ns) of [layer] summed over every root that [root] accepts. *)
let self_ns t ?(root = fun _ -> true) layer_name =
  Hashtbl.fold
    (fun (r, l) c acc -> if l = layer_name && root r then acc +. c.self_ns else acc)
    t.cells 0.

let total_ns t ?(root = fun _ -> true) layer_name =
  Hashtbl.fold
    (fun (r, l) c acc -> if l = layer_name && root r then acc +. c.total_ns else acc)
    t.cells 0.

let count t ?(root = fun _ -> true) layer_name =
  Hashtbl.fold
    (fun (r, l) c acc -> if l = layer_name && root r then acc + c.count else acc)
    t.cells 0

(* Self time of every layer under roots [root] accepts, by layer. *)
let self_by_layer t ~root =
  let acc = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (r, l) c ->
      if root r then
        Hashtbl.replace acc l
          (c.self_ns +. Option.value ~default:0. (Hashtbl.find_opt acc l)))
    t.cells;
  Hashtbl.fold (fun l ns xs -> (l, ns) :: xs) acc [] |> List.sort compare

let rows t =
  Hashtbl.fold (fun (r, l) c xs -> (r, l, c) :: xs) t.cells []
  |> List.sort (fun (r1, l1, a) (r2, l2, b) ->
         let c = compare r1 r2 in
         if c <> 0 then c
         else
           let c = compare b.self_ns a.self_ns in
           if c <> 0 then c else compare l1 l2)

(* A reconciliation row: a label, a value and its unit. *)
type check = { label : string; value : float; unit : string }

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let write t ~dir ~workload checks =
  Common.mkdir_p dir;
  let base = Filename.concat dir workload in
  let kept = t.kept in
  Astitch_obs.Chrome_trace.to_file ~path:(base ^ ".trace.json")
    ~process_name:("benchmark " ^ workload) kept;
  let rows = rows t in
  let oc = open_out (base ^ ".layers.json") in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"workload\": %s,\n  \"chunks\": %d,\n  \"records\": %d,\n  \"dropped\": %d,\n"
    (json_string workload) t.chunks t.records t.dropped;
  p "  \"chrome_trace_records\": %d,\n" (List.length kept);
  p "  \"reconcile\": [\n";
  List.iteri
    (fun i c ->
      p "    {\"label\": %s, \"value\": %s, \"unit\": %s}%s\n" (json_string c.label)
        (json_float c.value) (json_string c.unit)
        (if i = List.length checks - 1 then "" else ","))
    checks;
  p "  ],\n  \"layers\": [\n";
  List.iteri
    (fun i (r, l, c) ->
      p "    {\"root\": %s, \"layer\": %s, \"count\": %d, \"total_ms\": %s, \"self_ms\": %s}%s\n"
        (json_string r) (json_string l) c.count
        (json_float (c.total_ns /. 1e6))
        (json_float (c.self_ns /. 1e6))
        (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ]\n}\n";
  close_out oc;
  let oc = open_out (base ^ ".layers.txt") in
  let p fmt = Printf.fprintf oc fmt in
  p "%s: %d chunks, %d records, %d dropped (Chrome trace keeps the first %d)\n\n"
    workload t.chunks t.records t.dropped (List.length kept);
  List.iter (fun c -> p "  %-58s %14.3f %s\n" c.label c.value c.unit) checks;
  p "\n%-28s %-34s %9s %12s %12s\n" "root" "layer" "count" "total_ms" "self_ms";
  List.iter
    (fun (r, l, c) ->
      p "%-28s %-34s %9d %12.3f %12.3f\n" r l c.count (c.total_ns /. 1e6)
        (c.self_ns /. 1e6))
    rows;
  close_out oc
