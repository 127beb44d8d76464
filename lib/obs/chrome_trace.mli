(** Chrome trace-event JSON exporter (loadable in Perfetto and
    chrome://tracing).  Spans become complete events ("ph":"X") with
    microsecond ts/dur, instants become "ph":"i", cross-domain flows
    become flow events ("ph":"s"/"t"/"f" with the flow id in "id" - the
    arrows Perfetto draws between tids); the emitting domain is the tid,
    span/parent ids travel in [args]. *)

val to_string : ?process_name:string -> Trace.record list -> string
val to_file : path:string -> ?process_name:string -> Trace.record list -> unit
