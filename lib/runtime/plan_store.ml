(* Persistent plan store: a directory of Plan_codec-encoded plans, one
   file per (fingerprint, arch) at the current codec version.

   Failure philosophy: the store is an accelerator, not a source of
   truth.  Every load failure - missing file, unreadable file, bad
   magic, version skew, corruption - degrades to "recompile", so the
   worst a damaged store can do is cost the cold compile the caller was
   prepared to pay anyway.  Saves are tmp+rename atomic per plan so a
   crash mid-save leaves either the old file or none, never a torn one
   that a later load would have to reject. *)

open Astitch_plan

type t = { dir : string }

let dir t = t.dir

(* mkdir -p: create missing path components, tolerate racing creators. *)
let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ ~dir =
  mkdir_p dir;
  if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"));
  { dir }

(* Fingerprints are hex digests (filename-safe by construction); arch
   names are usually "v100"/"t4"/"a100" but tests register synthetic
   arches with arbitrary names, so mangle anything risky. *)
let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' -> c
      | _ -> '_')
    s

let suffix = ".plan"

let filename ~fingerprint ~arch =
  Printf.sprintf "%s-%s-v%d%s" (sanitize fingerprint) (sanitize arch)
    Plan_codec.version suffix

let path t ~fingerprint ~arch = Filename.concat t.dir (filename ~fingerprint ~arch)

let write_file path data =
  (* Unique-enough tmp name: pid disambiguates concurrent processes;
     within a process saves of the same key are idempotent anyway. *)
  let tmp =
    Printf.sprintf "%s.tmp.%d" path (Unix.getpid ())
  in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data);
  Sys.rename tmp path

let save t ~fingerprint ~arch plan =
  match write_file (path t ~fingerprint ~arch) (Plan_codec.encode plan) with
  | () -> Ok ()
  | exception Sys_error m -> Error m
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

type load = Loaded of Kernel_plan.t | Absent | Rejected of string

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load t ~fingerprint ~arch =
  let p = path t ~fingerprint ~arch in
  if not (Sys.file_exists p) then Absent
  else
    match read_file p with
    | exception Sys_error m -> Rejected m
    | exception End_of_file -> Rejected (p ^ ": short read")
    | bytes -> (
        match Plan_codec.decode bytes with
        | Ok plan -> Loaded plan
        | Error e ->
            Rejected
              (Printf.sprintf "%s: %s" (Filename.basename p)
                 (Plan_codec.error_to_string e)))

let list t =
  let want_suffix = Printf.sprintf "-v%d%s" Plan_codec.version suffix in
  Sys.readdir t.dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f want_suffix)
  |> List.sort compare
